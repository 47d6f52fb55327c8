module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util
module G = Ss_graph
module Daemon = Ss_sim.Daemon
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module Energy = Ss_energy.Energy
module Leader = Ss_algos.Leader_election
module Stabilization = Ss_verify.Stabilization
module Sync_runner = Ss_sync.Sync_runner

let rows ~seeds rng =
  (* One row per (n, seed): the per-n setup (graph, ids, history) is
     derived sequentially — consuming the parent stream in the
     historical order — then each (n × seed) row draws only from
     [Rng.create seed]. *)
  let contexts =
    List.map
      (fun (n, rng) ->
        let g = G.Builders.cycle n in
        let inputs = Leader.random_ids rng g in
        let sc =
          {
            Stabilization.params = Transformer.params Leader.algo;
            graph = g;
            inputs;
          }
        in
        let hist = Stabilization.history sc in
        let t = hist.Sync_runner.t in
        let b = t + 2 in
        let s = Sync_runner.max_state_bits Leader.algo hist in
        (n, g, inputs, b, s))
      (Rng.split_per rng [ 8; 16; 32; 64 ])
  in
  Measure.table
    [
      "n"; "B"; "moves"; "messages"; "full-bits"; "delta-bits"; "ratio";
      "predicted"; "hb-bits";
    ]
    (List.concat_map
       (fun (n, g, inputs, b, s) ->
         List.map
           (fun seed () ->
             let params = Transformer.params ~bound:(P.Finite b) Leader.algo in
             let rng' = Rng.create seed in
             let start =
               Transformer.corrupt (Rng.split rng') ~max_height:b params
                 (Transformer.clean_config params g ~inputs)
             in
             let daemon = Daemon.distributed_random (Rng.split rng') ~p:0.5 in
             let sink, cost = Energy.sink params g in
             let cost =
               cost (Transformer.run ~sinks:[ sink ] params daemon start)
             in
             let ratio =
               float_of_int cost.Energy.bits_full_state
               /. float_of_int (max 1 cost.Energy.bits_delta)
             in
             let predicted =
               float_of_int (b * s) /. float_of_int (s + Util.bit_width b)
             in
             [
               Table.I n;
               Table.I b;
               Table.I cost.Energy.moves;
               Table.I cost.Energy.messages;
               Table.I cost.Energy.bits_full_state;
               Table.I cost.Energy.bits_delta;
               Table.S (Printf.sprintf "%.1f" ratio);
               Table.S (Printf.sprintf "%.1f" predicted);
               Table.I cost.Energy.heartbeat_bits;
             ])
           seeds)
       contexts)
