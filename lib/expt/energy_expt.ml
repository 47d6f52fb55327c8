module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util
module G = Ss_graph
module Daemon = Ss_sim.Daemon
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module Energy = Ss_energy.Energy
module Stabilization = Ss_verify.Stabilization
module Sync_runner = Ss_sync.Sync_runner

let rows ~seeds rng =
  (* One row per (n, seed): the per-n instance (graph, ids, ground
     truth, B = T + 2) is built sequentially — consuming the parent
     stream in the historical order — then each (n × seed) row draws
     only from [Rng.create seed]. *)
  let instances =
    List.map
      (fun (n, rng) ->
        let g = G.Builders.cycle n in
        Catalog.instance
          { Catalog.mode = P.Lazy; bound = Catalog.Of_t (fun t -> t + 2) }
          (Catalog.instantiate "leader" rng g)
          g)
      (Rng.split_per rng [ 8; 16; 32; 64 ])
  in
  Measure.table
    [
      "n"; "B"; "moves"; "messages"; "full-bits"; "delta-bits"; "ratio";
      "predicted"; "hb-bits";
    ]
    (List.concat_map
       (fun inst ->
         List.map
           (fun seed () ->
             let (Catalog.Instance
                   { sc = { params; graph; _ } as sc; hist; _ }) =
               inst
             in
             let b = P.bound_to_int params.P.bound
             and s = Sync_runner.max_state_bits params.P.sync hist in
             let rng' = Rng.create seed in
             let start =
               Stabilization.corrupted_start (Rng.split rng') ~max_height:b sc
             in
             let daemon = Daemon.distributed_random (Rng.split rng') ~p:0.5 in
             let sink, cost = Energy.sink params graph in
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
               Table.I (G.Graph.n graph);
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
       instances)
