module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module G = Ss_graph
module Transformer = Ss_core.Registry.Trans
module Checker = Ss_core.Checker
module M = Ss_msgnet.Msgnet
module Leader = Ss_algos.Leader_election
module Sync_runner = Ss_sync.Sync_runner

let rows ~seeds rng =
  let workloads =
    [
      ("ring", G.Builders.cycle 8);
      ("ring", G.Builders.cycle 16);
      ("ring", G.Builders.cycle 32);
      ("random", G.Builders.random_connected (Rng.split rng) ~n:16 ~extra_edges:8);
      ("random", G.Builders.random_connected (Rng.split rng) ~n:32 ~extra_edges:16);
    ]
  in
  (* Per-workload setup consumes the parent stream sequentially (one
     split per workload, as ever); every (workload × encoding) row then
     draws only from [Rng.create (seed * 101)] and owns its protocol
     state. *)
  let contexts =
    List.map
      (fun ((name, g), rng) ->
        let inputs = Leader.random_ids rng g in
        let params = Transformer.params Leader.algo in
        let hist = Sync_runner.run Leader.algo g ~inputs in
        (name, g, inputs, params, hist))
      (Rng.split_per rng workloads)
  in
  let run_seed (name, g, inputs, params, hist) (enc_name, encoding) seed =
    let seed_rng = Rng.create (seed * 101) in
    let start =
      Transformer.corrupt (Rng.split seed_rng)
        ~max_height:(hist.Sync_runner.t + 4)
        params
        (Transformer.clean_config params g ~inputs)
    in
    (* Leader's codec switches the proof pre-images to the packed
       encoder; the infinite bound keeps the mirrors boxed, so the
       traffic columns are unchanged. *)
    let final, stats =
      M.run ~codec:Leader.codec ~encoding ~rng:seed_rng params start
    in
    [
      Table.S name;
      Table.I (G.Graph.n g);
      Table.S enc_name;
      Table.I stats.M.rule_executions;
      Table.I stats.M.deliveries;
      Table.I stats.M.update_bits;
      Table.I stats.M.proof_bits;
      Table.I
        (stats.M.request_messages * Ss_energy.Energy.request_message_bits);
      Table.I stats.M.full_copy_bits;
      Table.I (M.total_bits stats);
      Table.I stats.M.stale_proof_messages;
      Table.I stats.M.peak_queued_bits;
      Table.I stats.M.mirror_bytes;
      Measure.ok_cell
        (stats.M.quiescent
        && Checker.legitimate_terminal params hist final = Ok ());
    ]
  in
  (* total-bits = update-bits + proof-bits + request-bits + repair-bits
     (the shared Ss_energy.Energy accounting: proofs cost hash + nonce,
     requests cost Energy.request_message_bits each).  "stale" counts
     proofs from superseded waves dropped without comparison. *)
  (* wire-peak-bits is the high-water mark of in-flight bits across all
     channels; mirror-bytes the resident bytes behind the 2m mirrors —
     the two wire-memory figures a deployment provisions against. *)
  Measure.table
    [
      "graph"; "n"; "encoding"; "execs"; "deliveries"; "update-bits";
      "proof-bits"; "request-bits"; "repair-bits"; "total-bits"; "stale";
      "wire-peak-bits"; "mirror-bytes"; "ok";
    ]
    (List.concat_map
       (fun ctx ->
         List.map
           (fun enc () -> Measure.worst (List.map (run_seed ctx enc) seeds))
           [ ("full", M.Full_state); ("delta", M.Delta) ])
       contexts)
