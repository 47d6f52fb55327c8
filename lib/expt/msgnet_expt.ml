module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module G = Ss_graph
module Checker = Ss_core.Checker
module M = Ss_msgnet.Msgnet
module Stabilization = Ss_verify.Stabilization

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
  (* Per-workload instances consume the parent stream sequentially
     (one split per workload, as ever); every (workload × encoding) row
     then draws only from [Rng.create (seed * 101)] and owns its
     protocol state. *)
  let instances =
    List.map
      (fun ((name, g), rng) ->
        ( name,
          Catalog.instance Catalog.lazy_infinite
            (Catalog.instantiate "leader" rng g)
            g ))
      (Rng.split_per rng workloads)
  in
  let run_seed (name, inst) (enc_name, encoding) seed =
    let max_height = Catalog.max_height inst in
    let (Catalog.Instance { sc; hist; codec; _ }) = inst in
    let seed_rng = Rng.create (seed * 101) in
    let start =
      Stabilization.corrupted_start (Rng.split seed_rng) ~max_height sc
    in
    (* Leader's codec switches the proof pre-images to the packed
       encoder; the infinite bound keeps the mirrors boxed, so the
       traffic columns are unchanged. *)
    let final, stats =
      M.run ?codec ~encoding ~rng:seed_rng sc.params start
    in
    [
      Table.S name;
      Table.I (G.Graph.n sc.graph);
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
        && Checker.legitimate_terminal sc.params hist final = Ok ());
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
       (fun inst ->
         List.map
           (fun enc () -> Measure.worst (List.map (run_seed inst enc) seeds))
           [ ("full", M.Full_state); ("delta", M.Delta) ])
       instances)
