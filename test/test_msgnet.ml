(* Tests for the message-passing realization of the transformer (§6):
   convergence to verified quiescence with corrupted states AND
   corrupted mirrors, traffic accounting, and the full-state vs delta
   encoding comparison. *)

module Builders = Ss_graph.Builders
module Graph = Ss_graph.Graph
module Sync_runner = Ss_sync.Sync_runner
module Core = Ss_core
module Transformer = Ss_core.Transformer
module Checker = Ss_core.Checker
module M = Ss_msgnet.Msgnet
module Proof = Ss_msgnet.Proof
module Leader = Ss_algos.Leader_election
module Min_flood = Ss_algos.Min_flood
module Rng = Ss_prelude.Rng
module Budget = Ss_report.Budget

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let setting seed =
  let rng = Rng.create seed in
  let g =
    Builders.random_connected rng ~n:(4 + Rng.int rng 8) ~extra_edges:3
  in
  let inputs = Leader.random_ids rng g in
  let params = Transformer.params Leader.algo in
  let hist = Sync_runner.run Leader.algo g ~inputs in
  let start =
    Transformer.corrupt rng
      ~max_height:(hist.Sync_runner.t + 4)
      params
      (Transformer.clean_config params g ~inputs)
  in
  (rng, g, inputs, params, hist, start)

let test_wire_canonicalization () =
  (* Two logically equal states built by different operation sequences
     must encode to the same bytes (and hence the same proof hash and
     the same measured bits): the backing buffer's spare capacity,
     version stamps and sharing never reach the wire. *)
  let module St = Core.Trans_state in
  let module Energy = Ss_energy.Energy in
  let direct = St.make ~init:5 ~status:St.C ~cells:[| 4; 3; 2 |] in
  let grown =
    (* Build by extension (with a detour that exercises truncation and
       a status round-trip), leaving spare capacity behind. *)
    let s = St.clean 5 in
    let s = St.extend s 4 in
    let s = St.extend s 9 in
    let s = St.truncate s 1 in
    let s = St.extend s 3 in
    let s = St.extend s 2 in
    St.with_status (St.with_status s St.E) St.C
  in
  check "logically equal" true (St.equal Int.equal direct grown);
  check "stamps differ (different constructions)" true
    (St.stamp direct <> St.stamp grown);
  Alcotest.(check string)
    "identical wire encodings"
    (Proof.canonical_bytes direct) (Proof.canonical_bytes grown);
  check "identical proof hashes" true
    (Energy.state_proof ~nonce:7L (Proof.canonical_bytes direct)
    = Energy.state_proof ~nonce:7L (Proof.canonical_bytes grown));
  check_int "identical measured bits"
    (Energy.full_state_bits Min_flood.algo direct)
    (Energy.full_state_bits Min_flood.algo grown);
  (* And a branch that shares the buffer with [direct] but differs
     logically must encode differently. *)
  check "different states, different bytes" true
    (Proof.canonical_bytes (St.truncate direct 2)
    <> Proof.canonical_bytes direct)

let test_clean_start_full_encoding () =
  let g = Builders.cycle 6 in
  let inputs p = p + 3 in
  let params = Transformer.params Min_flood.algo in
  let hist = Sync_runner.run Min_flood.algo g ~inputs in
  let rng = Rng.create 1 in
  let final, stats =
    M.run ~encoding:M.Full_state ~rng ~corrupt_mirrors:false params
      (Transformer.clean_config params g ~inputs)
  in
  check "quiescent" true stats.M.quiescent;
  check "legitimate" true
    (Checker.legitimate_terminal params hist final = Ok ());
  (* Accurate mirrors + full-state updates: proofs never mismatch. *)
  check_int "no repair requests" 0 stats.M.request_messages;
  check_int "no full copies" 0 stats.M.full_copy_messages;
  (* On a ring every node has degree 2: each execution broadcasts 2
     updates. *)
  check_int "updates = 2 * executions" (2 * stats.M.rule_executions)
    stats.M.update_messages

let test_corrupted_mirrors_are_repaired () =
  let _, g, inputs, params, hist, start = setting 5 in
  ignore g;
  ignore inputs;
  let rng = Rng.create 50 in
  let final, stats = M.run ~encoding:M.Delta ~rng params start in
  check "quiescent" true stats.M.quiescent;
  check "legitimate" true
    (Checker.legitimate_terminal params hist final = Ok ());
  check "at least one proof wave ran" true (stats.M.proof_waves >= 1)

let test_convergence_matrix () =
  for seed = 1 to 12 do
    let _, g, inputs, params, hist, start = setting seed in
    List.iter
      (fun encoding ->
        let rng = Rng.create (seed + 100) in
        let final, stats = M.run ~encoding ~rng params start in
        check (Printf.sprintf "seed %d quiescent" seed) true stats.M.quiescent;
        check
          (Printf.sprintf "seed %d legitimate" seed)
          true
          (Checker.legitimate_terminal params hist final = Ok ());
        check
          (Printf.sprintf "seed %d spec" seed)
          true
          (Leader.spec_holds g ~inputs ~final:(Transformer.outputs final)))
      [ M.Full_state; M.Delta ]
  done

let test_delta_encoding_is_cheaper_per_update () =
  (* Same seed, both encodings: delta must spend fewer bits per update
     message on average. *)
  let _, _, _, params, _, start = setting 9 in
  let run encoding =
    let rng = Rng.create 77 in
    let _, stats = M.run ~encoding ~rng params start in
    stats
  in
  let full = run M.Full_state and delta = run M.Delta in
  let per_update s =
    float_of_int s.M.update_bits /. float_of_int (max 1 s.M.update_messages)
  in
  check "delta cheaper per update" true (per_update delta < per_update full)

let test_stats_consistency () =
  let _, _, _, params, _, start = setting 3 in
  let rng = Rng.create 42 in
  let _, stats = M.run ~rng params start in
  check "deliveries cover updates + proofs" true
    (stats.M.deliveries
    >= stats.M.update_messages + stats.M.request_messages
       + stats.M.full_copy_messages);
  check "total bits positive" true (M.total_bits stats > 0);
  check "full copies answer requests" true
    (stats.M.full_copy_messages <= stats.M.request_messages);
  check "proof bits = 128 * proof messages" true
    (stats.M.proof_bits = 128 * stats.M.proof_messages)

let test_heartbeat_period_controls_proof_traffic () =
  let _, _, _, params, _, start = setting 4 in
  let run every =
    let rng = Rng.create 11 in
    let _, stats = M.run ~heartbeat_every:every ~rng params start in
    stats
  in
  let fast = run 50 and slow = run 5000 in
  check "faster heartbeat, at least as many proofs" true
    (fast.M.proof_messages >= slow.M.proof_messages);
  check "both quiescent" true (fast.M.quiescent && slow.M.quiescent)

let test_event_budget_reported () =
  let _, _, _, params, _, start = setting 6 in
  let rng = Rng.create 13 in
  let _, stats = M.run ~max_events:3 ~rng params start in
  check "budget exhaustion reported" false stats.M.quiescent

let test_stale_proofs_dropped_without_spurious_traffic () =
  (* Regression for the stale-proof bug.  Start from the engine's
     terminal configuration with accurate mirrors and force perpetual
     wave overlap: a heartbeat period shorter than the 2m proof
     messages each wave enqueues means every wave is superseded before
     it fully drains.  The superseded proofs must be counted and
     dropped — never compared against a mirror the next wave is
     already re-verifying — so no Request or Full_copy traffic can
     appear even though the network never goes quiet. *)
  let g = Builders.cycle 6 in
  let inputs p = p + 3 in
  let params = Transformer.params Min_flood.algo in
  let stats =
    Transformer.run params Ss_sim.Daemon.synchronous
      (Transformer.clean_config params g ~inputs)
  in
  check "engine reached terminal" true stats.Ss_sim.Engine.terminated;
  let terminal = stats.Ss_sim.Engine.final in
  let m = Graph.m g in
  let rng = Rng.create 71 in
  let _, s =
    M.run ~heartbeat_every:m ~max_events:4_000 ~rng ~corrupt_mirrors:false
      params terminal
  in
  check "waves overlap: stale proofs observed" true
    (s.M.stale_proof_messages > 0);
  check_int "stale proofs raise no requests" 0 s.M.request_messages;
  check_int "stale proofs trigger no full copies" 0 s.M.full_copy_messages;
  (* Waves refill faster than they drain, so the run exhausts its
     event budget instead of declaring quiescence — by design. *)
  check "budget exhausted under perpetual overlap" false s.M.quiescent

let test_stale_proofs_during_recovery () =
  (* Wave overlap during an actual recovery: a heartbeat period just
     above one wave's worth of proofs makes superseded proofs common
     while repair traffic is still in flight, yet every run must still
     reach verified quiescence and a legitimate terminal state. *)
  let total_stale = ref 0 in
  List.iter
    (fun seed ->
      let _, g, _, params, hist, start = setting seed in
      let rng = Rng.create (900 + seed) in
      let final, s =
        M.run ~heartbeat_every:((2 * Graph.m g) + 2) ~rng params start
      in
      check (Printf.sprintf "seed %d quiescent" seed) true s.M.quiescent;
      check
        (Printf.sprintf "seed %d legitimate" seed)
        true
        (Checker.legitimate_terminal params hist final = Ok ());
      total_stale := !total_stale + s.M.stale_proof_messages)
    [ 1; 2; 3; 4; 5; 6 ];
  check "overlapping waves produced stale proofs" true (!total_stale > 0)

let test_bfs_over_message_passing () =
  (* The protocol is algorithm-generic: BFS trees converge too. *)
  let rng = Rng.create 19 in
  let g = Builders.random_connected rng ~n:10 ~extra_edges:4 in
  let root = 0 in
  let inputs = Ss_algos.Bfs_tree.inputs g ~root in
  let params = Transformer.params Ss_algos.Bfs_tree.algo in
  let hist = Sync_runner.run Ss_algos.Bfs_tree.algo g ~inputs in
  let start =
    Transformer.corrupt rng
      ~max_height:(hist.Sync_runner.t + 4)
      params
      (Transformer.clean_config params g ~inputs)
  in
  let final, stats = M.run ~rng params start in
  check "quiescent" true stats.M.quiescent;
  check "legitimate" true (Checker.legitimate_terminal params hist final = Ok ());
  check "BFS spec" true
    (Ss_algos.Bfs_tree.spec_holds g ~root
       ~final:(Transformer.outputs final))

let test_greedy_cv_over_message_passing () =
  let rng = Rng.create 23 in
  let n = 9 and width = 6 in
  let g = Builders.cycle n in
  let ids = Ss_algos.Cole_vishkin.random_ring_ids rng ~n ~width in
  let inputs = Ss_algos.Cole_vishkin.inputs ~ids ~width g in
  let b = Ss_algos.Cole_vishkin.schedule_length width in
  let params =
    Transformer.params ~mode:Ss_core.Predicates.Greedy
      ~bound:(Ss_core.Predicates.Finite b)
      Ss_algos.Cole_vishkin.algo
  in
  let hist = Sync_runner.run Ss_algos.Cole_vishkin.algo g ~inputs in
  let start =
    Transformer.corrupt rng ~max_height:b params
      (Transformer.clean_config params g ~inputs)
  in
  let final, stats = M.run ~encoding:M.Delta ~rng params start in
  check "quiescent" true stats.M.quiescent;
  check "legitimate" true (Checker.legitimate_terminal params hist final = Ok ());
  check "proper 3-coloring" true
    (Ss_algos.Cole_vishkin.spec_holds g ~final:(Transformer.outputs final))

(* ------------------------------------------------------------------ *)
(* Ringbuf: the flat channel storage (DESIGN.md §15)                    *)
(* ------------------------------------------------------------------ *)

module Ringbuf = Ss_msgnet.Ringbuf

let test_ringbuf_fifo_growth () =
  let r = Ringbuf.create () in
  let record i = Array.init (1 + (i mod 5)) (fun j -> (i * 31) + j) in
  for i = 0 to 199 do
    let src = record i in
    Ringbuf.push r src (Array.length src)
  done;
  check_int "records queued" 200 (Ringbuf.records r);
  let dst = Array.make 8 0 in
  for i = 0 to 199 do
    let expect = record i in
    let len = Ringbuf.pop r dst in
    check_int (Printf.sprintf "record %d length" i) (Array.length expect) len;
    check (Printf.sprintf "record %d payload" i) true
      (Array.sub dst 0 len = expect)
  done;
  check "drained" true (Ringbuf.is_empty r)

let test_ringbuf_wraparound () =
  (* Interleaved push/pop walks the head around the circular array many
     times at near-constant occupancy, crossing the wrap point without
     triggering growth. *)
  let r = Ringbuf.create () in
  let dst = Array.make 4 0 in
  let next_push = ref 0 and next_pop = ref 0 in
  let push () =
    let i = !next_push in
    incr next_push;
    Ringbuf.push r [| i; i + 1 |] 2
  in
  let pop () =
    let i = !next_pop in
    incr next_pop;
    let len = Ringbuf.pop r dst in
    check_int "wrap length" 2 len;
    check "wrap payload" true (dst.(0) = i && dst.(1) = i + 1)
  in
  push ();
  for _ = 1 to 500 do
    push ();
    pop ()
  done;
  pop ();
  check "empty after interleave" true (Ringbuf.is_empty r);
  check_int "no words left" 0 (Ringbuf.words r)

let test_ringbuf_peek_and_validation () =
  let r = Ringbuf.create () in
  Ringbuf.push r [| 7; 8 |] 2;
  let dst = Array.make 2 0 in
  check_int "peek length" 2 (Ringbuf.peek r dst);
  check_int "peek leaves the record" 1 (Ringbuf.records r);
  check_int "pop length" 2 (Ringbuf.pop r dst);
  check "peek saw the pop's payload" true (dst.(0) = 7 && dst.(1) = 8);
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check "negative length rejected" true
    (raises (fun () -> Ringbuf.push r [| 1 |] (-1)));
  check "length past the source rejected" true
    (raises (fun () -> Ringbuf.push r [| 1 |] 2));
  check "peek on empty rejected" true (raises (fun () -> Ringbuf.peek r dst))

(* ------------------------------------------------------------------ *)
(* Degenerate topologies: n = 0, n = 1, edgeless                        *)
(* ------------------------------------------------------------------ *)

let test_empty_graph () =
  (* Zero nodes, zero channels: both loops must declare quiescence on
     the first probe wave instead of dividing by a zero channel count
     or indexing an empty arena. *)
  let g = Graph.of_adjacency [||] in
  let params = Transformer.params Min_flood.algo in
  let inputs _ = 0 in
  let config = Transformer.clean_config params g ~inputs in
  let _, stats = M.run ~rng:(Rng.create 1) params config in
  check "n = 0 quiescent" true stats.M.quiescent;
  check_int "n = 0 delivers nothing" 0 stats.M.deliveries;
  check_int "n = 0 peak wire load" 0 stats.M.peak_queued_bits;
  let _, nstats = M.run_naive ~rng:(Rng.create 1) params config in
  check "naive n = 0 quiescent" true nstats.M.quiescent

let test_heartbeat_validation () =
  (* A period below one event used to reach [events mod 0] at the first
     event; both loops now reject it before they start, so neither the
     clock nor a sink is ever touched. *)
  let params = Transformer.params Min_flood.algo in
  let reads = ref 0 and events = ref 0 in
  let now () = incr reads; 0. in
  let budget = Budget.v ~deadline_s:10. () in
  let rejected run =
    match run () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  List.iter
    (fun (name, g) ->
      let config = Transformer.clean_config params g ~inputs:(fun p -> p) in
      let sinks = [ (fun _ -> incr events) ] in
      List.iter
        (fun h ->
          let m = Printf.sprintf "%s, heartbeat_every = %d" name h in
          check (m ^ ": run rejects") true
            (rejected (fun () ->
                 M.run ~heartbeat_every:h ~budget ~now ~sinks
                   ~rng:(Rng.create 1) params config));
          check (m ^ ": run_naive rejects") true
            (rejected (fun () ->
                 M.run_naive ~heartbeat_every:h ~budget ~now ~sinks
                   ~rng:(Rng.create 1) params config)))
        [ 0; -1 ])
    [ ("empty", Graph.of_adjacency [||]); ("ring", Builders.cycle 4) ];
  check_int "clock never read" 0 !reads;
  check_int "no sink event" 0 !events

let test_singleton_and_edgeless () =
  let params = Transformer.params Min_flood.algo in
  List.iter
    (fun (name, g) ->
      let inputs p = (p * 13 mod 7) + 1 in
      let hist = Sync_runner.run Min_flood.algo g ~inputs in
      let rng = Rng.create 7 in
      let start =
        Transformer.corrupt rng
          ~max_height:(hist.Sync_runner.t + 4)
          params
          (Transformer.clean_config params g ~inputs)
      in
      let final, stats = M.run ~rng params start in
      check (name ^ " quiescent") true stats.M.quiescent;
      check (name ^ " legitimate") true
        (Checker.legitimate_terminal params hist final = Ok ());
      (* No links: no update, proof, or repair message can ever exist. *)
      check_int (name ^ " sends nothing") 0
        (stats.M.update_messages + stats.M.proof_messages
        + stats.M.request_messages + stats.M.full_copy_messages);
      (* The heartbeat timer must be harmless with zero channels even
         at its tightest legal period. *)
      let _, hb = M.run ~heartbeat_every:1 ~rng:(Rng.create 8) params start in
      check (name ^ " tight heartbeat still quiescent") true hb.M.quiescent;
      let nfinal, nstats = M.run_naive ~rng:(Rng.create 9) params start in
      check (name ^ " naive twin quiescent") true nstats.M.quiescent;
      check (name ^ " naive twin agrees") true
        (Transformer.outputs nfinal = Transformer.outputs final))
    [
      ("singleton", Graph.of_adjacency [| [||] |]);
      ("edgeless-4", Graph.of_adjacency (Array.init 4 (fun _ -> [||])));
    ]

(* ------------------------------------------------------------------ *)
(* Codec proof pre-images (DESIGN.md §15)                               *)
(* ------------------------------------------------------------------ *)

module St = Core.Trans_state
module Cellpack = Ss_core.Cellpack
module Cv = Ss_algos.Cole_vishkin

let cv_cell k = { Cv.color = k land 0xFF; round = (k lsr 8) land 0xF }

let cv_equal a b = a.Cv.color = b.Cv.color && a.Cv.round = b.Cv.round

(* Interpret an op list as a build history.  Decisions depend only on
   the logical height, so the same list drives a boxed and an
   arena-backed replica through identical logical histories. *)
let apply_op ~cap st op =
  let op = abs op in
  match op mod 4 with
  | 0 ->
      if St.height st >= cap then St.truncate st (St.height st / 2)
      else St.extend st (cv_cell (op / 4))
  | 1 -> St.truncate st (op / 4 mod (St.height st + 1))
  | 2 -> St.with_status st (if op land 4 = 0 then St.C else St.E)
  | _ -> St.wipe st

let apply_ops ~cap st ops = List.fold_left (apply_op ~cap) st ops

let codec_qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:300
      ~name:"codec bytes agree with the Marshal reference on equality"
      (pair (small_list small_int) (small_list small_int))
      (fun (ops_a, ops_b) ->
        let cap = 12 in
        let init = cv_cell 3 in
        let build ops =
          apply_ops ~cap (St.make ~init ~status:St.C ~cells:[||]) ops
        in
        let a = build ops_a and b = build ops_b in
        let ca = Proof.codec_bytes Cv.codec a
        and cb = Proof.codec_bytes Cv.codec b in
        let agree_with_marshal =
          ca = cb = (Proof.canonical_bytes a = Proof.canonical_bytes b)
        in
        let agree_with_equality = ca = cb = St.equal cv_equal a b in
        (* An arena-backed replica of the same history encodes to the
           same bytes as its boxed twin (aliasing/extension/truncation
           idiosyncrasies of either backend never reach the wire). *)
        let arena = Cellpack.arena ~codec:Cv.codec ~n:1 ~cap:(cap + 4) in
        let packed =
          apply_ops ~cap
            (St.rebuild
               (St.packed_clean arena ~node:0 ~init)
               ~status:St.C ~cells:[||])
            ops_a
        in
        agree_with_marshal && agree_with_equality
        && Proof.codec_bytes Cv.codec packed = ca);
  ]

let test_codec_run_differential_cv () =
  (* Cole-Vishkin has a codec and a finite bound, so [`Auto] packs the
     mirrors.  Same rng, same schedule: serialization is off the draw
     path and the codec encoding is equality-equivalent to Marshal, so
     the codec run's stats must be *identical* to the Marshal run's —
     except [mirror_bytes], which measures the different backing. *)
  List.iter
    (fun seed ->
      let rng0 = Rng.create (23 + seed) in
      let n = 9 and width = 6 in
      let g = Builders.cycle n in
      let ids = Cv.random_ring_ids rng0 ~n ~width in
      let inputs = Cv.inputs ~ids ~width g in
      let b = Cv.schedule_length width in
      let params =
        Transformer.params ~mode:Ss_core.Predicates.Greedy
          ~bound:(Ss_core.Predicates.Finite b)
          Cv.algo
      in
      let hist = Sync_runner.run Cv.algo g ~inputs in
      let start =
        Transformer.corrupt rng0 ~max_height:b params
          (Transformer.clean_config params g ~inputs)
      in
      let run codec layout =
        M.run ?codec ?layout ~rng:(Rng.create ((seed * 7) + 1)) params start
      in
      let final_m, sm = run None None in
      let final_c, sc = run (Some Cv.codec) None in
      let final_b, sb = run (Some Cv.codec) (Some `Boxed) in
      let m = Printf.sprintf "cv seed %d" seed in
      check (m ^ ": codec run quiescent") true sc.M.quiescent;
      check (m ^ ": codec stats identical modulo mirror bytes") true
        ({ sc with M.mirror_bytes = 0 } = { sm with M.mirror_bytes = 0 });
      check (m ^ ": boxed-layout codec stats identical") true
        ({ sb with M.mirror_bytes = 0 } = { sm with M.mirror_bytes = 0 });
      check (m ^ ": same outputs across encodings") true
        (Transformer.outputs final_c = Transformer.outputs final_m
        && Transformer.outputs final_b = Transformer.outputs final_m);
      check (m ^ ": legitimate") true
        (Checker.legitimate_terminal params hist final_c = Ok ());
      (* The naive twin draws differently (different interleaving) but
         must land on the same terminal states. *)
      let final_n, sn =
        M.run_naive ~rng:(Rng.create ((seed * 7) + 1)) params start
      in
      check (m ^ ": naive twin agrees") true
        (sn.M.quiescent
        && Transformer.outputs final_n = Transformer.outputs final_c))
    [ 1; 2; 3 ]

let test_codec_run_differential_infinite_bound () =
  (* Leader election and BFS export codecs but run under an infinite
     bound: [`Auto] keeps mirrors boxed while the codec still replaces
     every proof pre-image.  Here even [mirror_bytes] must match. *)
  List.iter
    (fun seed ->
      (* leader *)
      let _, _, _, params, hist, start = setting seed in
      let run codec =
        M.run ?codec ~rng:(Rng.create ((seed * 31) + 5)) params start
      in
      let final_m, sm = run None in
      let final_c, sc = run (Some Leader.codec) in
      let m = Printf.sprintf "leader seed %d" seed in
      check (m ^ ": stats fully identical") true (sc = sm);
      check (m ^ ": outputs equal") true
        (Transformer.outputs final_c = Transformer.outputs final_m);
      check (m ^ ": legitimate") true
        (Checker.legitimate_terminal params hist final_c = Ok ());
      (* bfs *)
      let rng = Rng.create (19 + seed) in
      let g = Builders.random_connected rng ~n:10 ~extra_edges:4 in
      let inputs = Ss_algos.Bfs_tree.inputs g ~root:0 in
      let bparams = Transformer.params Ss_algos.Bfs_tree.algo in
      let bhist = Sync_runner.run Ss_algos.Bfs_tree.algo g ~inputs in
      let bstart =
        Transformer.corrupt rng
          ~max_height:(bhist.Sync_runner.t + 4)
          bparams
          (Transformer.clean_config bparams g ~inputs)
      in
      let brun codec =
        M.run ?codec ~rng:(Rng.create ((seed * 31) + 6)) bparams bstart
      in
      let bfinal_m, bsm = brun None in
      let bfinal_c, bsc = brun (Some Ss_algos.Bfs_tree.codec) in
      let m = Printf.sprintf "bfs seed %d" seed in
      check (m ^ ": stats fully identical") true (bsc = bsm);
      check (m ^ ": outputs equal") true
        (Transformer.outputs bfinal_c = Transformer.outputs bfinal_m))
    [ 1; 2; 3 ]

let test_packed_layout_validation () =
  let _, _, _, params, _, start = setting 2 in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  (* leader runs under an infinite bound and here without a codec *)
  check "packed layout without a codec rejected" true
    (raises (fun () ->
         M.run ~layout:`Packed ~rng:(Rng.create 1) params start));
  check "packed layout with an infinite bound rejected" true
    (raises (fun () ->
         M.run ~layout:`Packed ~codec:Leader.codec ~rng:(Rng.create 1) params
           start))

(* ------------------------------------------------------------------ *)
(* Proof layer: incremental digests (DESIGN.md §15)                     *)
(* ------------------------------------------------------------------ *)

(* A digest no memo can have shaped: a fresh layer's first proof. *)
let fresh_digest st = Proof.digest (Proof.incremental Cv.codec ~slots:1) 0 st

(* [apply_op] plus [rebuild], the fault-injection constructor that
   rewrites a whole list under a fresh lineage. *)
let proof_op ~cap st op =
  if op mod 5 = 4 then
    St.rebuild st
      ~status:(if op land 32 = 0 then St.C else St.E)
      ~cells:(Array.init (op / 5 mod (cap + 1)) (fun i -> cv_cell (op + i)))
  else apply_op ~cap st op

(* The B = ∞ mirror discipline: catch up with the owner by re-adopting
   its physical cells, so the two share the owner's buffer while their
   histories agree; truncate first when the owner shrank. *)
let follow mirror owner =
  let h = St.height owner in
  let m = if St.height mirror > h then St.truncate mirror h else mirror in
  let rec catch_up m =
    if St.height m >= h then m
    else catch_up (St.extend m (St.cell owner (St.height m + 1)))
  in
  St.with_status (catch_up m) (St.status owner)

let proof_qcheck_tests =
  let open QCheck in
  let cap = 12 and init = cv_cell 3 in
  let empty () = St.make ~init ~status:St.C ~cells:[||] in
  [
    Test.make ~count:300
      ~name:"incremental digest equals a from-scratch digest after every op"
      (small_list (int_bound 10_000))
      (fun ops ->
        (* Four slots of one layer: a boxed history, its arena-backed
           replica, and an owner/mirror pair sharing one boxed lineage
           (the mirror lags behind on every other op). *)
        let layer = Proof.incremental Cv.codec ~slots:4 in
        let arena = Cellpack.arena ~codec:Cv.codec ~n:1 ~cap:(cap + 4) in
        let packed =
          St.rebuild (St.packed_clean arena ~node:0 ~init) ~status:St.C ~cells:[||]
        in
        let ok = ref true in
        let prove slot st =
          let d = Proof.digest layer slot st in
          if d <> fresh_digest st then ok := false;
          d
        in
        let start = empty () in
        ignore
          (List.fold_left
             (fun (boxed, packed, owner, mirror) op ->
               let boxed = proof_op ~cap boxed op in
               let packed = proof_op ~cap packed op in
               let owner = proof_op ~cap owner op in
               let mirror = if op land 8 = 0 then follow mirror owner else mirror in
               if prove 0 boxed <> prove 1 packed then ok := false;
               if (prove 2 owner = prove 3 mirror) <> St.equal cv_equal owner mirror
               then ok := false;
               (boxed, packed, owner, mirror))
             (start, packed, start, start) ops);
        !ok);
    Test.make ~count:300
      ~name:"digest equality agrees with canonical bytes and St.equal"
      (pair (small_list small_int) (small_list small_int))
      (fun (ops_a, ops_b) ->
        let layer = Proof.incremental Cv.codec ~slots:2 in
        let reference = Proof.reference ~slots:2 in
        let build slot ops =
          List.fold_left
            (fun st op ->
              let st = proof_op ~cap st op in
              ignore (Proof.digest layer slot st);
              st)
            (empty ()) ops
        in
        let a = build 0 ops_a and b = build 1 ops_b in
        let same = Proof.digest layer 0 a = Proof.digest layer 1 b in
        same = (Proof.canonical_bytes a = Proof.canonical_bytes b)
        && same = St.equal cv_equal a b
        && same = (Proof.digest reference 0 a = Proof.digest reference 1 b));
  ]

(* The three ways a lineage's history changes under a slot that has
   already folded it: each must refold, never resume from the stale
   prefix — on both backends. *)
let test_proof_no_stale_prefix () =
  let layer = Proof.incremental Cv.codec ~slots:1 in
  let prove st = Proof.digest layer 0 st in
  let agrees msg st = check msg true (prove st = fresh_digest st) in
  let cells k = Array.init 6 (fun i -> cv_cell (k + i)) in
  let grow st cs = Array.fold_left St.extend st cs in
  let s = grow (St.clean (cv_cell 3)) (cells 10) in
  agrees "full list" s;
  let d = grow (St.truncate s 3) (Array.sub (cells 50) 3 3) in
  agrees "truncate then diverge" d;
  check "a diverged list proves differently" true (prove d <> prove s);
  let w = grow (St.wipe d) (cells 90) in
  agrees "wipe then regrow" w;
  let r = St.rebuild w ~status:(St.status w) ~cells:(cells 130) in
  agrees "rebuild" r;
  agrees "the first list again" s;
  let arena = Cellpack.arena ~codec:Cv.codec ~n:1 ~cap:8 in
  let p = grow (St.packed_clean arena ~node:0 ~init:(cv_cell 3)) (cells 10) in
  agrees "packed list" p;
  check "packed and boxed twins prove alike" true (prove p = fresh_digest s);
  agrees "packed truncation resumes" (St.truncate p 4);
  let p = grow (St.truncate p 2) (Array.sub (cells 70) 2 4) in
  agrees "packed overwrite below the frontier" p;
  let p = St.rebuild p ~status:St.E ~cells:(cells 20) in
  agrees "packed rebuild" p;
  agrees "packed wipe then regrow" (grow (St.wipe p) (cells 40))

(* Words allocated by [f ()]: minor allocations plus direct major
   ones (promotions are counted once, on the minor side). *)
let allocated f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    s1.Gc.minor_words -. s0.Gc.minor_words
    +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words) )

(* Allocation tripwire for the event path: leader election on a ring
   of 64 (lists ~36 cells deep) with incremental codec digests
   allocates ~38 words per delivery.  It took ~125 while draws boxed
   their state, guards allocated closures and options, and a move
   rebuilt its message per neighbour; ~525 when every stamp miss
   re-encoded the list through a Buffer.  The ceiling sits just above
   the current level, so any of those regressions trips it. *)
let test_proof_allocation () =
  let n = 64 in
  let rng = Rng.create 7 in
  let g = Builders.cycle n in
  let inputs = Leader.random_ids rng g in
  let params = Transformer.params Leader.algo in
  let hist = Sync_runner.run Leader.algo g ~inputs in
  let start =
    Transformer.corrupt rng
      ~max_height:(hist.Sync_runner.t + 4)
      params
      (Transformer.clean_config params g ~inputs)
  in
  let (final, stats), words =
    allocated (fun () ->
        M.run ~codec:Leader.codec ~corrupt_mirrors:false ~rng:(Rng.create 8) params
          start)
  in
  check "quiescent" true stats.M.quiescent;
  check "legitimate" true (Checker.legitimate_terminal params hist final = Ok ());
  let per_delivery = words /. float_of_int stats.M.deliveries in
  check
    (Printf.sprintf "%.0f words per delivery < 45" per_delivery)
    true (per_delivery < 45.)

(* ------------------------------------------------------------------ *)
(* Golden pins: full stats plus sink event counts                       *)
(* ------------------------------------------------------------------ *)

(* Each pin fixes one run's every counter and the number of sink events
   of each kind.  Any change to the delivery schedule, the rng draw
   order, the wave protocol or the wire accounting moves a pin, so a
   refactor of the event loop that keeps them all is behaviour-neutral
   on these instances. *)

let kind_name = function
  | M.K_update -> "update"
  | M.K_proof -> "proof"
  | M.K_request -> "request"
  | M.K_full_copy -> "full_copy"

let counting_sink () =
  let counts = Hashtbl.create 16 in
  let bump key =
    Hashtbl.replace counts key
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  in
  let sink = function
    | M.Sent { kind; _ } -> bump ("sent/" ^ kind_name kind)
    | M.Delivered { kind; _ } -> bump ("delivered/" ^ kind_name kind)
    | M.Wave _ -> bump "wave"
    | M.Dropped { kind; _ } -> bump ("dropped/" ^ kind_name kind)
    | M.Duplicated { kind; _ } -> bump ("duplicated/" ^ kind_name kind)
    | M.Reordered _ -> bump "reordered"
    | M.Corrupted _ -> bump "corrupted"
  in
  let counts () =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
  in
  (sink, counts)

let stats_rows (s : M.stats) =
  [
    ("deliveries", s.M.deliveries);
    ("rule_executions", s.M.rule_executions);
    ("update_messages", s.M.update_messages);
    ("update_bits", s.M.update_bits);
    ("proof_messages", s.M.proof_messages);
    ("proof_bits", s.M.proof_bits);
    ("stale_proof_messages", s.M.stale_proof_messages);
    ("request_messages", s.M.request_messages);
    ("full_copy_messages", s.M.full_copy_messages);
    ("full_copy_bits", s.M.full_copy_bits);
    ("proof_waves", s.M.proof_waves);
    ("dropped_messages", s.M.dropped_messages);
    ("reordered_messages", s.M.reordered_messages);
    ("duplicated_messages", s.M.duplicated_messages);
    ("corruption_events", s.M.corruption_events);
    ("peak_queued_bits", s.M.peak_queued_bits);
    ("mirror_bytes", s.M.mirror_bytes);
    ("quiescent", Bool.to_int s.M.quiescent);
  ]

let stats_testable =
  Alcotest.testable
    (fun ppf s ->
      List.iter (fun (k, v) -> Fmt.pf ppf "%s=%d@ " k v) (stats_rows s);
      Fmt.string ppf (Budget.outcome_to_string s.M.outcome))
    ( = )

(* A packed Cole-Vishkin ring: codec, finite bound, packed mirrors. *)
let pin_cv () =
  let rng = Rng.create 29 in
  let n = 16 and width = 6 in
  let g = Builders.cycle n in
  let inputs = Cv.inputs ~ids:(Cv.random_ring_ids rng ~n ~width) ~width g in
  let b = Cv.schedule_length width in
  let params =
    Transformer.params ~mode:Ss_core.Predicates.Greedy
      ~bound:(Ss_core.Predicates.Finite b) Cv.algo
  in
  let start =
    Transformer.corrupt rng ~max_height:b params
      (Transformer.clean_config params g ~inputs)
  in
  (params, start)

(* Leader election on a ring under B = ∞: boxed mirrors, boxed D_ru. *)
let pin_leader n =
  let rng = Rng.create 31 in
  let g = Builders.cycle n in
  let inputs = Leader.random_ids rng g in
  let params = Transformer.params Leader.algo in
  let hist = Sync_runner.run Leader.algo g ~inputs in
  let max_height = hist.Sync_runner.t + 4 in
  let start =
    Transformer.corrupt rng ~max_height params
      (Transformer.clean_config params g ~inputs)
  in
  (params, inputs, max_height, start)

let golden_runs () =
  let pinned f =
    let sink, counts = counting_sink () in
    let _, stats = f [ sink ] in
    (stats, counts ())
  in
  let cv_params, cv_start = pin_cv () in
  let lp, _, _, lstart = pin_leader 16 in
  let cp, cinputs, cmax, cstart = pin_leader 32 in
  let chaos =
    {
      M.plan = Ss_chaos.Scenario.msgnet_plan Ss_chaos.Scenario.standard ~seed:6;
      mutate =
        (fun crng v st ->
          Transformer.corrupt_state crng ~max_height:cmax cp (cinputs v) st);
    }
  in
  [
    ( "run ~codec, cv ring",
      pinned (fun sinks ->
          M.run ~codec:Cv.codec ~sinks ~rng:(Rng.create 5) cv_params cv_start) );
    ( "run, leader ring",
      pinned (fun sinks -> M.run ~sinks ~rng:(Rng.create 6) lp lstart) );
    ( "run ~chaos, leader ring",
      pinned (fun sinks -> M.run ~chaos ~sinks ~rng:(Rng.create 7) cp cstart) );
    ( "run_naive, cv ring",
      pinned (fun sinks ->
          M.run_naive ~sinks ~rng:(Rng.create 5) cv_params cv_start) );
    ( "run_naive, leader ring",
      pinned (fun sinks -> M.run_naive ~sinks ~rng:(Rng.create 6) lp lstart) );
  ]

let golden_pins =
  [
    ( "run ~codec, cv ring",
      {
        M.deliveries = 530;
        rule_executions = 227;
        update_messages = 454;
        update_bits = 2142;
        proof_messages = 64;
        proof_bits = 8192;
        stale_proof_messages = 0;
        request_messages = 6;
        full_copy_messages = 6;
        full_copy_bits = 46;
        proof_waves = 2;
        dropped_messages = 0;
        reordered_messages = 0;
        duplicated_messages = 0;
        corruption_events = 0;
        peak_queued_bits = 4145;
        mirror_bytes = 5696;
        quiescent = true;
        outcome = Budget.Completed;
      },
      [
        ("delivered/full_copy", 6);
        ("delivered/proof", 64);
        ("delivered/request", 6);
        ("delivered/update", 454);
        ("sent/full_copy", 6);
        ("sent/proof", 64);
        ("sent/request", 6);
        ("sent/update", 454);
        ("wave", 2);
      ] );
    ( "run, leader ring",
      {
        M.deliveries = 452;
        rule_executions = 169;
        update_messages = 338;
        update_bits = 2640;
        proof_messages = 96;
        proof_bits = 12288;
        stale_proof_messages = 25;
        request_messages = 9;
        full_copy_messages = 9;
        full_copy_bits = 130;
        proof_waves = 3;
        dropped_messages = 0;
        reordered_messages = 0;
        duplicated_messages = 0;
        corruption_events = 0;
        peak_queued_bits = 7296;
        mirror_bytes = 5120;
        quiescent = true;
        outcome = Budget.Completed;
      },
      [
        ("delivered/full_copy", 9);
        ("delivered/proof", 96);
        ("delivered/request", 9);
        ("delivered/update", 338);
        ("sent/full_copy", 9);
        ("sent/proof", 96);
        ("sent/request", 9);
        ("sent/update", 338);
        ("wave", 3);
      ] );
    ( "run ~chaos, leader ring",
      {
        M.deliveries = 2920;
        rule_executions = 1120;
        update_messages = 2240;
        update_bits = 19724;
        proof_messages = 640;
        proof_bits = 81920;
        stale_proof_messages = 2;
        request_messages = 20;
        full_copy_messages = 20;
        full_copy_bits = 819;
        proof_waves = 10;
        dropped_messages = 4;
        reordered_messages = 2;
        duplicated_messages = 4;
        corruption_events = 2;
        peak_queued_bits = 8450;
        mirror_bytes = 16896;
        quiescent = true;
        outcome = Budget.Completed;
      },
      [
        ("corrupted", 2);
        ("delivered/full_copy", 20);
        ("delivered/proof", 641);
        ("delivered/request", 20);
        ("delivered/update", 2239);
        ("dropped/update", 4);
        ("duplicated/proof", 1);
        ("duplicated/update", 3);
        ("reordered", 2);
        ("sent/full_copy", 20);
        ("sent/proof", 640);
        ("sent/request", 20);
        ("sent/update", 2240);
        ("wave", 10);
      ] );
    ( "run_naive, cv ring",
      {
        M.deliveries = 568;
        rule_executions = 232;
        update_messages = 464;
        update_bits = 2170;
        proof_messages = 96;
        proof_bits = 12288;
        stale_proof_messages = 14;
        request_messages = 4;
        full_copy_messages = 4;
        full_copy_bits = 18;
        proof_waves = 3;
        dropped_messages = 0;
        reordered_messages = 0;
        duplicated_messages = 0;
        corruption_events = 0;
        peak_queued_bits = 5888;
        mirror_bytes = 4608;
        quiescent = true;
        outcome = Budget.Completed;
      },
      [
        ("delivered/full_copy", 4);
        ("delivered/proof", 96);
        ("delivered/request", 4);
        ("delivered/update", 464);
        ("sent/full_copy", 4);
        ("sent/proof", 96);
        ("sent/request", 4);
        ("sent/update", 464);
        ("wave", 3);
      ] );
    ( "run_naive, leader ring",
      {
        M.deliveries = 438;
        rule_executions = 162;
        update_messages = 324;
        update_bits = 2506;
        proof_messages = 96;
        proof_bits = 12288;
        stale_proof_messages = 10;
        request_messages = 9;
        full_copy_messages = 9;
        full_copy_bits = 143;
        proof_waves = 3;
        dropped_messages = 0;
        reordered_messages = 0;
        duplicated_messages = 0;
        corruption_events = 0;
        peak_queued_bits = 5376;
        mirror_bytes = 5120;
        quiescent = true;
        outcome = Budget.Completed;
      },
      [
        ("delivered/full_copy", 9);
        ("delivered/proof", 96);
        ("delivered/request", 9);
        ("delivered/update", 324);
        ("sent/full_copy", 9);
        ("sent/proof", 96);
        ("sent/request", 9);
        ("sent/update", 324);
        ("wave", 3);
      ] );
  ]

let test_golden () =
  List.iter2
    (fun (name, stats, counts) (name', (stats', counts')) ->
      Alcotest.(check string) "same instance" name name';
      Alcotest.check stats_testable (name ^ ": stats") stats stats';
      Alcotest.(check (list (pair string int)))
        (name ^ ": sink events") counts counts')
    golden_pins (golden_runs ())

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:40
      ~name:"message-passing realization reaches a legitimate terminal state"
      (int_range 1 100_000)
      (fun seed ->
        let _, g, inputs, params, hist, start = setting seed in
        let rng = Rng.create (seed * 13) in
        let encoding = if seed mod 2 = 0 then M.Full_state else M.Delta in
        let final, stats = M.run ~encoding ~rng params start in
        stats.M.quiescent
        && Checker.legitimate_terminal params hist final = Ok ()
        && Leader.spec_holds g ~inputs ~final:(Transformer.outputs final));
  ]

let () =
  Alcotest.run "msgnet"
    [
      ( "protocol",
        [
          Alcotest.test_case "wire canonicalization" `Quick
            test_wire_canonicalization;
          Alcotest.test_case "clean start, full encoding" `Quick
            test_clean_start_full_encoding;
          Alcotest.test_case "corrupted mirrors repaired" `Quick
            test_corrupted_mirrors_are_repaired;
          Alcotest.test_case "convergence matrix" `Quick test_convergence_matrix;
          Alcotest.test_case "delta cheaper per update" `Quick
            test_delta_encoding_is_cheaper_per_update;
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
          Alcotest.test_case "heartbeat period" `Quick
            test_heartbeat_period_controls_proof_traffic;
          Alcotest.test_case "event budget" `Quick test_event_budget_reported;
          Alcotest.test_case "stale proofs dropped" `Quick
            test_stale_proofs_dropped_without_spurious_traffic;
          Alcotest.test_case "stale proofs during recovery" `Quick
            test_stale_proofs_during_recovery;
          Alcotest.test_case "BFS over message passing" `Quick
            test_bfs_over_message_passing;
          Alcotest.test_case "greedy CV over message passing" `Quick
            test_greedy_cv_over_message_passing;
        ] );
      ( "ringbuf",
        [
          Alcotest.test_case "FIFO across growth" `Quick
            test_ringbuf_fifo_growth;
          Alcotest.test_case "wraparound" `Quick test_ringbuf_wraparound;
          Alcotest.test_case "peek and validation" `Quick
            test_ringbuf_peek_and_validation;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "heartbeat period validated" `Quick
            test_heartbeat_validation;
          Alcotest.test_case "singleton and edgeless" `Quick
            test_singleton_and_edgeless;
        ] );
      ( "codec",
        List.map QCheck_alcotest.to_alcotest codec_qcheck_tests
        @ [
            Alcotest.test_case "run differential: cv (packed)" `Quick
              test_codec_run_differential_cv;
            Alcotest.test_case "run differential: infinite bound" `Quick
              test_codec_run_differential_infinite_bound;
            Alcotest.test_case "packed layout validation" `Quick
              test_packed_layout_validation;
          ] );
      ( "proof",
        List.map QCheck_alcotest.to_alcotest proof_qcheck_tests
        @ [
            Alcotest.test_case "no stale prefix" `Quick test_proof_no_stale_prefix;
            Alcotest.test_case "allocation per delivery" `Quick
              test_proof_allocation;
          ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ("golden", [ Alcotest.test_case "stats and sink events" `Quick test_golden ]);
    ]
