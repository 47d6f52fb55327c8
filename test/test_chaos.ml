(* The chaos harness's own test suite:

   1. Fault_plan unit + replay tests: validated constructors, the
      three-draws-per-consult discipline, the fault horizon, and the
      finite corruption schedule.
   2. Clock / Budget seam: deadlines measured on an injected virtual
      clock, not the wall.
   3. Fault validation (transient-fault layer): out-of-range
      probabilities and node ids are Invalid_argument; duplicated node
      lists cannot shift the draw sequence.
   4. Replay determinism: one seed, any [-j], byte-identical
      table JSON of the scenario grid (qcheck over seeds).  The
      two-process variant of this contract is the root @sim-chaos
      alias, which diffs two separate `fasst sim` invocations.
   5. The differential suite: leader / BFS / Cole-Vishkin through the
      `standard` scenario — quiescent, legitimate, outputs equal to
      the fault-free naive twin, with stale-proof and duplicate
      counters pinned per seed (any schedule or draw-discipline drift
      shows up as a counter diff before it shows up as a soundness
      bug).  The standard rates are mild (0.2% / 0.1% / 0.1%) and
      these instances are small, so most pins are genuinely zero with
      one or two hits per grid — the chaos scenario's heavier traffic
      is exercised by the fasst-level grid and the @sim-chaos
      alias. *)

module Rng = Ss_prelude.Rng
module Table = Ss_prelude.Table
module Par = Ss_par.Par
module Builders = Ss_graph.Builders
module Config = Ss_sim.Config
module Fault = Ss_sim.Fault
module P = Ss_core.Predicates
module St = Ss_core.Trans_state
module Transformer = Ss_core.Registry.Trans
module Checker = Ss_core.Checker
module Sync_runner = Ss_sync.Sync_runner
module M = Ss_msgnet.Msgnet
module Leader = Ss_algos.Leader_election
module Bfs = Ss_algos.Bfs_tree
module Cv = Ss_algos.Cole_vishkin
module Fault_plan = Ss_chaos.Fault_plan
module Clock = Ss_chaos.Clock
module Scenario = Ss_chaos.Scenario
module Budget = Ss_report.Budget
module Json = Ss_report.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Fault_plan                                                           *)
(* ------------------------------------------------------------------ *)

let test_plan_validation () =
  check "negative rate rejected" true
    (raises_invalid (fun () -> Fault_plan.rates ~drop_ppm:(-1) ()));
  check "over-scale rate rejected" true
    (raises_invalid (fun () ->
         Fault_plan.rates ~dup_ppm:(Fault_plan.ppm_scale + 1) ()));
  check "negative corruption index rejected" true
    (raises_invalid (fun () -> Fault_plan.v ~corrupt_at:[ 3; -1 ] ~seed:1 ()));
  check "negative horizon rejected" true
    (raises_invalid (fun () -> Fault_plan.v ~horizon:(-1) ~seed:1 ()));
  check "null plan is null" true (Fault_plan.is_null (Fault_plan.null ()));
  check "rated plan is not null" true
    (not
       (Fault_plan.is_null
          (Fault_plan.v
             ~rates:(Fault_plan.rates ~drop_ppm:1 ())
             ~seed:1 ())))

let test_plan_null_consult () =
  let plan = Fault_plan.null () in
  for event = 0 to 999 do
    check "null plan always delivers" true
      (Fault_plan.consult plan ~event = Fault_plan.Deliver)
  done

let verdicts plan ~events =
  List.init events (fun event -> Fault_plan.consult plan ~event)

let test_plan_replay () =
  let mk () =
    Fault_plan.v
      ~rates:(Fault_plan.rates ~drop_ppm:200_000 ~dup_ppm:100_000 ())
      ~seed:77 ()
  in
  check "same seed, same verdict stream" true
    (verdicts (mk ()) ~events:5_000 = verdicts (mk ()) ~events:5_000);
  let other =
    Fault_plan.v
      ~rates:(Fault_plan.rates ~drop_ppm:200_000 ~dup_ppm:100_000 ())
      ~seed:78 ()
  in
  check "different seed, different stream" true
    (verdicts (mk ()) ~events:5_000 <> verdicts other ~events:5_000)

let test_plan_horizon () =
  let plan =
    Fault_plan.v
      ~rates:(Fault_plan.rates ~drop_ppm:Fault_plan.ppm_scale ())
      ~horizon:5 ~seed:3 ()
  in
  for event = 0 to 4 do
    check "inside horizon: certain drop rate drops" true
      (Fault_plan.consult plan ~event = Fault_plan.Drop)
  done;
  for event = 5 to 100 do
    check "past horizon: inert" true
      (Fault_plan.consult plan ~event = Fault_plan.Deliver)
  done

(* Allocation tripwire: a consult runs on every chaos event, so its
   three draws and its verdict must allocate nothing. *)
let test_plan_allocation () =
  let plan =
    Fault_plan.v
      ~rates:(Fault_plan.rates ~drop_ppm:100_000 ~reorder_ppm:50_000 ~dup_ppm:20_000 ())
      ~seed:5 ()
  in
  let drops = ref 0 in
  let consults () =
    for event = 0 to 9_999 do
      if Fault_plan.consult plan ~event = Fault_plan.Drop then incr drops
    done
  in
  Alcotest.(check (float 0.)) "consult: 0 words" 0. (snd (Alloc.words consults));
  check "the plan fired" true (!drops > 0)

let test_plan_corruption_schedule () =
  (* The schedule is deduplicated and sorted; each due index fires
     exactly once, at the first event at or past it. *)
  let plan = Fault_plan.v ~corrupt_at:[ 5; 1; 5; 3 ] ~seed:9 () in
  check_int "three distinct corruptions" 3 (Fault_plan.pending_corruptions plan);
  check "not due at 0" false (Fault_plan.corruption_due plan ~event:0);
  check "due at 1" true (Fault_plan.corruption_due plan ~event:1);
  check "head consumed" false (Fault_plan.corruption_due plan ~event:2);
  check "skipped index still fires late" true
    (Fault_plan.corruption_due plan ~event:4);
  check "due at 5" true (Fault_plan.corruption_due plan ~event:5);
  check_int "schedule exhausted" 0 (Fault_plan.pending_corruptions plan);
  check "never fires again" false (Fault_plan.corruption_due plan ~event:1000)

(* The validated constructors on arbitrary integers: they build a plan
   or raise their documented [Invalid_argument], exactly when a rate
   leaves [0, ppm_scale] or an index or the horizon is negative. *)
let qcheck_plan_constructors =
  let open QCheck in
  let edge =
    Gen.oneof
      [
        Gen.oneofl
          [ min_int; -1; 0; 1; Fault_plan.ppm_scale; Fault_plan.ppm_scale + 1;
            max_int ];
        Gen.int_range (-10) (Fault_plan.ppm_scale + 10);
        Gen.int;
      ]
  in
  Test.make ~count:1000
    ~name:"Fault_plan.rates / v accept or raise Invalid_argument"
    (make
       ~print:Print.(pair (triple int int int) (pair (list int) int))
       Gen.(
         pair (triple edge edge edge)
           (pair (list_size (int_range 0 4) edge) edge)))
    (fun ((drop_ppm, reorder_ppm, dup_ppm), (corrupt_at, horizon)) ->
      let in_scale r = r >= 0 && r <= Fault_plan.ppm_scale in
      let rates () = Fault_plan.rates ~drop_ppm ~reorder_ppm ~dup_ppm () in
      let plan () = Fault_plan.v ~corrupt_at ~horizon ~seed:1 () in
      raises_invalid rates
      = not (in_scale drop_ppm && in_scale reorder_ppm && in_scale dup_ppm)
      && raises_invalid plan
         = (horizon < 0 || List.exists (fun e -> e < 0) corrupt_at))

(* ------------------------------------------------------------------ *)
(* Clock / Budget seam                                                  *)
(* ------------------------------------------------------------------ *)

let test_clock () =
  let clk = Clock.create ~t0:10.0 ~dt:0.5 () in
  check "t0" true (Clock.now clk = 10.0);
  Clock.tick clk;
  Clock.tick clk;
  check "two ticks" true (Clock.now clk = 11.0);
  Clock.advance clk 4.0;
  check "advance" true (Clock.now clk = 15.0);
  check "now_fn reads the same clock" true (Clock.now_fn clk () = 15.0)

let test_virtual_deadline () =
  (* A deadline budget measured on an injected clock trips exactly when
     virtual time passes, never because wall time did. *)
  let clk = Clock.create () in
  let d =
    Budget.deadline ~now:(Clock.now_fn clk) (Budget.v ~deadline_s:1.0 ())
  in
  (* An injected clock is read on every poll, whatever the work. *)
  let expired () = Budget.poll d ~work:0 in
  check "fresh virtual deadline not expired" false (expired ());
  Clock.advance clk 0.99;
  check "still inside the budget" false (expired ());
  Clock.advance clk 0.02;
  check "expired once virtual time passes" true (expired ())

(* ------------------------------------------------------------------ *)
(* Fault validation (satellite: transient-fault layer)                  *)
(* ------------------------------------------------------------------ *)

let leader_fixture n =
  let g = Builders.cycle n in
  let rng = Rng.create 11 in
  let inputs = Leader.random_ids rng g in
  let params = Transformer.params Leader.algo in
  let hist = Sync_runner.run Leader.algo g ~inputs in
  (params, inputs, hist, Transformer.clean_config params g ~inputs)

let test_fault_p_validation () =
  let _, _, _, config = leader_fixture 6 in
  let mutator _rng _input st = st in
  List.iter
    (fun p ->
      check
        (Printf.sprintf "p = %f rejected" p)
        true
        (raises_invalid (fun () ->
             Fault.corrupt (Rng.create 1) ~p mutator config));
      check
        (Printf.sprintf "Transformer.corrupt p = %f rejected" p)
        true
        (raises_invalid (fun () ->
             Transformer.corrupt (Rng.create 1) ~p ~max_height:4
               (Transformer.params Leader.algo)
               config));
      check
        (Printf.sprintf "rollback p = %f rejected" p)
        true
        (raises_invalid (fun () ->
             Ss_core.Registry.measure Ss_rollback.Rollback.transformer ~p
               ~rng:(Rng.create 1) ~daemon:Ss_sim.Daemon.synchronous
               ~max_height:4
               (Transformer.params ~bound:(P.Finite 4) Leader.algo)
               (Builders.cycle 6) ~inputs:(fun v -> v))))
    [ -0.1; 1.5; Float.nan ];
  (* The boundaries are legal. *)
  ignore (Fault.corrupt (Rng.create 1) ~p:0.0 mutator config);
  ignore (Fault.corrupt (Rng.create 1) ~p:1.0 mutator config)

let test_corrupt_nodes_validation () =
  let _, _, _, config = leader_fixture 6 in
  let mutator rng _input st = ignore (Rng.int rng 2); st in
  check "negative id rejected" true
    (raises_invalid (fun () ->
         Fault.corrupt_nodes (Rng.create 1) mutator [ 0; -1 ] config));
  check "id = n rejected" true
    (raises_invalid (fun () ->
         Fault.corrupt_nodes (Rng.create 1) mutator [ 6 ] config));
  (* A repeated, re-ordered list is the same fault as the sorted set:
     same rng seed, same resulting configuration, because dedup happens
     before any draw. *)
  let hit = Hashtbl.create 8 in
  let counting rng _input st =
    ignore (Rng.int rng 2);
    Hashtbl.replace hit (Hashtbl.length hit) ();
    st
  in
  ignore
    (Fault.corrupt_nodes (Rng.create 5) counting [ 4; 2; 2; 4; 2 ] config);
  check_int "duplicated ids hit once each" 2 (Hashtbl.length hit)

(* ------------------------------------------------------------------ *)
(* Replay determinism: one seed, any -j, byte-identical grid JSON       *)
(* ------------------------------------------------------------------ *)

let grid_json ~jobs ~seed =
  Par.set_jobs jobs;
  let workloads =
    Ss_expt.Sim_expt.workloads_for ~algos:[ "leader" ] (Rng.create 23)
      [ ("ring:8", Builders.cycle 8) ]
  in
  let table =
    Ss_expt.Sim_expt.rows ~scenarios:[ Scenario.standard ] ~seeds:[ seed ]
      workloads
  in
  Par.set_jobs 1;
  check "standard grid cell stabilizes" true (Ss_expt.Measure.ok table);
  Json.to_string (Json.of_table ~label:"sim" table)

let test_grid_jobs_determinism () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:8 ~name:"grid JSON byte-identical for any -j"
       QCheck.(int_range 1 1_000)
       (fun seed -> grid_json ~jobs:1 ~seed = grid_json ~jobs:4 ~seed))

(* ------------------------------------------------------------------ *)
(* The differential suite: §5 instances through `standard`              *)
(* ------------------------------------------------------------------ *)

(* One msgnet run through a scenario, msgnet_leg-style: virtual clock,
   chaos plan, and the fault-free naive twin as ground truth. *)
let chaos_run (type s i) ~scenario ~seed ~(params : (s, i) Transformer.params)
    ~(inputs : int -> i) ~max_height start =
  let clk = Clock.create () in
  let chaos =
    {
      M.plan = Scenario.msgnet_plan scenario ~seed;
      mutate =
        (fun crng v st ->
          Transformer.corrupt_state crng ~max_height params (inputs v) st);
    }
  in
  let seed_rng = Rng.create ((seed * 7919) + 97) in
  let final, stats =
    M.run
      ~budget:(Budget.v ~deadline_s:100. ())
      ~now:(Clock.now_fn clk) ~chaos ~rng:(Rng.split seed_rng) params start
  in
  let naive_final, naive_stats =
    M.run_naive ~rng:(Rng.split seed_rng) params start
  in
  (final, stats, naive_final, naive_stats)

let assert_differential ~msg ~pins (type s i)
    ~(params : (s, i) Transformer.params) ~(inputs : int -> i)
    ~(hist : (s, i) Sync_runner.history) ~max_height start =
  List.iter
    (fun (seed, pin_drop, pin_dup, pin_reorder, pin_stale) ->
      let m = Printf.sprintf "%s/seed%d" msg seed in
      let final, stats, naive_final, naive_stats =
        chaos_run ~scenario:Scenario.standard ~seed ~params ~inputs
          ~max_height start
      in
      check (m ^ ": quiescent through faults") true stats.M.quiescent;
      check (m ^ ": legitimate") true
        (Checker.legitimate_terminal params hist final = Ok ());
      check (m ^ ": naive twin quiescent") true naive_stats.M.quiescent;
      check (m ^ ": outputs equal the fault-free twin") true
        (Transformer.outputs final = Transformer.outputs naive_final);
      (* Pinned schedule fingerprints: these move only when the
         delivery schedule, the draw discipline, or the wave protocol
         changes — all of which must be deliberate. *)
      check_int (m ^ ": drop counter pinned") pin_drop
        stats.M.dropped_messages;
      check_int (m ^ ": duplicate counter pinned") pin_dup
        stats.M.duplicated_messages;
      check_int (m ^ ": reorder counter pinned") pin_reorder
        stats.M.reordered_messages;
      check_int (m ^ ": stale-proof counter pinned") pin_stale
        stats.M.stale_proof_messages)
    pins

let test_differential_leader () =
  let params, inputs, hist, clean = leader_fixture 10 in
  let max_height = hist.Sync_runner.t + 4 in
  let start =
    Transformer.corrupt (Rng.create 101) ~max_height params clean
  in
  assert_differential ~msg:"leader/cycle10"
    ~pins:[ (1, 0, 0, 0, 0); (2, 1, 0, 0, 0); (3, 0, 0, 0, 0) ]
    ~params ~inputs ~hist ~max_height start

let test_differential_bfs () =
  let g = Builders.random_connected (Rng.create 19) ~n:10 ~extra_edges:4 in
  let inputs = Bfs.inputs g ~root:0 in
  let params = Transformer.params Bfs.algo in
  let hist = Sync_runner.run Bfs.algo g ~inputs in
  let max_height = hist.Sync_runner.t + 4 in
  let start =
    Transformer.corrupt (Rng.create 102) ~max_height params
      (Transformer.clean_config params g ~inputs)
  in
  assert_differential ~msg:"bfs/random10"
    ~pins:[ (1, 0, 0, 1, 0); (2, 1, 0, 0, 0); (3, 0, 0, 0, 0) ]
    ~params ~inputs ~hist ~max_height start

let test_differential_cv () =
  let n = 9 and width = 6 in
  let g = Builders.cycle n in
  let ids = Cv.random_ring_ids (Rng.create 43) ~n ~width in
  let inputs = Cv.inputs ~ids ~width g in
  let b = Cv.schedule_length width in
  let params = Transformer.params ~mode:P.Greedy ~bound:(P.Finite b) Cv.algo in
  let hist = Sync_runner.run Cv.algo g ~inputs in
  let start =
    Transformer.corrupt (Rng.create 103) ~max_height:b params
      (Transformer.clean_config params g ~inputs)
  in
  assert_differential ~msg:"cv/cycle9"
    ~pins:[ (1, 0, 0, 0, 0); (2, 1, 0, 0, 0); (3, 0, 0, 0, 0) ]
    ~params ~inputs ~hist ~max_height:b start

(* The codec proof path under the heaviest faults: leader election on a
   ring of 32 with B = ∞, so mirrors stay boxed and alias their owners'
   buffers, through the `chaos` scenario.  Mid-run corruption rebuilds
   states and status flips land on shared buffers: a digest keyed on
   the wrong lineage would resume from a stale prefix there and flip a
   proof verdict.  The codec run and the Marshal reference run must
   agree on every counter. *)
let test_codec_chaos_pin () =
  let params, inputs, hist, clean = leader_fixture 32 in
  let max_height = hist.Sync_runner.t + 4 in
  let start = Transformer.corrupt (Rng.create 104) ~max_height params clean in
  List.iter
    (fun seed ->
      let run codec =
        let chaos =
          {
            M.plan = Scenario.msgnet_plan Scenario.chaos ~seed;
            mutate =
              (fun crng v st ->
                Transformer.corrupt_state crng ~max_height params (inputs v) st);
          }
        in
        M.run ?codec ~chaos ~rng:(Rng.create (seed + 500)) params start
      in
      let final, sc = run (Some Leader.codec) in
      let final_m, sm = run None in
      let m = Printf.sprintf "leader/cycle32/chaos/seed%d" seed in
      check (m ^ ": codec stats identical to the Marshal reference") true (sc = sm);
      check (m ^ ": same final states") true
        (Transformer.outputs final = Transformer.outputs final_m);
      check (m ^ ": quiescent through faults") true sc.M.quiescent;
      check (m ^ ": legitimate") true
        (Checker.legitimate_terminal params hist final = Ok ());
      check_int (m ^ ": every corruption fired") 3 sc.M.corruption_events;
      check (m ^ ": proofs raised repairs") true (sc.M.request_messages > 0))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "chaos"
    [
      ( "fault-plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "null consult" `Quick test_plan_null_consult;
          Alcotest.test_case "replay" `Quick test_plan_replay;
          Alcotest.test_case "horizon" `Quick test_plan_horizon;
          Alcotest.test_case "allocation" `Quick test_plan_allocation;
          Alcotest.test_case "corruption schedule" `Quick
            test_plan_corruption_schedule;
          QCheck_alcotest.to_alcotest qcheck_plan_constructors;
        ] );
      ( "clock",
        [
          Alcotest.test_case "virtual clock" `Quick test_clock;
          Alcotest.test_case "virtual deadline" `Quick test_virtual_deadline;
        ] );
      ( "fault-validation",
        [
          Alcotest.test_case "probability range" `Quick test_fault_p_validation;
          Alcotest.test_case "corrupt_nodes" `Quick
            test_corrupt_nodes_validation;
        ] );
      ( "replay-determinism",
        [
          Alcotest.test_case "grid JSON vs -j" `Quick
            test_grid_jobs_determinism;
        ] );
      ( "differential-standard",
        [
          Alcotest.test_case "leader election" `Quick test_differential_leader;
          Alcotest.test_case "BFS tree" `Quick test_differential_bfs;
          Alcotest.test_case "Cole-Vishkin" `Quick test_differential_cv;
        ] );
      ( "codec-chaos",
        [
          Alcotest.test_case "codec proofs match the Marshal reference" `Quick
            test_codec_chaos_pin;
        ] );
    ]
