(* Tests for the experiment harness: workloads, worst-case
   aggregation, the stabilization harness and (smoke-level) the table
   generators that `fasst all` prints; test/fasst-all.golden.json pins
   their every cell. *)

module Builders = Ss_graph.Builders
module Daemon = Ss_sim.Daemon
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module Stabilization = Ss_verify.Stabilization
module Workloads = Ss_expt.Workloads
module Measure = Ss_expt.Measure
module Leader = Ss_algos.Leader_election
module Min_flood = Ss_algos.Min_flood
module Rng = Ss_prelude.Rng
module Table = Ss_prelude.Table

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let table_lines t =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Table.render ppf t;
  Format.pp_print_flush ppf ();
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

let test_workloads_standard () =
  let rng = Rng.create 1 in
  let ws = Workloads.standard rng in
  check "non-empty" true (List.length ws > 10);
  List.iter
    (fun (w : Workloads.t) ->
      check "n matches graph" true (w.Workloads.n = Ss_graph.Graph.n w.Workloads.graph);
      check "diameter consistent" true
        (w.Workloads.diameter = Ss_graph.Properties.diameter w.Workloads.graph))
    ws

let test_workloads_diameter_sweep () =
  let ws = Workloads.diameter_sweep () in
  let ds = List.map (fun (w : Workloads.t) -> w.Workloads.diameter) ws in
  check "strictly increasing diameters" true
    (List.sort_uniq compare ds = ds && List.length ds >= 4)

let test_workloads_rings () =
  let ws = Workloads.rings [ 4; 8 ] in
  Alcotest.(check (list int)) "sizes" [ 4; 8 ]
    (List.map (fun (w : Workloads.t) -> w.Workloads.n) ws)

(* ------------------------------------------------------------------ *)
(* Stabilization harness                                                *)
(* ------------------------------------------------------------------ *)

let scenario () =
  let g = Builders.cycle 8 in
  {
    Stabilization.params = Transformer.params Leader.algo;
    graph = g;
    inputs = (fun p -> p);
  }

let test_clean_start_report () =
  let sc = scenario () in
  let r =
    Stabilization.run sc ~daemon:Daemon.synchronous
      ~start:(Stabilization.clean_start sc)
  in
  check "terminated" true r.Stabilization.terminated;
  check "completed" true (r.Stabilization.outcome = Ss_report.Budget.Completed);
  check "legitimate" true r.Stabilization.legitimate;
  check_int "recovery instantaneous from clean start" 0
    r.Stabilization.recovery_moves;
  check_int "recovery rounds zero" 0 r.Stabilization.recovery_rounds;
  check "moves positive" true (r.Stabilization.moves > 0);
  Alcotest.(check (array int)) "outputs" (Array.make 8 0)
    r.Stabilization.outputs

let test_corrupted_start_recovers () =
  let sc = scenario () in
  let rng = Rng.create 2 in
  let start = Stabilization.corrupted_start rng ~max_height:8 sc in
  let r = Stabilization.run sc ~daemon:(Daemon.central_random rng) ~start in
  check "terminated" true r.Stabilization.terminated;
  check "legitimate" true r.Stabilization.legitimate;
  check "recovery tracked" true (r.Stabilization.recovery_moves >= 0);
  check "recovery before end" true
    (r.Stabilization.recovery_moves <= r.Stabilization.moves)

let test_recovery_tracking_off () =
  let sc = scenario () in
  let r =
    Stabilization.run ~track_recovery:false sc ~daemon:Daemon.synchronous
      ~start:(Stabilization.clean_start sc)
  in
  check_int "disabled marker" (-1) r.Stabilization.recovery_moves

let test_move_budget_outcome () =
  (* The run's own outcome, not a guess from [terminated]: a move cap
     reports [Tripped Moves], with the cap never overshot. *)
  let sc = scenario () in
  let start = Stabilization.corrupted_start (Rng.create 2) ~max_height:8 sc in
  let r =
    Stabilization.run ~budget:(Ss_report.Budget.v ~moves:3 ())
      sc ~daemon:Daemon.synchronous ~start
  in
  check "move cap reported" true
    (r.Stabilization.outcome = Ss_report.Budget.(Tripped Moves));
  check_int "hard move cap" 3 r.Stabilization.moves;
  check "not terminated" false r.Stabilization.terminated

let test_history_cached_values () =
  let sc = scenario () in
  let h = Stabilization.history sc in
  check_int "T on an 8-ring with sequential ids" 4 h.Ss_sync.Sync_runner.t

let test_daemon_portfolio () =
  let rng = Rng.create 3 in
  let d = Stabilization.daemon_portfolio rng in
  check_int "seven adversaries" 7 (List.length d);
  check "named" true (List.for_all (fun (n, _) -> String.length n > 0) d)

(* ------------------------------------------------------------------ *)
(* Measure                                                              *)
(* ------------------------------------------------------------------ *)

let test_worst_case_aggregation () =
  let sc = scenario () in
  let agg = Measure.worst_case ~seeds:[ 1; 2 ] ~max_height:8 sc in
  check_int "runs = seeds x portfolio" (2 * 7) agg.Measure.runs;
  check "legitimate everywhere" true agg.Measure.all_legitimate;
  check "spec default true" true agg.Measure.all_spec;
  check "max moves positive" true (agg.Measure.max_moves > 0);
  check "recovery <= moves" true
    (agg.Measure.max_recovery_moves <= agg.Measure.max_moves)

let test_worst_case_spec_detects_violation () =
  let sc = scenario () in
  let agg =
    Measure.worst_case ~seeds:[ 1 ] ~max_height:8 ~spec:(fun _ -> false) sc
  in
  check "violations reported" false agg.Measure.all_spec

let test_clean_run () =
  let sc = scenario () in
  let r =
    Stabilization.run sc ~daemon:Daemon.synchronous
      ~start:(Stabilization.clean_start sc)
  in
  check "legitimate" true r.Stabilization.legitimate

(* ------------------------------------------------------------------ *)
(* Table generators (smoke)                                             *)
(* ------------------------------------------------------------------ *)

let test_space_rows_smoke () =
  let t = Ss_expt.Table1.space_rows ~seeds:[ 1 ] (Rng.create 5) in
  let lines = table_lines t in
  (* Header + rule + at least three data rows. *)
  check "has rows" true (List.length lines >= 5)

let test_blowup_rows_smoke () =
  let t = Ss_expt.Blowup_expt.rows ~max_k:3 ~seeds:[ 1 ] () in
  let lines = table_lines t in
  check_int "3 data rows" 5 (List.length lines);
  check "all ok" true
    (List.for_all
       (fun l ->
         (not (String.length l > 3)) || not (String.ends_with ~suffix:"NO" l))
       lines)

let test_energy_rows_smoke () =
  let t = Ss_expt.Energy_expt.rows ~seeds:[ 1 ] (Rng.create 6) in
  check "has rows" true (List.length (table_lines t) >= 6)

let test_locality_rows_smoke () =
  let t = Ss_expt.Locality_expt.rows ~seeds:[ 1 ] (Rng.create 8) in
  let lines = table_lines t in
  check "has rows" true (List.length lines >= 6);
  check "all legitimate" true
    (List.for_all (fun l -> not (String.ends_with ~suffix:"NO" l)) lines)

let test_cv_rows_smoke () =
  let t = Ss_expt.Instances.cv_rows ~seeds:[ 1 ] (Rng.create 7) in
  let lines = table_lines t in
  check "has rows" true (List.length lines >= 4);
  check "no failures" true
    (List.for_all (fun l -> not (String.ends_with ~suffix:"NO" l)) lines)

let () =
  Alcotest.run "expt"
    [
      ( "workloads",
        [
          Alcotest.test_case "standard" `Quick test_workloads_standard;
          Alcotest.test_case "diameter sweep" `Quick test_workloads_diameter_sweep;
          Alcotest.test_case "rings" `Quick test_workloads_rings;
        ] );
      ( "stabilization",
        [
          Alcotest.test_case "clean start" `Quick test_clean_start_report;
          Alcotest.test_case "corrupted start" `Quick test_corrupted_start_recovers;
          Alcotest.test_case "recovery tracking off" `Quick
            test_recovery_tracking_off;
          Alcotest.test_case "move budget outcome" `Quick
            test_move_budget_outcome;
          Alcotest.test_case "history" `Quick test_history_cached_values;
          Alcotest.test_case "portfolio" `Quick test_daemon_portfolio;
        ] );
      ( "measure",
        [
          Alcotest.test_case "aggregation" `Quick test_worst_case_aggregation;
          Alcotest.test_case "spec violation" `Quick
            test_worst_case_spec_detects_violation;
          Alcotest.test_case "clean run" `Quick test_clean_run;
        ] );
      ( "tables",
        [
          Alcotest.test_case "space rows" `Quick test_space_rows_smoke;
          Alcotest.test_case "blowup rows" `Quick test_blowup_rows_smoke;
          Alcotest.test_case "energy rows" `Quick test_energy_rows_smoke;
          Alcotest.test_case "cv rows" `Slow test_cv_rows_smoke;
          Alcotest.test_case "locality rows" `Slow test_locality_rows_smoke;
        ] );
    ]
