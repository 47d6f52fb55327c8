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

(* Passing the scenario's history changes nothing in the report: on a
   boxed lazy start, and on a packed greedy start whose history is the
   full one rather than the cut at B the run would build itself. *)
let test_run_hist_same_report () =
  let g = Builders.cycle 12 in
  let inputs = Leader.random_ids (Rng.create 4) g in
  List.iter
    (fun (label, mode, bound, codec) ->
      let sc =
        {
          Stabilization.params = Transformer.params ~mode ~bound Leader.algo;
          graph = g;
          inputs;
        }
      in
      let hist = Stabilization.history sc in
      let run ?hist () =
        let rng = Rng.create 9 in
        let start =
          Stabilization.corrupted_start (Rng.split rng) ?codec ~max_height:6 sc
        in
        Stabilization.run ?hist sc ~daemon:(Daemon.central_random rng) ~start
      in
      let without = run () in
      check (label ^ ": recovered") true without.Stabilization.legitimate;
      check (label ^ ": same report") true (run ~hist () = without))
    [
      ("boxed lazy", P.Lazy, P.Infinite, None);
      ("packed greedy", P.Greedy, P.Finite 4, Some Leader.codec);
    ]

let test_daemon_portfolio () =
  let rng = Rng.create 3 in
  let d = Stabilization.daemon_portfolio rng in
  check_int "seven adversaries" 7 (List.length d);
  check "named" true (List.for_all (fun (n, _) -> String.length n > 0) d)

(* ------------------------------------------------------------------ *)
(* Measure                                                              *)
(* ------------------------------------------------------------------ *)

(* A report's cells as the sections project them, under [spec]. *)
let cells spec (r : _ Stabilization.report) =
  [
    Table.I r.Stabilization.moves;
    Table.I r.Stabilization.recovery_moves;
    Measure.ok_cell r.Stabilization.legitimate;
    Measure.ok_cell (spec r.Stabilization.outputs);
  ]

let test_worst_case_aggregation () =
  let sc = scenario () in
  let reports =
    Measure.worst_case ~seeds:[ 1; 2 ] ~max_height:8
      ~hist:(Stabilization.history sc) sc
  in
  check_int "runs = seeds x portfolio" (2 * 7) (List.length reports);
  match
    ( Measure.worst (List.map (cells (fun _ -> true)) reports),
      Measure.worst (List.map (cells (fun _ -> false)) reports) )
  with
  | [ Table.I moves; Table.I recovery_moves; legit; spec ], [ _; _; _; no ] ->
      check "legitimate everywhere" true (legit = Table.S "yes");
      check "a true spec renders yes" true (spec = Table.S "yes");
      check "a false spec renders NO" true (no = Table.S "NO");
      check "max moves positive" true (moves > 0);
      check "recovery <= moves" true (recovery_moves <= moves)
  | _ -> Alcotest.fail "unexpected row shape"

let test_worst_case_spec_detects_violation () =
  let sc = scenario () in
  let reports =
    Measure.worst_case ~seeds:[ 1 ] ~max_height:8
      ~hist:(Stabilization.history sc) sc
  in
  check "violations reported" true
    (List.nth (Measure.worst (List.map (cells (fun _ -> false)) reports)) 3
    = Table.S "NO")

(* The worst-over-runs fold: [I] columns take the max, a "NO" wins,
   labels must agree. *)
let test_worst_takes_max () =
  let worst =
    Measure.worst
      [
        [ Table.S "ring"; Table.I 3; Table.I 9; Table.S "yes" ];
        [ Table.S "ring"; Table.I 7; Table.I 2; Table.S "yes" ];
        [ Table.S "ring"; Table.I 5; Table.I 4; Table.S "yes" ];
      ]
  in
  check "column-wise max" true
    (worst = [ Table.S "ring"; Table.I 7; Table.I 9; Table.S "yes" ]);
  check "one row is its own worst" true
    (Measure.worst [ [ Table.I 1; Table.S "n/a" ] ]
    = [ Table.I 1; Table.S "n/a" ])

let test_worst_no_wins () =
  let row ok = [ Table.S "leader"; Table.I 1; Measure.ok_cell ok ] in
  check "a NO in the middle wins" true
    (Measure.worst [ row true; row false; row true ]
    = [ Table.S "leader"; Table.I 1; Table.S "NO" ]);
  check "NO over any label" true
    (Measure.worst [ [ Table.S "NO" ]; [ Table.S "n/a" ] ] = [ Table.S "NO" ])

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_worst_rejects () =
  check "label mismatch" true
    (raises_invalid (fun () ->
         Measure.worst
           [ [ Table.S "ring"; Table.I 1 ]; [ Table.S "grid"; Table.I 1 ] ]));
  check "int against text" true
    (raises_invalid (fun () -> Measure.worst [ [ Table.I 1 ]; [ Table.S "1" ] ]));
  check "ragged rows" true
    (raises_invalid (fun () ->
         Measure.worst [ [ Table.I 1 ]; [ Table.I 1; Table.I 2 ] ]));
  check "no rows" true (raises_invalid (fun () -> Measure.worst []))

(* ------------------------------------------------------------------ *)
(* Sections                                                             *)
(* ------------------------------------------------------------------ *)

module Sections = Ss_expt.Sections

let section ok_cells =
  {
    Sections.name = "fake";
    title = "fake";
    run =
      (fun ~seeds:_ _ ->
        let t = Table.create [ "label"; "ok" ] in
        List.iter (fun c -> Table.add t [ Table.S "row"; c ]) ok_cells;
        t);
  }

let exit_code ~json sections =
  Sections.run
    (Format.make_formatter (fun _ _ _ -> ()) ignore)
    ~json ~seed:1 ~seeds:[ 1 ] sections

(* A command built from sections exits 1 when one printed cell reads
   NO, whichever section holds it. *)
let test_sections_exit_code () =
  let good = section [ Table.S "yes"; Table.I 3 ]
  and bad = section [ Table.S "yes"; Table.S "NO"; Table.S "yes" ] in
  List.iter
    (fun json ->
      check_int "all cells ok: exit 0" 0 (exit_code ~json [ good; good ]);
      check_int "one NO cell: exit 1" 1 (exit_code ~json [ good; bad ]);
      check_int "NO in the first section" 1 (exit_code ~json [ bad; good ]))
    [ false; true ]

let test_sections_names () =
  let names l = List.map (fun s -> s.Sections.name) l in
  check "WHICH values are unique per command" true
    (List.for_all
       (fun l -> List.length (List.sort_uniq compare (names l)) = List.length l)
       [ Sections.table1; Sections.instances; Sections.baselines ])

(* ------------------------------------------------------------------ *)
(* Topology specs from the command line                                 *)
(* ------------------------------------------------------------------ *)

module Catalog = Ss_expt.Catalog

(* Specs built from the real family names with sizes kept small (every
   accepted spec builds a graph of at most a few thousand nodes), mixed
   with junk that carries no digits at all. *)
let topology_spec_gen =
  let open QCheck.Gen in
  let families =
    List.map
      (fun syntax -> List.hd (String.split_on_char ':' syntax))
      (Catalog.topology_syntax ())
  in
  let junk =
    string_size ~gen:(oneofl [ 'x'; 'a'; '-'; ':'; ' '; '_' ]) (int_range 0 4)
  in
  let size = map string_of_int (int_range (-2) 10) in
  let tail =
    oneof
      [
        size;
        map2 (fun a b -> a ^ "x" ^ b) size size;
        map3 (fun a b c -> a ^ "x" ^ b ^ "x" ^ c) size size size;
        junk;
        map2 ( ^ ) size junk;
      ]
  in
  let family = oneof [ oneofl families; junk ] in
  let sep = frequency [ (8, return ":"); (1, return ""); (1, return "x") ] in
  map3 (fun f s t -> f ^ s ^ t) family sep tail

let qcheck_topology_specs =
  QCheck.Test.make ~count:1000
    ~name:"check_topology is Ok exactly when parse_topology builds"
    (QCheck.make ~print:Fun.id topology_spec_gen)
    (fun spec ->
      let builds =
        match Catalog.parse_topology (Rng.create 3) spec with
        | _ -> true
        | exception Failure _ -> false
      in
      Catalog.check_topology spec = Ok () = builds)

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
  let t = Ss_expt.Blowup_expt.rows ~max_k:3 ~seeds:[ 1 ] (Rng.create 1) in
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
          Alcotest.test_case "run ~hist same report" `Quick
            test_run_hist_same_report;
        ] );
      ( "measure",
        [
          Alcotest.test_case "aggregation" `Quick test_worst_case_aggregation;
          Alcotest.test_case "spec violation" `Quick
            test_worst_case_spec_detects_violation;
          Alcotest.test_case "clean run" `Quick test_clean_run;
          Alcotest.test_case "worst takes the max" `Quick test_worst_takes_max;
          Alcotest.test_case "worst: NO wins" `Quick test_worst_no_wins;
          Alcotest.test_case "worst rejects mismatches" `Quick
            test_worst_rejects;
        ] );
      ( "sections",
        [
          Alcotest.test_case "a NO cell exits 1" `Quick test_sections_exit_code;
          Alcotest.test_case "names" `Quick test_sections_names;
        ] );
      ("topology-fuzz", [ QCheck_alcotest.to_alcotest qcheck_topology_specs ]);
      ( "tables",
        [
          Alcotest.test_case "space rows" `Quick test_space_rows_smoke;
          Alcotest.test_case "blowup rows" `Quick test_blowup_rows_smoke;
          Alcotest.test_case "energy rows" `Quick test_energy_rows_smoke;
          Alcotest.test_case "cv rows" `Slow test_cv_rows_smoke;
          Alcotest.test_case "locality rows" `Slow test_locality_rows_smoke;
        ] );
    ]
