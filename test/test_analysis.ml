(* Tests for Ss_core.Analysis: the §4 proof structure (segments,
   D-paths, cliffs) checked on hand-crafted configurations and as
   invariants along random executions. *)

module Builders = Ss_graph.Builders
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Trace = Ss_sim.Trace
module Min_flood = Ss_algos.Min_flood
module Leader = Ss_algos.Leader_election
module St = Ss_core.Trans_state
module Transformer = Ss_core.Registry.Trans
module Analysis = Ss_core.Analysis
module Checker = Ss_core.Checker
module Rng = Ss_prelude.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let params = Transformer.params Min_flood.algo

let st ?(status = St.C) init cells =
  St.make ~init ~status ~cells:(Array.of_list cells)

let config_on g states =
  Config.make g ~inputs:(fun p -> p + 1) ~states:(fun p -> List.nth states p)

(* ------------------------------------------------------------------ *)
(* Cliffs                                                               *)
(* ------------------------------------------------------------------ *)

let test_cliffs () =
  let g = Builders.path 3 in
  let c = config_on g [ st 1 []; st 2 [ 1; 1 ]; st 3 [ 1; 1; 1 ] ] in
  Alcotest.(check (list (pair int int))) "one cliff" [ (0, 1) ]
    (Analysis.cliffs c);
  let flat = config_on g [ st 1 [ 1 ]; st 2 [ 1 ]; st 3 [ 1 ] ] in
  Alcotest.(check (list (pair int int))) "no cliffs" [] (Analysis.cliffs flat)

(* ------------------------------------------------------------------ *)
(* D-paths                                                              *)
(* ------------------------------------------------------------------ *)

let test_d_path_direct_root () =
  (* An error node with an empty list is itself an error root. *)
  let g = Builders.path 2 in
  let c = config_on g [ st ~status:St.E 1 []; st 2 [ 1 ] ] in
  check "root starts its own D-path" true (Analysis.has_d_path params c 0)

let test_d_path_through_chain () =
  (* Heights 2 > 1 > 0, all in error: node 0 reaches the root via a
     decreasing path. *)
  let g = Builders.path 3 in
  let c =
    config_on g
      [
        st ~status:St.E 1 [ 1; 1 ];
        st ~status:St.E 2 [ 1 ];
        st ~status:St.E 3 [];
      ]
  in
  check "chain D-path" true (Analysis.has_d_path params c 0);
  check "all error nodes covered" true
    (Analysis.error_nodes_start_d_paths params c)

let test_d_path_absent () =
  (* An error node whose only lower neighbors are correct non-roots has
     no D-path... but then it is itself a root (depErr), so D-paths
     still exist.  Construct a genuine negative: an error node at
     height 0 is always an error root, so check a *correct* node
     instead — has_d_path may be false for it. *)
  let g = Builders.path 2 in
  let c = config_on g [ st 1 [ 1 ]; st 2 [ 1 ] ] in
  check "correct flat node has no D-path" false (Analysis.has_d_path params c 0)

(* ------------------------------------------------------------------ *)
(* Invariants along executions                                          *)
(* ------------------------------------------------------------------ *)

let run_with_records seed =
  let rng = Rng.create seed in
  let g =
    Builders.random_connected rng ~n:(3 + Rng.int rng 8)
      ~extra_edges:(Rng.int rng 4)
  in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let lp = Transformer.params Leader.algo in
  let start =
    Transformer.corrupt (Rng.split rng) ~max_height:10 lp
      (Transformer.clean_config lp g ~inputs)
  in
  let observer, records = Trace.with_configs () in
  let daemon = Daemon.distributed_random (Rng.split rng) ~p:0.4 in
  let stats = Transformer.run ~sinks:[ observer ] lp daemon start in
  (lp, Config.n start, records (), stats)

let test_segments_bounded_by_n () =
  for seed = 1 to 25 do
    let lp, n, records, stats = run_with_records seed in
    let seg = Analysis.segment lp records in
    check "terminated" true stats.Ss_sim.Engine.terminated;
    check
      (Printf.sprintf "seed %d: segments <= n" seed)
      true
      (seg.Analysis.segments <= n);
    (* The execution always ends rootless. *)
    check "rootless suffix exists" true (seg.Analysis.rootless_suffix_from <> None);
    (* Boundaries are strictly increasing step indices. *)
    let rec increasing = function
      | a :: b :: rest -> a < b && increasing (b :: rest)
      | _ -> true
    in
    check "boundaries ordered" true (increasing seg.Analysis.boundaries)
  done

let test_error_nodes_always_on_d_paths () =
  (* §4.2: along the whole execution, every node in error starts a
     D-path. *)
  for seed = 30 to 45 do
    let lp, _, records, _ = run_with_records seed in
    List.iter
      (fun (_, config) ->
        check "D-path invariant" true
          (Analysis.error_nodes_start_d_paths lp config))
      records
  done

let test_rootless_configs_are_cliff_free () =
  (* §4.3: a configuration without roots has no cliffs. *)
  for seed = 50 to 65 do
    let lp, _, records, _ = run_with_records seed in
    List.iter
      (fun (_, config) ->
        check "cliff invariant" true
          (Analysis.rootless_implies_cliff_free lp config))
      records
  done

let test_segment_of_clean_run () =
  (* A clean start has no roots: zero segments, rootless from step 0. *)
  let g = Builders.cycle 5 in
  let lp = Transformer.params Leader.algo in
  let observer, records = Trace.with_configs () in
  let _ =
    Transformer.run ~sinks:[ observer ] lp Daemon.synchronous
      (Transformer.clean_config lp g ~inputs:(fun p -> p))
  in
  let seg = Analysis.segment lp (records ()) in
  check_int "no segments" 0 seg.Analysis.segments;
  check "rootless from the start" true
    (seg.Analysis.rootless_suffix_from = Some 0)

let () =
  Alcotest.run "analysis"
    [
      ( "static",
        [
          Alcotest.test_case "cliffs" `Quick test_cliffs;
          Alcotest.test_case "D-path at a root" `Quick test_d_path_direct_root;
          Alcotest.test_case "D-path through a chain" `Quick
            test_d_path_through_chain;
          Alcotest.test_case "no D-path from correct nodes" `Quick
            test_d_path_absent;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "segments <= n" `Quick test_segments_bounded_by_n;
          Alcotest.test_case "error nodes start D-paths" `Quick
            test_error_nodes_always_on_d_paths;
          Alcotest.test_case "rootless implies cliff-free" `Quick
            test_rootless_configs_are_cliff_free;
          Alcotest.test_case "clean run has no segments" `Quick
            test_segment_of_clean_run;
        ] );
    ]
