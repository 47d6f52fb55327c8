(* Tests for the extension modules: generic LOCAL view collection,
   ring MIS composed on Cole–Vishkin, and the model-hierarchy
   (anonymity) checkers of §2.2/§3.3. *)

module Graph = Ss_graph.Graph
module Builders = Ss_graph.Builders
module Sync_runner = Ss_sync.Sync_runner
module Lv = Ss_algos.Local_views
module Mis = Ss_algos.Ring_mis
module Cv = Ss_algos.Cole_vishkin
module Min_flood = Ss_algos.Min_flood
module Leader = Ss_algos.Leader_election
module Bfs = Ss_algos.Bfs_tree
module Anonymity = Ss_verify.Anonymity
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module Checker = Ss_core.Checker
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let int_views =
  Lv.algo ~equal:Int.equal
    ~input_bits:(fun v -> 1 + Util.bit_width (abs v))
    ~random_input:(fun rng -> Rng.int rng 64)
    ~pp:Format.pp_print_int

(* ------------------------------------------------------------------ *)
(* Local views                                                          *)
(* ------------------------------------------------------------------ *)

let test_tree_helpers () =
  let t =
    { Lv.label = 1; children = [ Lv.leaf 2; { Lv.label = 3; children = [ Lv.leaf 4 ] } ] }
  in
  check_int "depth" 2 (Lv.depth_of t);
  check_int "size" 4 (Lv.tree_size t);
  check_int "leaf depth" 0 (Lv.depth_of (Lv.leaf 9));
  check "equal to itself" true (Lv.equal_tree Int.equal t t);
  check "differs from leaf" false (Lv.equal_tree Int.equal t (Lv.leaf 1));
  check_int "fold sum" 10 (Lv.fold_ball ( + ) 0 t);
  check_int "min in ball" 1 (Lv.min_in_ball t Fun.id)

let test_views_converge_to_expected () =
  let g = Builders.cycle 5 in
  let base p = 10 + p in
  let radius = 3 in
  let inputs p = { Lv.self_input = base p; radius } in
  let h = Sync_runner.run int_views g ~inputs in
  check_int "T = radius" radius h.Sync_runner.t;
  Graph.iter_nodes g (fun p ->
      check
        (Printf.sprintf "node %d view" p)
        true
        (Lv.equal_tree Int.equal
           (Sync_runner.final h).(p)
           (Lv.expected_view g ~inputs:base ~radius p)))

let test_views_intermediate_rounds () =
  (* After round i every node holds exactly its depth-i view. *)
  let g = Builders.path 4 in
  let base p = p in
  let radius = 3 in
  let inputs p = { Lv.self_input = base p; radius } in
  let h = Sync_runner.run int_views g ~inputs in
  for i = 0 to radius do
    Graph.iter_nodes g (fun p ->
        check
          (Printf.sprintf "round %d node %d" i p)
          true
          (Lv.equal_tree Int.equal
             h.Sync_runner.states_by_round.(i).(p)
             (Lv.expected_view g ~inputs:base ~radius:i p)))
  done

let test_views_radius_zero_and_singleton () =
  let g = Builders.path 3 in
  let inputs p = { Lv.self_input = p; radius = 0 } in
  let h = Sync_runner.run int_views g ~inputs in
  check_int "radius 0: T = 0" 0 h.Sync_runner.t;
  let g1 = Builders.single () in
  let h1 =
    Sync_runner.run int_views g1 ~inputs:(fun _ -> { Lv.self_input = 7; radius = 5 })
  in
  check_int "singleton: T = 0" 0 h1.Sync_runner.t

let test_views_leader_election_within_ball () =
  (* With radius >= D the minimum over the view is the global minimum:
     generic leader election through LOCAL simulation. *)
  let rng = Rng.create 21 in
  let g = Builders.random_connected rng ~n:7 ~extra_edges:3 in
  let ids = Leader.random_ids rng g in
  let d = Ss_graph.Properties.diameter g in
  let inputs p = { Lv.self_input = ids p; radius = d } in
  let h = Sync_runner.run int_views g ~inputs in
  let expected = Graph.fold_nodes g ~init:max_int ~f:(fun acc p -> min acc (ids p)) in
  Graph.iter_nodes g (fun p ->
      check_int "min over ball = global min" expected
        (Lv.min_in_ball (Sync_runner.final h).(p) Fun.id))

let test_views_through_transformer () =
  (* The heavyweight state type exercises the transformer's generic
     plumbing; corrupted view trees must be repaired. *)
  let rng = Rng.create 33 in
  let g = Builders.cycle 6 in
  let base p = p * 3 in
  let radius = 2 in
  let inputs p = { Lv.self_input = base p; radius } in
  let params = Transformer.params int_views in
  let hist = Sync_runner.run int_views g ~inputs in
  for seed = 1 to 10 do
    ignore seed;
    let start =
      Transformer.corrupt (Rng.split rng) ~max_height:(radius + 3) params
        (Transformer.clean_config params g ~inputs)
    in
    let stats =
      Transformer.run params (Daemon.distributed_random (Rng.split rng) ~p:0.5)
        start
    in
    check "terminated" true stats.Engine.terminated;
    check "legitimate" true
      (Checker.legitimate_terminal params hist stats.Engine.final = Ok ())
  done

(* ------------------------------------------------------------------ *)
(* Ring MIS                                                             *)
(* ------------------------------------------------------------------ *)

let test_mis_schedule () =
  check_int "schedule = CV + 3"
    (Cv.schedule_length 8 + 3)
    (Mis.schedule_length 8)

let test_mis_on_rings () =
  let rng = Rng.create 44 in
  List.iter
    (fun (n, width) ->
      let g = Builders.cycle n in
      let ids = Cv.random_ring_ids rng ~n ~width in
      let inputs = Mis.inputs ~ids ~width g in
      let h = Sync_runner.run Mis.algo g ~inputs in
      check_int
        (Printf.sprintf "T, n=%d" n)
        (Mis.schedule_length width)
        h.Sync_runner.t;
      check
        (Printf.sprintf "maximal independent set, n=%d" n)
        true
        (Mis.spec_holds g ~final:(Sync_runner.final h)))
    [ (3, 4); (7, 5); (16, 8); (33, 8); (100, 12) ]

let test_mis_spec_rejects () =
  let g = Builders.cycle 4 in
  let mk in_mis = { Mis.color = 0; round = 0; in_mis } in
  (* Adjacent flagged nodes: not independent. *)
  check "dependent rejected" false
    (Mis.spec_holds g ~final:[| mk true; mk true; mk false; mk false |]);
  (* No flags at all: not maximal. *)
  check "non-maximal rejected" false
    (Mis.spec_holds g ~final:[| mk false; mk false; mk false; mk false |]);
  (* Alternating flags: a proper MIS on a 4-cycle. *)
  check "proper MIS accepted" true
    (Mis.spec_holds g ~final:[| mk true; mk false; mk true; mk false |])

let test_mis_through_transformer () =
  let rng = Rng.create 55 in
  let n = 17 and width = 8 in
  let g = Builders.cycle n in
  let ids = Cv.random_ring_ids rng ~n ~width in
  let inputs = Mis.inputs ~ids ~width g in
  let b = Mis.schedule_length width in
  let params = Transformer.params ~mode:P.Greedy ~bound:(P.Finite b) Mis.algo in
  let hist = Sync_runner.run Mis.algo g ~inputs in
  for seed = 1 to 8 do
    ignore seed;
    let start =
      Transformer.corrupt (Rng.split rng) ~max_height:b params
        (Transformer.clean_config params g ~inputs)
    in
    let stats =
      Transformer.run params (Daemon.distributed_random (Rng.split rng) ~p:0.4)
        start
    in
    check "terminated" true stats.Engine.terminated;
    check "legitimate" true
      (Checker.legitimate_terminal params hist stats.Engine.final = Ok ());
    check "MIS spec" true
      (Mis.spec_holds g ~final:(Transformer.outputs stats.Engine.final))
  done

(* ------------------------------------------------------------------ *)
(* Anonymity / model hierarchy                                          *)
(* ------------------------------------------------------------------ *)

let test_min_flood_is_anonymous () =
  let rng = Rng.create 66 in
  check "port invariant" true
    (Anonymity.sync_step_port_invariant ~rng ~trials:300 Min_flood.algo
       ~gen_input:(fun rng -> Rng.int rng 100)
       ~gen_state:(fun rng -> Rng.int rng 100)
       ~max_degree:6);
  check "multiset invariant" true
    (Anonymity.sync_step_multiset_invariant ~rng ~trials:300 Min_flood.algo
       ~gen_input:(fun rng -> Rng.int rng 100)
       ~gen_state:(fun rng -> Rng.int rng 100)
       ~max_degree:6)

let test_bfs_is_port_sensitive () =
  (* BFS uses port numbers (it stores the parent's port): shuffling
     neighbors must change its behaviour on some trial — the checker
     correctly detects that it does NOT fit the weakest model. *)
  let rng = Rng.create 77 in
  let ok =
    Anonymity.sync_step_port_invariant ~rng ~trials:500 Bfs.algo
      ~gen_input:(fun _rng -> { Bfs.is_root = false; degree = 4 })
      ~gen_state:(fun rng ->
        match Rng.int rng 3 with
        | 0 -> Bfs.Null
        | 1 -> Bfs.Root
        | _ -> Bfs.Parent (Rng.int rng 4))
      ~max_degree:4
  in
  check "detected as port-sensitive" false ok

let test_transformer_preserves_anonymity () =
  (* Trans(min-flood) must itself run in the weak model: all its guards
     and actions are invariant under neighbor permutations. *)
  let rng = Rng.create 88 in
  let params = Transformer.params Min_flood.algo in
  let algo = Transformer.algorithm params in
  let gen_state rng =
    let h = Rng.int rng 4 in
    Ss_core.Trans_state.make
      ~init:(Rng.int rng 50)
      ~status:(if Rng.bool rng then Ss_core.Trans_state.C else Ss_core.Trans_state.E)
      ~cells:(Array.init h (fun _ -> Rng.int rng 50))
  in
  check "transformed algorithm is port invariant" true
    (Anonymity.rules_port_invariant ~rng ~trials:400 algo
       ~gen_input:(fun rng -> Rng.int rng 50)
       ~gen_state ~max_degree:5)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:60 ~name:"view collection matches direct unfolding"
      (pair small_int (int_range 0 3))
      (fun (seed, radius) ->
        let rng = Rng.create (seed + 1) in
        let n = 2 + Rng.int rng 6 in
        let g = Builders.random_connected rng ~n ~extra_edges:2 in
        let base p = p * 7 mod 13 in
        let inputs p = { Lv.self_input = base p; radius } in
        let h = Sync_runner.run int_views g ~inputs in
        let ok = ref true in
        Graph.iter_nodes g (fun p ->
            if
              not
                (Lv.equal_tree Int.equal
                   (Sync_runner.final h).(p)
                   (Lv.expected_view g ~inputs:base ~radius p))
            then ok := false);
        !ok);
    Test.make ~count:60 ~name:"ring MIS is maximal independent on random rings"
      (pair small_int (int_range 3 40))
      (fun (seed, n) ->
        let rng = Rng.create seed in
        let width = max 8 (Util.bit_width n) in
        let g = Builders.cycle n in
        let ids = Cv.random_ring_ids rng ~n ~width in
        let inputs = Mis.inputs ~ids ~width g in
        let h = Sync_runner.run Mis.algo g ~inputs in
        Mis.spec_holds g ~final:(Sync_runner.final h));
  ]

let () =
  Alcotest.run "extensions"
    [
      ( "local-views",
        [
          Alcotest.test_case "tree helpers" `Quick test_tree_helpers;
          Alcotest.test_case "converges to expected view" `Quick
            test_views_converge_to_expected;
          Alcotest.test_case "intermediate rounds" `Quick
            test_views_intermediate_rounds;
          Alcotest.test_case "radius 0 / singleton" `Quick
            test_views_radius_zero_and_singleton;
          Alcotest.test_case "leader election in a ball" `Quick
            test_views_leader_election_within_ball;
          Alcotest.test_case "through the transformer" `Quick
            test_views_through_transformer;
        ] );
      ( "ring-mis",
        [
          Alcotest.test_case "schedule" `Quick test_mis_schedule;
          Alcotest.test_case "on rings" `Quick test_mis_on_rings;
          Alcotest.test_case "spec rejects" `Quick test_mis_spec_rejects;
          Alcotest.test_case "through the transformer" `Quick
            test_mis_through_transformer;
        ] );
      ( "anonymity",
        [
          Alcotest.test_case "min-flood is anonymous" `Quick
            test_min_flood_is_anonymous;
          Alcotest.test_case "BFS is port-sensitive" `Quick
            test_bfs_is_port_sensitive;
          Alcotest.test_case "transformer preserves anonymity" `Quick
            test_transformer_preserves_anonymity;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
