(* Tests for the synchronous input algorithms of §5 and §7: min-flood,
   leader election, BFS tree, shortest-path tree, leader+BFS and
   Cole–Vishkin. *)

module Graph = Ss_graph.Graph
module Builders = Ss_graph.Builders
module Properties = Ss_graph.Properties
module Sync_runner = Ss_sync.Sync_runner
module Min_flood = Ss_algos.Min_flood
module Leader = Ss_algos.Leader_election
module Bfs = Ss_algos.Bfs_tree
module Sp = Ss_algos.Shortest_path
module Lbfs = Ss_algos.Leader_bfs
module Cv = Ss_algos.Cole_vishkin
module Toy = Ss_algos.Toy
module Util = Ss_prelude.Util
module Rng = Ss_prelude.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let random_graph rng =
  let n = 2 + Rng.int rng 10 in
  Builders.random_connected rng ~n ~extra_edges:(Rng.int rng 5)

(* ------------------------------------------------------------------ *)
(* Min flood / max flood                                                *)
(* ------------------------------------------------------------------ *)

let test_min_flood_spec () =
  let g = Builders.cycle 6 in
  let values = [| 4; 9; 2; 8; 7; 6 |] in
  let inputs = Min_flood.inputs_of_values values in
  let h = Sync_runner.run Min_flood.algo g ~inputs in
  check "spec" true (Min_flood.spec_holds g ~inputs ~final:(Sync_runner.final h));
  check "all hold 2" true (Array.for_all (fun s -> s = 2) (Sync_runner.final h))

let test_min_flood_spec_rejects () =
  let g = Builders.cycle 4 in
  let inputs p = p + 1 in
  check "wrong final rejected" false
    (Min_flood.spec_holds g ~inputs ~final:[| 1; 1; 1; 2 |])

let test_max_flood () =
  let g = Builders.path 4 in
  let h = Sync_runner.run Toy.max_flood g ~inputs:(fun p -> p * 3) in
  check "all hold max" true (Array.for_all (fun s -> s = 9) (Sync_runner.final h))

(* ------------------------------------------------------------------ *)
(* Leader election                                                      *)
(* ------------------------------------------------------------------ *)

let test_leader_sequential_ids () =
  let g = Builders.path 5 in
  let inputs = Leader.sequential_ids g in
  let h = Sync_runner.run Leader.algo g ~inputs in
  check "spec" true (Leader.spec_holds g ~inputs ~final:(Sync_runner.final h));
  check "leader is 0" true (Array.for_all (fun s -> s = 0) (Sync_runner.final h));
  check "T <= D" true (h.Sync_runner.t <= Properties.diameter g)

let test_leader_random_ids_injective () =
  let rng = Rng.create 31 in
  let g = Builders.cycle 12 in
  let inputs = Leader.random_ids rng g in
  let ids = List.map inputs (Ss_prelude.Util.range 12) in
  check_int "12 distinct ids" 12 (List.length (List.sort_uniq compare ids))

let test_leader_t_bounded_by_diameter () =
  let rng = Rng.create 32 in
  for _ = 1 to 30 do
    let g = random_graph rng in
    let inputs = Leader.random_ids rng g in
    let h = Sync_runner.run Leader.algo g ~inputs in
    check "T <= D" true (h.Sync_runner.t <= Properties.diameter g);
    check "spec" true (Leader.spec_holds g ~inputs ~final:(Sync_runner.final h))
  done

(* ------------------------------------------------------------------ *)
(* BFS spanning tree                                                    *)
(* ------------------------------------------------------------------ *)

let test_bfs_on_path () =
  let g = Builders.path 4 in
  let inputs = Bfs.inputs g ~root:0 in
  let h = Sync_runner.run Bfs.algo g ~inputs in
  let final = Sync_runner.final h in
  check "spec" true (Bfs.spec_holds g ~root:0 ~final);
  check "root state" true (final.(0) = Bfs.Root);
  (* Every non-root points towards node 0 along the path. *)
  for p = 1 to 3 do
    check_int
      (Printf.sprintf "parent of %d" p)
      (p - 1)
      (Option.get (Bfs.parent_node g p final.(p)))
  done

let test_bfs_breaks_ties_by_port () =
  (* A 4-cycle: node 2 is at distance 2 from root 0 via both 1 and 3;
     it must pick its smallest port pointing to a settled neighbor. *)
  let g = Builders.cycle 4 in
  let inputs = Bfs.inputs g ~root:0 in
  let h = Sync_runner.run Bfs.algo g ~inputs in
  let final = Sync_runner.final h in
  check "spec" true (Bfs.spec_holds g ~root:0 ~final);
  match final.(2) with
  | Bfs.Parent k -> check_int "smallest settled port" 0 k
  | _ -> Alcotest.fail "node 2 has no parent"

let test_bfs_t_is_eccentricity () =
  let rng = Rng.create 33 in
  for _ = 1 to 30 do
    let g = random_graph rng in
    let root = Rng.int rng (Graph.n g) in
    let inputs = Bfs.inputs g ~root in
    let h = Sync_runner.run Bfs.algo g ~inputs in
    check_int "T = ecc(root)"
      (Properties.eccentricity g root)
      h.Sync_runner.t;
    check "spec" true (Bfs.spec_holds g ~root ~final:(Sync_runner.final h))
  done

let test_bfs_spec_rejects () =
  let g = Builders.path 3 in
  (* Node 2 pointing away from the root is not a BFS tree. *)
  check "bad tree rejected" false
    (Bfs.spec_holds g ~root:0 ~final:[| Bfs.Root; Bfs.Parent 1; Bfs.Parent 0 |]);
  check "missing parent rejected" false
    (Bfs.spec_holds g ~root:0 ~final:[| Bfs.Root; Bfs.Null; Bfs.Parent 0 |]);
  check "non-root Root rejected" false
    (Bfs.spec_holds g ~root:0 ~final:[| Bfs.Root; Bfs.Root; Bfs.Parent 0 |])

let test_bfs_parent_node_out_of_range () =
  let g = Builders.path 2 in
  check "garbage port resolves to None" true
    (Bfs.parent_node g 0 (Bfs.Parent 5) = None)

(* ------------------------------------------------------------------ *)
(* Shortest-path tree                                                   *)
(* ------------------------------------------------------------------ *)

let test_sp_unit_weights_match_bfs () =
  let g = Builders.grid ~rows:3 ~cols:3 in
  let weight _ _ = 1 in
  let inputs = Sp.inputs g ~weight ~root:0 in
  let h = Sync_runner.run Sp.algo g ~inputs in
  let final = Sync_runner.final h in
  check "spec" true (Sp.spec_holds g ~weight ~root:0 ~final);
  let bfs = Properties.bfs_distances g 0 in
  Graph.iter_nodes g (fun p ->
      check_int "unit weights = hop distance" bfs.(p) final.(p).Sp.dist)

let test_sp_weighted () =
  (* Triangle with a heavy direct edge: the two-hop route wins. *)
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let weight u v =
    match (min u v, max u v) with
    | 0, 1 -> 1
    | 1, 2 -> 1
    | 0, 2 -> 10
    | _ -> assert false
  in
  let inputs = Sp.inputs g ~weight ~root:0 in
  let h = Sync_runner.run Sp.algo g ~inputs in
  let final = Sync_runner.final h in
  check "spec" true (Sp.spec_holds g ~weight ~root:0 ~final);
  check_int "two-hop distance" 2 final.(2).Sp.dist;
  check "parent of 2 is 1" true
    ((Graph.neighbors g 2).(Option.get final.(2).Sp.parent) = 1)

let test_sp_random_vs_dijkstra () =
  let rng = Rng.create 34 in
  for _ = 1 to 30 do
    let g = random_graph rng in
    let weight = Sp.random_weights rng g ~max_weight:9 in
    let root = Rng.int rng (Graph.n g) in
    let inputs = Sp.inputs g ~weight ~root in
    let h = Sync_runner.run Sp.algo g ~inputs in
    let final = Sync_runner.final h in
    check "spec vs Dijkstra" true (Sp.spec_holds g ~weight ~root ~final);
    let reference = Sp.reference_distances g ~weight ~root in
    Graph.iter_nodes g (fun p ->
        check_int "distance matches" reference.(p) final.(p).Sp.dist)
  done

let test_sp_weights_symmetric () =
  let rng = Rng.create 35 in
  let g = Builders.cycle 5 in
  let weight = Sp.random_weights rng g ~max_weight:7 in
  List.iter
    (fun (u, v) ->
      check_int "symmetric" (weight u v) (weight v u);
      check "positive" true (weight u v >= 1 && weight u v <= 7))
    (Graph.edges g);
  check "non-edge rejected" true
    (try
       ignore (weight 0 2);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Leader + BFS composition                                             *)
(* ------------------------------------------------------------------ *)

let test_leader_bfs () =
  let rng = Rng.create 36 in
  for _ = 1 to 30 do
    let g = random_graph rng in
    let ids = Leader.random_ids rng g in
    let inputs = Lbfs.inputs ~ids g in
    let h = Sync_runner.run Lbfs.algo g ~inputs in
    check "spec" true (Lbfs.spec_holds g ~inputs ~final:(Sync_runner.final h));
    check "T <= D + 1" true
      (h.Sync_runner.t <= Properties.diameter g + 1)
  done

let test_leader_bfs_single_node () =
  let g = Builders.single () in
  let inputs = Lbfs.inputs ~ids:(fun _ -> 42) g in
  let h = Sync_runner.run Lbfs.algo g ~inputs in
  let final = Sync_runner.final h in
  check "self leader" true
    (final.(0).Lbfs.ldr = 42 && final.(0).Lbfs.dist = 0
    && final.(0).Lbfs.parent = None)

(* ------------------------------------------------------------------ *)
(* Cole–Vishkin                                                         *)
(* ------------------------------------------------------------------ *)

let test_cv_schedule_length () =
  (* 64-bit ids: 64 -> 7 -> 4 -> 3 widths, +1 reduction into {0..5},
     then 3 shift-down rounds. *)
  check_int "reduction iters (64)" 4 (Cv.reduction_iters 64);
  check_int "schedule (64)" 7 (Cv.schedule_length 64);
  check_int "reduction iters (3)" 1 (Cv.reduction_iters 3);
  check "schedule grows like log*" true
    (Cv.schedule_length (1 lsl 16) <= Cv.schedule_length (1 lsl 16) + 1)

(* [reduction_iters] answers from a table over widths 0..62; every
   entry must equal the iteration it tabulates, and widths outside the
   table still iterate. *)
let test_cv_reduction_table () =
  let iterate w =
    let rec go w acc =
      if w <= 3 then acc else go (Util.ceil_log2 w + 1) (acc + 1)
    in
    go (max w 1) 0 + 1
  in
  for w = -2 to 70 do
    check_int (Printf.sprintf "reduction iters (%d)" w) (iterate w)
      (Cv.reduction_iters w)
  done

let test_cv_small_ring () =
  let n = 6 in
  let g = Builders.cycle n in
  let ids p = p in
  let width = 3 in
  let inputs = Cv.inputs ~ids ~width g in
  let h = Sync_runner.run Cv.algo g ~inputs in
  check "proper 3-coloring" true (Cv.spec_holds g ~final:(Sync_runner.final h));
  check_int "T = schedule length" (Cv.schedule_length width) h.Sync_runner.t

let test_cv_properness_invariant () =
  (* Properness must hold after every synchronous round, not just at
     the end. *)
  let rng = Rng.create 37 in
  let n = 16 and width = 8 in
  let g = Builders.cycle n in
  let ids = Cv.random_ring_ids rng ~n ~width in
  let inputs = Cv.inputs ~ids ~width g in
  let h = Sync_runner.run Cv.algo g ~inputs in
  Array.iteri
    (fun r row ->
      Graph.iter_nodes g (fun p ->
          Array.iter
            (fun q ->
              check
                (Printf.sprintf "round %d: %d vs %d" r p q)
                true
                (row.(p).Cv.color <> row.(q).Cv.color))
            (Graph.neighbors g p)))
    h.Sync_runner.states_by_round

let test_cv_random_rings () =
  let rng = Rng.create 38 in
  List.iter
    (fun (n, width) ->
      let g = Builders.cycle n in
      let ids = Cv.random_ring_ids rng ~n ~width in
      let inputs = Cv.inputs ~ids ~width g in
      let h = Sync_runner.run Cv.algo g ~inputs in
      check
        (Printf.sprintf "n=%d w=%d" n width)
        true
        (Cv.spec_holds g ~final:(Sync_runner.final h)))
    [ (3, 2); (5, 4); (17, 6); (64, 8); (200, 16) ]

let test_cv_ids_distinct () =
  let rng = Rng.create 39 in
  let ids = Cv.random_ring_ids rng ~n:20 ~width:6 in
  let l = List.init 20 ids in
  check_int "distinct" 20 (List.length (List.sort_uniq compare l));
  check "bounded" true (List.for_all (fun id -> id >= 0 && id < 64) l);
  check "width too small rejected" true
    (try
       ignore (Cv.random_ring_ids rng ~n:10 ~width:3 : int -> int);
       false
     with Invalid_argument _ -> true)

let test_cv_spec_rejects () =
  let g = Builders.cycle 3 in
  let mk color = { Cv.color; round = 0 } in
  check "adjacent same color" false
    (Cv.spec_holds g ~final:[| mk 0; mk 0; mk 1 |]);
  check "color out of range" false
    (Cv.spec_holds g ~final:[| mk 0; mk 1; mk 5 |]);
  check "proper accepted" true (Cv.spec_holds g ~final:[| mk 0; mk 1; mk 2 |])

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:60 ~name:"CV yields a proper 3-coloring on random rings"
      (pair small_int (int_range 3 40))
      (fun (seed, n) ->
        let rng = Rng.create seed in
        let width = max 8 (Util.bit_width n) in
        let g = Builders.cycle n in
        let ids = Cv.random_ring_ids rng ~n ~width in
        let inputs = Cv.inputs ~ids ~width g in
        let h = Sync_runner.run Cv.algo g ~inputs in
        Cv.spec_holds g ~final:(Sync_runner.final h));
    Test.make ~count:60 ~name:"leader election T is at most the diameter"
      small_int
      (fun seed ->
        let rng = Rng.create seed in
        let g = random_graph rng in
        let inputs = Leader.random_ids rng g in
        let h = Sync_runner.run Leader.algo g ~inputs in
        h.Sync_runner.t <= Properties.diameter g);
    Test.make ~count:60 ~name:"BFS parents form a spanning tree" small_int
      (fun seed ->
        let rng = Rng.create seed in
        let g = random_graph rng in
        let root = Rng.int rng (Graph.n g) in
        let inputs = Bfs.inputs g ~root in
        let h = Sync_runner.run Bfs.algo g ~inputs in
        Bfs.spec_holds g ~root ~final:(Sync_runner.final h));
  ]

let () =
  Alcotest.run "algorithms"
    [
      ( "flood",
        [
          Alcotest.test_case "min flood" `Quick test_min_flood_spec;
          Alcotest.test_case "min flood rejects" `Quick test_min_flood_spec_rejects;
          Alcotest.test_case "max flood" `Quick test_max_flood;
        ] );
      ( "leader",
        [
          Alcotest.test_case "sequential ids" `Quick test_leader_sequential_ids;
          Alcotest.test_case "random ids injective" `Quick
            test_leader_random_ids_injective;
          Alcotest.test_case "T bounded by D" `Quick
            test_leader_t_bounded_by_diameter;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "path" `Quick test_bfs_on_path;
          Alcotest.test_case "tie break by port" `Quick
            test_bfs_breaks_ties_by_port;
          Alcotest.test_case "T = eccentricity" `Quick test_bfs_t_is_eccentricity;
          Alcotest.test_case "spec rejects" `Quick test_bfs_spec_rejects;
          Alcotest.test_case "garbage port" `Quick
            test_bfs_parent_node_out_of_range;
        ] );
      ( "shortest-path",
        [
          Alcotest.test_case "unit weights" `Quick test_sp_unit_weights_match_bfs;
          Alcotest.test_case "weighted triangle" `Quick test_sp_weighted;
          Alcotest.test_case "random vs Dijkstra" `Quick test_sp_random_vs_dijkstra;
          Alcotest.test_case "weights symmetric" `Quick test_sp_weights_symmetric;
        ] );
      ( "leader-bfs",
        [
          Alcotest.test_case "random graphs" `Quick test_leader_bfs;
          Alcotest.test_case "single node" `Quick test_leader_bfs_single_node;
        ] );
      ( "cole-vishkin",
        [
          Alcotest.test_case "schedule length" `Quick test_cv_schedule_length;
          Alcotest.test_case "reduction table" `Quick test_cv_reduction_table;
          Alcotest.test_case "small ring" `Quick test_cv_small_ring;
          Alcotest.test_case "properness invariant" `Quick
            test_cv_properness_invariant;
          Alcotest.test_case "random rings" `Quick test_cv_random_rings;
          Alcotest.test_case "ids distinct" `Quick test_cv_ids_distinct;
          Alcotest.test_case "spec rejects" `Quick test_cv_spec_rejects;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
