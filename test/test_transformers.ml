(* The pluggable transformer layer: the adaptive transformer against
   its naive reference twin (boxed and packed), the fully-adaptive
   fault-locality claim on path-256, the registry/catalog contracts
   behind `fasst transformers` and `fasst list`, the sharded
   watermark-cache pin, and the LCL legitimacy checkers against
   brute-force re-implementations. *)

module Graph = Ss_graph.Graph
module Builders = Ss_graph.Builders
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Rng = Ss_prelude.Rng
module St = Ss_core.Trans_state
module P = Ss_core.Predicates
module Checker = Ss_core.Checker
module Registry = Ss_core.Registry
module Transformer = Ss_core.Registry.Trans
module Adaptive = Ss_adaptive.Adaptive
module Catalog = Ss_expt.Catalog
module Sync_runner = Ss_sync.Sync_runner
module Leader = Ss_algos.Leader_election
module Min_flood = Ss_algos.Min_flood
module Bfs = Ss_algos.Bfs_tree
module Mis = Ss_algos.Mis
module Matching = Ss_algos.Matching
module Coloring = Ss_algos.Coloring

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Registry and catalog contracts                                       *)
(* ------------------------------------------------------------------ *)

let test_registry_contents () =
  (* Referencing Catalog (done above) registers rollback and adaptive;
     trans self-registers.  Registration order is the table order. *)
  let names = List.map Registry.name (Catalog.transformers ()) in
  Alcotest.(check (list string))
    "registered transformers"
    [ "trans"; "rollback"; "adaptive" ]
    names;
  check "find is find_exn" true
    (Registry.name (Catalog.find_transformer "adaptive") = "adaptive");
  check "unknown transformer raises" true
    (try
       ignore (Catalog.find_transformer "nope");
       false
     with _ -> true)

let test_ring_only_validation () =
  List.iter
    (fun name ->
      let a = Catalog.find_algo name in
      check (name ^ " is ring-only") true a.Catalog.ring_only;
      check
        (name ^ " accepted on a ring")
        true
        (Catalog.validate_topology a (Builders.cycle 8) = Ok ());
      check
        (name ^ " rejected on a path")
        true
        (match Catalog.validate_topology a (Builders.path 8) with
        | Error _ -> true
        | Ok () -> false))
    [ "cv"; "ringmis" ];
  let mis = Catalog.find_algo "mis" in
  check "general algorithms accept any graph" true
    (Catalog.validate_topology mis (Builders.path 8) = Ok ())

let test_adaptive_rejects_infinite () =
  let params = Transformer.params Min_flood.algo in
  check "supports = Error on an infinite bound" true
    (match Adaptive.Entry.supports params with
    | Error _ -> true
    | Ok () -> false);
  check "algorithm raises on an infinite bound" true
    (try
       ignore (Adaptive.algorithm params);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Adaptive differential: run ≡ run_naive, packed ≡ boxed               *)
(* ------------------------------------------------------------------ *)

let daemon_factories seed =
  [
    ("sync", fun () -> Daemon.synchronous);
    ("async", fun () -> Daemon.distributed_random (Rng.create seed) ~p:0.5);
  ]

let assert_stats msg (a : _ Engine.stats) (b : _ Engine.stats) =
  check_int (msg ^ ": steps") a.Engine.steps b.Engine.steps;
  check_int (msg ^ ": moves") a.Engine.moves b.Engine.moves;
  check_int (msg ^ ": rounds") a.Engine.rounds b.Engine.rounds;
  check (msg ^ ": terminated") a.Engine.terminated b.Engine.terminated;
  Alcotest.(check (list (pair string int)))
    (msg ^ ": moves per rule")
    a.Engine.moves_per_rule b.Engine.moves_per_rule

(* Same corrupted scenario from identically seeded rngs, once boxed on
   the dirty-set engine, once boxed on the naive reference, once packed
   on the dirty-set engine — all three must be the same execution. *)
let adaptive_differential (type s i) ~msg ~seed ~bound
    ~(codec : s Ss_core.Cellpack.codec) (sync : (s, i) Ss_sync.Sync_algo.t)
    (graph : Graph.t) (inputs : int -> i) =
  let params = Transformer.params ~bound:(P.Finite bound) sync in
  let start ?codec () =
    let clean =
      match codec with
      | Some codec -> Adaptive.packed_config params ~codec graph ~inputs
      | None -> Adaptive.clean_config params graph ~inputs
    in
    Adaptive.corrupt (Rng.create seed) ~max_height:bound params clean
  in
  let eq = St.equal sync.Ss_sync.Sync_algo.equal in
  check (msg ^ ": packed and boxed corrupted starts agree") true
    (Config.equal eq (start ~codec ()) (start ()));
  List.iter
    (fun (dname, factory) ->
      let msg = Printf.sprintf "%s/%s/seed=%d" msg dname seed in
      let fast = Adaptive.Entry.run params (factory ()) (start ()) in
      let naive = Adaptive.Entry.run_naive params (factory ()) (start ()) in
      assert_stats msg fast naive;
      check (msg ^ ": same final configuration") true
        (Config.equal eq fast.Engine.final naive.Engine.final);
      let packed =
        Adaptive.Entry.run ~self_check:true params (factory ()) (start ~codec ())
      in
      assert_stats (msg ^ "/packed") packed naive;
      check (msg ^ ": packed same final") true
        (Config.equal eq packed.Engine.final naive.Engine.final);
      (* Terminal ⇒ adaptive legitimacy: every list at B with the
         correct simulation contents. *)
      let hist = Sync_runner.run sync graph ~inputs in
      check (msg ^ ": terminated") true fast.Engine.terminated;
      check (msg ^ ": legitimate terminal") true
        (Adaptive.Entry.legitimate_terminal params hist fast.Engine.final
        = Ok ()))
    (daemon_factories seed)

let seeds = [ 1; 2; 3 ]

let test_adaptive_differential_leader () =
  List.iter
    (fun seed ->
      let graph = Builders.torus ~rows:4 ~cols:5 in
      let inputs = Leader.random_ids (Rng.create (seed + 100)) graph in
      adaptive_differential ~msg:"adaptive/leader" ~seed ~bound:6
        ~codec:Leader.codec Leader.algo graph inputs)
    seeds

let test_adaptive_differential_minflood () =
  List.iter
    (fun seed ->
      let graph = Builders.cycle 12 in
      adaptive_differential ~msg:"adaptive/minflood" ~seed ~bound:7
        ~codec:Min_flood.codec Min_flood.algo graph
        (fun p -> (p * 31) mod 17))
    seeds

let test_adaptive_differential_bfs () =
  List.iter
    (fun seed ->
      let graph = Builders.random4 (Rng.create (seed + 7)) 16 in
      let inputs = Bfs.inputs graph ~root:0 in
      adaptive_differential ~msg:"adaptive/bfs" ~seed ~bound:5 ~codec:Bfs.codec
        Bfs.algo graph inputs)
    seeds

(* ------------------------------------------------------------------ *)
(* The fully-adaptive claim: recovery work scales with k, not n         *)
(* ------------------------------------------------------------------ *)

(* Min-flood on a path with distinct inputs: the minimum walks the
   whole path, so T = n - 1 and every list is n - 1 cells deep — the
   regime where §3's error broadcast costs Θ(n) while a point fault
   should stay local. *)
let locality_setup () =
  let n = 256 in
  let graph = Builders.path n in
  let inputs p = p in
  let hist = Sync_runner.run Min_flood.algo graph ~inputs in
  let params =
    Transformer.params ~bound:(P.Finite hist.Sync_runner.t) Min_flood.algo
  in
  (n, graph, inputs, hist, params)

(* Deterministic content fault: overwrite one mid-list cell of [v]
   with a wrong value (min-flood cells are ints; any larger value is
   refutable from the neighbors). *)
let flip_mid_cell config v =
  let st = config.Config.states.(v) in
  let cells = St.cells st in
  let i = Array.length cells / 2 in
  cells.(i) <- cells.(i) + 1000;
  config.Config.states.(v) <- St.rebuild st ~status:(St.status st) ~cells

let moved_nodes (stats : _ Engine.stats) =
  Array.fold_left
    (fun acc m -> if m > 0 then acc + 1 else acc)
    0 stats.Engine.moves_per_node

let test_fault_locality () =
  let n, graph, inputs, hist, params = locality_setup () in
  let victims k = List.init k (fun i -> 16 + i * (n / k)) in
  let adaptive_moved =
    List.map
      (fun k ->
        let config = Adaptive.converged_config params hist graph ~inputs in
        List.iter (flip_mid_cell config) (victims k);
        let stats = Adaptive.Entry.run params Daemon.synchronous config in
        check (Printf.sprintf "adaptive k=%d terminated" k) true
          stats.Engine.terminated;
        check (Printf.sprintf "adaptive k=%d legitimate" k) true
          (Adaptive.Entry.legitimate_terminal params hist stats.Engine.final
          = Ok ());
        let moved = moved_nodes stats in
        check (Printf.sprintf "adaptive k=%d touches all victims" k) true
          (moved >= k);
        (* Fault locality: each victim recruits at most itself and a
           bounded contamination radius — far below n. *)
        check
          (Printf.sprintf "adaptive k=%d moved %d <= 4k+2" k moved)
          true
          (moved <= (4 * k) + 2);
        (k, moved))
      [ 1; 2; 4; 8 ]
  in
  List.iter
    (fun (k, moved) ->
      check (Printf.sprintf "adaptive k=%d stays local (%d < n/4)" k moved)
        true
        (moved < n / 4))
    adaptive_moved;
  (* The §3 contrast: the same single point fault triggers the error
     broadcast and recruits work proportional to n. *)
  let config = Adaptive.converged_config params hist graph ~inputs in
  List.iter (flip_mid_cell config) (victims 1);
  let stats = Transformer.run params Daemon.synchronous config in
  check "trans k=1 terminated" true stats.Engine.terminated;
  let trans_moved = moved_nodes stats in
  let _, adaptive_k1 = List.hd adaptive_moved in
  check
    (Printf.sprintf "trans k=1 cascades (%d moved nodes > n/2)" trans_moved)
    true
    (trans_moved > n / 2);
  check "adaptive beats trans by an order of magnitude" true
    (trans_moved > 10 * adaptive_k1)

(* ------------------------------------------------------------------ *)
(* Sharded runs exercise the per-domain watermark cache                 *)
(* ------------------------------------------------------------------ *)

let test_sharded_cache_hits () =
  let saved = Ss_par.Par.jobs () in
  Fun.protect
    ~finally:(fun () -> Ss_par.Par.set_jobs saved)
    (fun () ->
      Ss_par.Par.set_jobs 4;
      let graph = Builders.torus ~rows:150 ~cols:150 in
      let inputs = Leader.random_ids (Rng.create 11) graph in
      let params = Transformer.params ~bound:(P.Finite 4) Leader.algo in
      let start () =
        Transformer.corrupt (Rng.create 11) ~max_height:4 params
          (Transformer.clean_config params graph ~inputs)
      in
      let hits0 = P.cache_hits () in
      let sharded =
        Transformer.run ~sharded:true params Daemon.synchronous (start ())
      in
      (* The pin for the DLS refactor: the sharded guard sweeps must
         run on the cached predicates (one watermark cache per pool
         domain), not fall back to the uncached reference. *)
      check "sharded run exercises the watermark cache" true
        (P.cache_hits () - hits0 > 0);
      let sequential =
        Transformer.run params Daemon.synchronous (start ())
      in
      assert_stats "sharded ≡ sequential" sharded sequential;
      check "sharded same final" true
        (Config.equal (St.equal Int.equal) sharded.Engine.final
           sequential.Engine.final))

(* ------------------------------------------------------------------ *)
(* The transformers grid itself                                         *)
(* ------------------------------------------------------------------ *)

let test_grid_small () =
  let table =
    Ss_expt.Transformers_expt.rows
      ~algos:[ "leader"; "mis"; "cv" ]
      ~graphs:[ ("ring:8", Builders.cycle 8); ("path:6", Builders.path 6) ]
      ~seeds:[ 1 ] (Rng.create 5)
  in
  check "every cell legitimate" true (Ss_expt.Measure.ok table);
  let rows = Ss_prelude.Table.rows table in
  (* 3 transformers × 3 algos × 2 graphs, n/a rows included. *)
  check_int "full cross product" 18 (List.length rows);
  let na =
    List.length
      (List.filter
         (fun row ->
           match List.rev row with
           | Ss_prelude.Table.S "n/a" :: _ -> true
           | _ -> false)
         rows)
  in
  (* cv is ring-only: one n/a row per transformer on the path. *)
  check_int "ring-only rows render as n/a" 3 na

(* ------------------------------------------------------------------ *)
(* LCL checkers vs brute force (n <= 12)                                *)
(* ------------------------------------------------------------------ *)

let naive_mis g in_set =
  Graph.fold_nodes g ~init:true ~f:(fun acc u ->
      acc
      &&
      if in_set u then
        Array.for_all (fun v -> not (in_set v)) (Graph.neighbors g u)
      else Array.exists in_set (Graph.neighbors g u))

let naive_matching g partner =
  Graph.fold_nodes g ~init:true ~f:(fun acc u ->
      acc
      &&
      match partner u with
      | Some v ->
          v <> u && Graph.mem_edge g u v && partner v = Some u
      | None ->
          Array.for_all (fun v -> partner v <> None) (Graph.neighbors g u))

let naive_coloring g max_colors color =
  List.for_all (fun (u, v) -> color u <> color v) (Graph.edges g)
  && Graph.fold_nodes g ~init:true ~f:(fun acc u ->
         acc && color u >= 0 && color u < max_colors)

let random_graph rng =
  let n = 2 + Rng.int rng 11 in
  let g = Builders.random_connected rng ~n ~extra_edges:(Rng.int rng n) in
  (n, g)

(* The synchronous LCL algorithms reach a fixpoint whose outputs both
   the checker and the brute-force twin accept — and any single-node
   perturbation is rejected by both. *)
let qcheck_lcl_tests =
  let open QCheck in
  [
    Test.make ~count:300 ~name:"mis checker ≡ brute force" small_int
      (fun seed ->
        let rng = Rng.create seed in
        let n, g = random_graph rng in
        let member = Array.init n (fun _ -> Rng.bool rng) in
        let in_set p = member.(p) in
        Checker.mis_legitimate g ~in_set = naive_mis g in_set);
    Test.make ~count:300 ~name:"matching checker ≡ brute force" small_int
      (fun seed ->
        let rng = Rng.create seed in
        let n, g = random_graph rng in
        (* Random partner maps: mostly mutual pairs of neighbors, with
           occasional broken (one-sided / non-adjacent) entries so the
           negative paths are exercised too. *)
        let partner = Array.make n None in
        for _ = 1 to n do
          let u = Rng.int rng n in
          let nbs = Graph.neighbors g u in
          if Array.length nbs > 0 then begin
            let v = nbs.(Rng.int rng (Array.length nbs)) in
            partner.(u) <- Some v;
            if Rng.int rng 4 > 0 then partner.(v) <- Some u
          end
        done;
        if Rng.int rng 3 = 0 then partner.(Rng.int rng n) <- Some (Rng.int rng n);
        let p u = partner.(u) in
        Checker.matching_legitimate g ~partner:p = naive_matching g p);
    Test.make ~count:300 ~name:"coloring checker ≡ brute force" small_int
      (fun seed ->
        let rng = Rng.create seed in
        let n, g = random_graph rng in
        let max_colors = Graph.max_degree g + 1 in
        let colors =
          Array.init n (fun _ -> Rng.int rng (max_colors + 2) - 1)
        in
        let color p = colors.(p) in
        Checker.coloring_legitimate g ~max_colors ~color
        = naive_coloring g max_colors color);
    Test.make ~count:100 ~name:"LCL fixpoints are legitimate; flips are not"
      small_int
      (fun seed ->
        let rng = Rng.create seed in
        let n, g = random_graph rng in
        let ids = Array.init n (fun p -> ((p * 37) + seed) mod 1009) in
        let distinct = Array.length (Array.of_seq
          (Hashtbl.to_seq_keys
            (let h = Hashtbl.create 16 in
             Array.iter (fun i -> Hashtbl.replace h i ()) ids;
             h))) = n in
        QCheck.assume distinct;
        let inputs p = ids.(p) in
        (* MIS *)
        let mis_final = Sync_runner.final (Sync_runner.run Mis.algo g ~inputs) in
        check "mis spec holds at fixpoint" true
          (Mis.spec_holds g ~inputs ~final:mis_final);
        let in_set p = mis_final.(p).Mis.mem = Mis.In in
        let v = Rng.int rng n in
        let flipped p = if p = v then not (in_set p) else in_set p in
        check "single-bit MIS flip rejected" false
          (Checker.mis_legitimate g ~in_set:flipped);
        (* Matching *)
        let m_final =
          Sync_runner.final (Sync_runner.run Matching.algo g ~inputs)
        in
        check "matching spec holds at fixpoint" true
          (Matching.spec_holds g ~inputs ~final:m_final);
        (* Coloring *)
        let c_final =
          Sync_runner.final (Sync_runner.run Coloring.algo g ~inputs)
        in
        check "coloring spec holds at fixpoint" true
          (Coloring.spec_holds g ~inputs ~final:c_final);
        let color p = c_final.(p).Coloring.color in
        let u, w = List.hd (Graph.edges g) in
        let mono p = if p = u then color w else color p in
        check "monochromatic edge rejected" false
          (Checker.coloring_legitimate g
             ~max_colors:(Graph.max_degree g + 1)
             ~color:mono);
        true);
  ]

let () =
  Alcotest.run "transformers"
    [
      ( "registry",
        [
          Alcotest.test_case "contents" `Quick test_registry_contents;
          Alcotest.test_case "ring-only validation" `Quick
            test_ring_only_validation;
          Alcotest.test_case "adaptive rejects infinite bounds" `Quick
            test_adaptive_rejects_infinite;
        ] );
      ( "adaptive-differential",
        [
          Alcotest.test_case "leader torus" `Quick
            test_adaptive_differential_leader;
          Alcotest.test_case "minflood ring" `Quick
            test_adaptive_differential_minflood;
          Alcotest.test_case "bfs random4" `Quick
            test_adaptive_differential_bfs;
        ] );
      ( "fault-locality",
        [ Alcotest.test_case "path-256 point faults" `Quick test_fault_locality ] );
      ( "sharding",
        [
          Alcotest.test_case "cache hits under sharding" `Quick
            test_sharded_cache_hits;
        ] );
      ("grid", [ Alcotest.test_case "small grid" `Quick test_grid_small ]);
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_lcl_tests);
    ]
