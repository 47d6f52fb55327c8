(* Tests for the hand-crafted baselines: Dijkstra's K-state token ring
   (the paper's reference [27]) and the naive min+1 BFS. *)

module Builders = Ss_graph.Builders
module Graph = Ss_graph.Graph
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Dijkstra = Ss_baselines.Dijkstra_ring
module Naive = Ss_baselines.Naive_bfs
module Rng = Ss_prelude.Rng

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Dijkstra's token ring                                                *)
(* ------------------------------------------------------------------ *)

let ring_config n states =
  let g = Builders.cycle n in
  Config.make g ~inputs:(Dijkstra.inputs ~n ()) ~states:(fun p -> states p)

let test_inputs_validation () =
  check "K < n rejected" true
    (try
       ignore (Dijkstra.inputs ~n:5 ~k:4 () 0);
       false
     with Invalid_argument _ -> true)

let test_legitimate_configuration () =
  (* All equal: only machine 0 is privileged. *)
  let c = ring_config 5 (fun _ -> 3) in
  Alcotest.(check (list int)) "root privileged" [ 0 ] (Dijkstra.privileged c);
  check "legitimate" true (Dijkstra.legitimate c)

let test_token_circulates () =
  (* From the legitimate all-equal configuration the privilege visits
     every machine in ring order. *)
  let n = 5 in
  let c = ref (ring_config n (fun _ -> 0)) in
  let visits = ref [] in
  for _ = 1 to n do
    let p = List.hd (Dijkstra.privileged !c) in
    visits := p :: !visits;
    let c', _ = Engine.step Dijkstra.algo !c [ p ] in
    c := c'
  done;
  Alcotest.(check (list int)) "visit order" [ 0; 1; 2; 3; 4 ] (List.rev !visits);
  check "still legitimate" true (Dijkstra.legitimate !c)

let test_convergence_from_arbitrary () =
  let rng = Rng.create 4 in
  for _ = 1 to 20 do
    let n = 3 + Rng.int rng 10 in
    let states = Array.init n (fun _ -> Rng.int rng (n + 1)) in
    let c = ring_config n (fun p -> states.(p)) in
    let daemon =
      match Rng.int rng 3 with
      | 0 -> Daemon.central_random (Rng.split rng)
      | 1 -> Daemon.central_min
      | _ -> Daemon.distributed_random (Rng.split rng) ~p:0.5
    in
    match Dijkstra.run_to_legitimacy daemon c with
    | Some (_, _, legit) ->
        check "legitimate" true (Dijkstra.legitimate legit);
        check "closure" true
          (Dijkstra.closure_holds (Daemon.central_random (Rng.split rng)) legit)
    | None -> Alcotest.fail "did not converge"
  done

let test_never_silent () =
  (* The token ring never reaches a terminal configuration — unlike the
     transformer's silent outputs. *)
  let c = ring_config 4 (fun _ -> 1) in
  let stats =
    Engine.run ~budget:(Ss_report.Budget.v ~steps:100 ()) Dijkstra.algo
      Daemon.central_min c
  in
  check "still running after 100 steps" false stats.Engine.terminated

let test_always_some_privilege () =
  (* At least one machine is privileged in any configuration. *)
  let rng = Rng.create 9 in
  for _ = 1 to 50 do
    let n = 3 + Rng.int rng 8 in
    let c = ring_config n (fun _ -> Rng.int rng (n + 1)) in
    check "some privilege" true (Dijkstra.privileged c <> [])
  done

(* ------------------------------------------------------------------ *)
(* Naive BFS                                                            *)
(* ------------------------------------------------------------------ *)

let test_naive_bfs_converges () =
  let rng = Rng.create 6 in
  for _ = 1 to 20 do
    let n = 3 + Rng.int rng 10 in
    let g = Builders.random_connected rng ~n ~extra_edges:(Rng.int rng 5) in
    let root = Rng.int rng n in
    let inputs = Naive.inputs g ~root () in
    let c =
      Config.make g ~inputs ~states:(fun _ -> Rng.int rng (n + 1))
    in
    let daemon = Daemon.distributed_random (Rng.split rng) ~p:0.5 in
    let stats = Engine.run Naive.algo daemon c in
    check "terminated" true stats.Engine.terminated;
    check "exact distances" true
      (Naive.spec_holds g ~root ~final:stats.Engine.final.Config.states)
  done

let test_naive_bfs_dmax_caps () =
  (* A disconnected-looking estimate cannot exceed dmax. *)
  let g = Builders.path 3 in
  let inputs = Naive.inputs g ~root:0 ~dmax:5 () in
  let c = Config.make g ~inputs ~states:(fun _ -> 99) in
  let stats = Engine.run Naive.algo Daemon.synchronous c in
  check "terminated" true stats.Engine.terminated;
  Array.iter
    (fun d -> check "capped" true (d <= 5))
    stats.Engine.final.Config.states

let test_adversarial_crawl_is_quadratic () =
  (* On a rooted path from an all-zero start, the tailored adversary
     forces the Θ(n²) underestimate crawl. *)
  let moves n =
    let g = Builders.path n in
    let inputs = Naive.inputs g ~root:0 () in
    let m, ok = Naive.adversarial_run (Config.make g ~inputs ~states:(fun _ -> 0)) in
    check "terminates" true ok;
    m
  in
  let m8 = moves 8 and m16 = moves 16 and m32 = moves 32 in
  (* Quadratic growth: doubling n roughly quadruples moves. *)
  check "m16 >= 3 * m8" true (m16 >= 3 * m8);
  check "m32 >= 3 * m16" true (m32 >= 3 * m16);
  (* And matches the closed form sum ~ n^2/2 within a factor. *)
  check "order n^2" true (m32 >= (32 * 32 / 2) - 32 && m32 <= 32 * 32)

let test_adversarial_result_correct () =
  let g = Builders.lollipop ~clique:5 ~tail:7 in
  let inputs = Naive.inputs g ~root:0 () in
  let c = Config.make g ~inputs ~states:(fun _ -> 0) in
  let _m, ok = Naive.adversarial_run c in
  check "terminates" true ok

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:60 ~name:"Dijkstra ring stabilizes and keeps one token"
      (pair small_int (int_range 3 10))
      (fun (seed, n) ->
        let rng = Rng.create (seed + 1) in
        let states = Array.init n (fun _ -> Rng.int rng (n + 1)) in
        let c = ring_config n (fun p -> states.(p)) in
        match
          Dijkstra.run_to_legitimacy (Daemon.central_random rng) c
        with
        | Some (_, _, legit) ->
            Dijkstra.legitimate legit
            && Dijkstra.closure_holds (Daemon.central_random rng) legit
        | None -> false);
    Test.make ~count:60 ~name:"naive BFS reaches exact distances" small_int
      (fun seed ->
        let rng = Rng.create (seed + 1) in
        let n = 3 + Rng.int rng 8 in
        let g = Builders.random_connected rng ~n ~extra_edges:2 in
        let inputs = Naive.inputs g ~root:0 () in
        let c = Config.make g ~inputs ~states:(fun _ -> Rng.int rng n) in
        let stats = Engine.run Naive.algo Daemon.synchronous c in
        stats.Engine.terminated
        && Naive.spec_holds g ~root:0 ~final:stats.Engine.final.Config.states);
  ]

let () =
  Alcotest.run "baselines"
    [
      ( "dijkstra-ring",
        [
          Alcotest.test_case "inputs validation" `Quick test_inputs_validation;
          Alcotest.test_case "legitimate configuration" `Quick
            test_legitimate_configuration;
          Alcotest.test_case "token circulates" `Quick test_token_circulates;
          Alcotest.test_case "convergence" `Quick test_convergence_from_arbitrary;
          Alcotest.test_case "never silent" `Quick test_never_silent;
          Alcotest.test_case "always some privilege" `Quick
            test_always_some_privilege;
        ] );
      ( "naive-bfs",
        [
          Alcotest.test_case "converges" `Quick test_naive_bfs_converges;
          Alcotest.test_case "dmax caps" `Quick test_naive_bfs_dmax_caps;
          Alcotest.test_case "adversarial crawl quadratic" `Quick
            test_adversarial_crawl_is_quadratic;
          Alcotest.test_case "adversarial on lollipop" `Quick
            test_adversarial_result_correct;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
