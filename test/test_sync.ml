(* Tests for Ss_sync: the synchronous reference runner. *)

module Graph = Ss_graph.Graph
module Builders = Ss_graph.Builders
module Properties = Ss_graph.Properties
module Sync_algo = Ss_sync.Sync_algo
module Sync_runner = Ss_sync.Sync_runner
module Min_flood = Ss_algos.Min_flood
module Toy = Ss_algos.Toy
module Rng = Ss_prelude.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_constant_terminates_immediately () =
  let g = Builders.cycle 5 in
  let h = Sync_runner.run Toy.constant g ~inputs:(fun p -> p) in
  check_int "T = 0" 0 h.Sync_runner.t;
  check_int "single row" 1 (Array.length h.Sync_runner.states_by_round);
  Alcotest.(check (array int)) "fixpoint = inputs" [| 0; 1; 2; 3; 4 |]
    (Sync_runner.final h)

let test_clock_execution_time () =
  let g = Builders.path 3 in
  let h = Sync_runner.run Toy.clock g ~inputs:(fun _ -> 7) in
  check_int "T = K" 7 (Sync_runner.execution_time h);
  Alcotest.(check (array int)) "fixpoint" [| 7; 7; 7 |] (Sync_runner.final h);
  (* Row i holds the value i at every node. *)
  for i = 0 to 7 do
    check_int (Printf.sprintf "row %d" i) i
      h.Sync_runner.states_by_round.(i).(1)
  done

let test_min_flood_history () =
  let g = Builders.path 4 in
  let values = [| 5; 9; 9; 9 |] in
  let h = Sync_runner.run Min_flood.algo g ~inputs:(fun p -> values.(p)) in
  check_int "T = ecc of the minimum" 3 h.Sync_runner.t;
  (* st_p^i is the minimum over the closed i-ball around p. *)
  for i = 0 to 3 do
    for p = 0 to 3 do
      let expect = if p <= i then 5 else 9 in
      check_int
        (Printf.sprintf "st_%d^%d" p i)
        expect
        h.Sync_runner.states_by_round.(i).(p)
    done
  done

let test_state_at_clamps () =
  let g = Builders.path 2 in
  let h = Sync_runner.run Min_flood.algo g ~inputs:(fun p -> p) in
  check_int "at T" 0 (Sync_runner.state_at h ~round:h.Sync_runner.t ~node:1);
  check_int "beyond T clamps" 0 (Sync_runner.state_at h ~round:1000 ~node:1)

let test_min_flood_t_is_eccentricity () =
  let rng = Rng.create 11 in
  for _ = 1 to 30 do
    let n = 2 + Rng.int rng 10 in
    let g = Builders.random_connected rng ~n ~extra_edges:(Rng.int rng 4) in
    let minimum = Rng.int rng n in
    (* Unique minimum at node [minimum]. *)
    let inputs p = if p = minimum then 0 else 10 + p in
    let h = Sync_runner.run Min_flood.algo g ~inputs in
    check "T <= ecc(min)" true
      (h.Sync_runner.t <= Properties.eccentricity g minimum);
    check "all nodes converged to 0" true
      (Array.for_all (fun s -> s = 0) (Sync_runner.final h))
  done

let test_did_not_terminate () =
  (* A blinker never reaches a fixpoint. *)
  let blinker =
    {
      Sync_algo.sync_name = "blinker";
      equal = Int.equal;
      init = (fun _ -> 0);
      step = (fun _ self _ -> 1 - self);
      random_state = (fun _ _ -> 0);
      state_bits = (fun _ -> 1);
      pp_state = Format.pp_print_int;
    }
  in
  let g = Builders.path 2 in
  check "raises Did_not_terminate" true
    (try
       ignore
         (Sync_runner.run ~budget:(Ss_report.Budget.v ~steps:50 ()) blinker g
            ~inputs:(fun _ -> ()));
       false
     with Sync_runner.Did_not_terminate _ -> true)

let test_max_state_bits () =
  let g = Builders.path 3 in
  let h = Sync_runner.run Min_flood.algo g ~inputs:(fun p -> 100 * p) in
  (* The largest value ever stored is 200: 1 sign bit + 8 value bits. *)
  check_int "S" 9 (Sync_runner.max_state_bits Min_flood.algo h)

let test_apply () =
  check_int "one step of min-flood" 2
    (Sync_algo.apply Min_flood.algo 0 5 [| 2; 7 |])

let test_history_metadata () =
  let g = Builders.cycle 4 in
  let h = Sync_runner.run Min_flood.algo g ~inputs:(fun p -> p) in
  check_int "graph carried" 4 (Graph.n h.Sync_runner.graph);
  Alcotest.(check (array int)) "inputs carried" [| 0; 1; 2; 3 |]
    h.Sync_runner.inputs

(* The history as a per-round full recompute: every node steps every
   round, on a fresh neighbour array, until a round changes nothing or
   [stop_after] rounds ran. *)
let recomputed ?stop_after algo g ~inputs =
  let n = Graph.n g in
  let step row =
    Array.init n (fun p ->
        algo.Sync_algo.step (inputs p) row.(p)
          (Array.map (fun q -> row.(q)) (Graph.neighbors g p)))
  in
  let rec go rows row round =
    let stopped = match stop_after with Some s -> round >= s | None -> false in
    let next = if stopped then row else step row in
    if stopped || Ss_prelude.Util.array_equal algo.Sync_algo.equal row next then
      (Array.of_list (List.rev rows), round)
    else go (next :: rows) next (round + 1)
  in
  let row0 = Array.init n (fun p -> algo.Sync_algo.init (inputs p)) in
  go [ row0 ] row0 0

let rows_equal algo a b =
  Array.length a = Array.length b
  && Array.for_all2 (Ss_prelude.Util.array_equal algo.Sync_algo.equal) a b

(* The dirty-set runner against the full recompute: same rows, same
   [t], for min-flood, leader election and the clock (whose nodes keep
   changing after their neighbours stop) on random graphs, run to the
   fixpoint or cut at a random round. *)
let qcheck_incremental_history =
  QCheck.Test.make ~count:150
    ~name:"incremental history = per-round full recompute"
    QCheck.(pair small_int (int_range 2 24))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Builders.random_connected rng ~n ~extra_edges:(Rng.int rng 6) in
      let stop_after = if Rng.bool rng then None else Some (Rng.int rng (n + 2)) in
      let agree algo inputs =
        let h = Sync_runner.run ?stop_after algo g ~inputs in
        let rows, t = recomputed ?stop_after algo g ~inputs in
        h.Sync_runner.t = t && rows_equal algo h.Sync_runner.states_by_round rows
      in
      let values = Array.init n (fun _ -> Rng.int rng 50) in
      let ids = Ss_algos.Leader_election.random_ids (Rng.split rng) g in
      agree Min_flood.algo (fun p -> values.(p))
      && agree Ss_algos.Leader_election.algo ids
      && agree Toy.clock (fun p -> values.(p) mod 7))

let qcheck_tests =
  let open QCheck in
  [
    qcheck_incremental_history;
    Test.make ~count:80
      ~name:"history rows obey the synchronous step relation"
      (pair small_int (int_range 2 8))
      (fun (seed, n) ->
        let rng = Rng.create seed in
        let g = Builders.random_connected rng ~n ~extra_edges:2 in
        let values = Array.init n (fun _ -> Rng.int rng 50) in
        let h = Sync_runner.run Min_flood.algo g ~inputs:(fun p -> values.(p)) in
        let rows = h.Sync_runner.states_by_round in
        let ok = ref true in
        for i = 0 to Array.length rows - 2 do
          for p = 0 to n - 1 do
            let nbrs = Array.map (fun q -> rows.(i).(q)) (Graph.neighbors g p) in
            if rows.(i + 1).(p) <> Sync_algo.apply Min_flood.algo values.(p) rows.(i).(p) nbrs
            then ok := false
          done
        done;
        !ok);
    Test.make ~count:80 ~name:"T is minimal (row T-1 differs from row T)"
      (pair small_int (int_range 2 8))
      (fun (seed, n) ->
        let rng = Rng.create seed in
        let g = Builders.random_connected rng ~n ~extra_edges:2 in
        let values = Array.init n (fun _ -> Rng.int rng 50) in
        let h = Sync_runner.run Min_flood.algo g ~inputs:(fun p -> values.(p)) in
        let t = h.Sync_runner.t in
        t = 0
        || h.Sync_runner.states_by_round.(t - 1)
           <> h.Sync_runner.states_by_round.(t));
  ]

let () =
  Alcotest.run "sync"
    [
      ( "runner",
        [
          Alcotest.test_case "constant" `Quick test_constant_terminates_immediately;
          Alcotest.test_case "clock" `Quick test_clock_execution_time;
          Alcotest.test_case "min-flood history" `Quick test_min_flood_history;
          Alcotest.test_case "state_at clamps" `Quick test_state_at_clamps;
          Alcotest.test_case "T bounded by eccentricity" `Quick
            test_min_flood_t_is_eccentricity;
          Alcotest.test_case "non-termination detected" `Quick
            test_did_not_terminate;
          Alcotest.test_case "max state bits" `Quick test_max_state_bits;
          Alcotest.test_case "apply" `Quick test_apply;
          Alcotest.test_case "history metadata" `Quick test_history_metadata;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
