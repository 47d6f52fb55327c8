(* Tests for Ss_sim: the atomic-state engine, daemons, neutralization
   round counting, traces and fault injection. *)

module Graph = Ss_graph.Graph
module Builders = Ss_graph.Builders
module Algorithm = Ss_sim.Algorithm
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Rounds = Ss_sim.Rounds
module Nodeset = Ss_sim.Nodeset
module Trace = Ss_sim.Trace
module Fault = Ss_sim.Fault
module Rng = Ss_prelude.Rng
module Budget = Ss_report.Budget

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A toy atomic-state algorithm: raise own value to the neighborhood
   maximum.  Silent; stabilizes in ecc(argmax) rounds synchronously. *)
let max_algo : (int, unit) Algorithm.t =
  {
    Algorithm.algo_name = "max";
    equal = Int.equal;
    rules =
      [
        {
          Algorithm.rule_name = "UP";
          guard =
            (fun v ->
              Array.exists (fun s -> s > v.Algorithm.self) v.Algorithm.neighbors);
          action =
            (fun v -> Array.fold_left max v.Algorithm.self v.Algorithm.neighbors);
        };
      ];
    pp_state = Format.pp_print_int;
    store = Algorithm.immutable;
  }

(* Mutual-exclusion toy used to exercise neutralization: a node at 0
   with a 0-valued neighbor may switch to 1; activating one endpoint of
   an isolated 0-0 edge neutralizes the other. *)
let neutral_algo : (int, unit) Algorithm.t =
  {
    Algorithm.algo_name = "neutral";
    equal = Int.equal;
    rules =
      [
        {
          Algorithm.rule_name = "GRAB";
          guard =
            (fun v ->
              v.Algorithm.self = 0
              && Array.exists (fun s -> s = 0) v.Algorithm.neighbors);
          action = (fun _ -> 1);
        };
      ];
    pp_state = Format.pp_print_int;
    store = Algorithm.immutable;
  }

let path_config values =
  let g = Builders.path (Array.length values) in
  Config.make g ~inputs:(fun _ -> ()) ~states:(fun p -> values.(p))

(* ------------------------------------------------------------------ *)
(* Config                                                               *)
(* ------------------------------------------------------------------ *)

let test_view () =
  let c = path_config [| 10; 20; 30 |] in
  let v = Config.view c 1 in
  check_int "self" 20 v.Algorithm.self;
  Alcotest.(check (array int)) "neighbors in port order" [| 10; 30 |]
    v.Algorithm.neighbors

let test_set_state_functional () =
  let c = path_config [| 1; 2; 3 |] in
  let c' = Config.set_state c 0 99 in
  check_int "updated" 99 (Config.state c' 0);
  check_int "original untouched" 1 (Config.state c 0)

let test_enabled_nodes () =
  let c = path_config [| 0; 5; 0 |] in
  Alcotest.(check (list int)) "ends enabled" [ 0; 2 ]
    (Config.enabled_nodes max_algo c);
  check "not terminal" false (Config.is_terminal max_algo c);
  let t = path_config [| 5; 5; 5 |] in
  check "terminal" true (Config.is_terminal max_algo t)

let test_map_states () =
  let c = path_config [| 1; 2; 3 |] in
  let c' = Config.map_states (fun s -> s * 10) c in
  Alcotest.(check (array int)) "mapped" [| 10; 20; 30 |] c'.Config.states

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

let test_synchronous_run () =
  let c = path_config [| 0; 0; 0; 0; 9 |] in
  let stats = Engine.run max_algo Daemon.synchronous c in
  check "terminated" true stats.Engine.terminated;
  check_int "steps = ecc" 4 stats.Engine.steps;
  check_int "rounds = steps" 4 stats.Engine.rounds;
  (* Node 3 moves once, node 0 moves once, etc.: value propagates one
     hop per round, and each node moves exactly once. *)
  check_int "moves" 4 stats.Engine.moves;
  Alcotest.(check (array int)) "final" [| 9; 9; 9; 9; 9 |]
    stats.Engine.final.Config.states

let test_moves_accounting () =
  let c = path_config [| 0; 0; 9 |] in
  let stats = Engine.run max_algo Daemon.synchronous c in
  Alcotest.(check (array int)) "moves per node" [| 1; 1; 0 |]
    stats.Engine.moves_per_node;
  Alcotest.(check (list (pair string int))) "moves per rule" [ ("UP", 2) ]
    stats.Engine.moves_per_rule

let test_step_validation () =
  let c = path_config [| 0; 0; 9 |] in
  check "empty selection rejected" true
    (try
       ignore (Engine.step max_algo c []);
       false
     with Engine.Invalid_selection _ -> true);
  check "disabled node rejected" true
    (try
       (* Node 2 holds the max; it is not enabled. *)
       ignore (Engine.step max_algo c [ 2 ]);
       false
     with Engine.Invalid_selection _ -> true);
  check "duplicate rejected" true
    (try
       ignore (Engine.step max_algo c [ 1; 1 ]);
       false
     with Engine.Invalid_selection _ -> true);
  check "out of range rejected" true
    (try
       ignore (Engine.step max_algo c [ 7 ]);
       false
     with Engine.Invalid_selection _ -> true)

(* The exact rejection messages, through both entry points: [step]
   (one-shot) and [run] (whose validator owns a stamp array across
   steps).  Nodes are checked in selection order — range, repetition,
   enabledness — so the first offender names the error. *)
let test_selection_messages () =
  (* Path 0-0-9-0-0-0-9: nodes 1, 3 and 5 are enabled.  [run] first
     moves node 5, which enables node 4 and leaves 0..3 as they were,
     so both entry points face the same verdicts. *)
  let c = path_config [| 0; 0; 9; 0; 0; 0; 9 |] in
  let message f =
    match f () with
    | exception Engine.Invalid_selection m -> m
    | _ -> "accepted"
  in
  List.iter
    (fun (selection, expected) ->
      let name = String.concat "," (List.map string_of_int selection) in
      Alcotest.(check string) ("step [" ^ name ^ "]") expected
        (message (fun () -> ignore (Engine.step max_algo c selection)));
      Alcotest.(check string) ("run [" ^ name ^ "]") expected
        (message (fun () ->
             ignore (Engine.run max_algo (Daemon.scripted [ [ 5 ]; selection ]) c))))
    [
      ([], "daemon selected no node");
      ([ 9 ], "node 9 out of range");
      ([ -1 ], "node -1 out of range");
      ([ 2 ], "node 2 selected but not enabled");
      ([ 1; 1 ], "node 1 selected twice");
      ([ 1; 3; 1 ], "node 1 selected twice");
      ([ 1; 9 ], "node 9 out of range");
      ([ 2; 2 ], "node 2 selected but not enabled");
    ];
  (* Marks of one step never leak into the next: synchronous steps
     select nodes 0..2 again and again. *)
  let stats =
    Engine.run max_algo Daemon.synchronous (path_config [| 0; 1; 2; 3; 9 |])
  in
  check "multi-node steps may repeat nodes across steps" true
    stats.Engine.terminated

let test_step_atomicity () =
  (* Both enabled nodes read the pre-step configuration. *)
  let c = path_config [| 0; 3; 0 |] in
  let c', moved = Engine.step max_algo c [ 0; 2 ] in
  check_int "two moves" 2 (List.length moved);
  Alcotest.(check (array int)) "simultaneous reads" [| 3; 3; 3 |]
    c'.Config.states

let test_budget () =
  let c = path_config [| 0; 0; 0; 0; 9 |] in
  let stats =
    Engine.run ~budget:(Budget.v ~steps:2 ()) max_algo Daemon.synchronous c
  in
  check "not terminated" false stats.Engine.terminated;
  check_int "stopped at budget" 2 stats.Engine.steps

let test_max_moves_budget () =
  let c = path_config [| 0; 0; 0; 0; 9 |] in
  let stats =
    Engine.run ~budget:(Budget.v ~moves:1 ()) max_algo Daemon.synchronous c
  in
  check "not terminated" false stats.Engine.terminated;
  check_int "exactly the move budget" 1 stats.Engine.moves

let test_max_moves_is_a_hard_bound () =
  (* Three nodes are enabled simultaneously; a synchronous step used to
     overshoot its move cap by n-1.  The bound is now hard: the final step
     activates only a budget-sized prefix of the selection, identically
     in both engines. *)
  let c = path_config [| 0; 9; 0; 9; 0 |] in
  List.iter
    (fun k ->
      let budget = Budget.v ~moves:k () in
      let incr = Engine.run ~budget max_algo Daemon.synchronous c in
      let naive = Engine.run_naive ~budget max_algo Daemon.synchronous c in
      check_int (Printf.sprintf "budget %d: moves capped" k) k incr.Engine.moves;
      check (Printf.sprintf "budget %d: not terminated" k) false
        incr.Engine.terminated;
      check_int
        (Printf.sprintf "budget %d: naive agrees on moves" k)
        incr.Engine.moves naive.Engine.moves;
      Alcotest.(check (array int))
        (Printf.sprintf "budget %d: naive agrees on states" k)
        incr.Engine.final.Config.states naive.Engine.final.Config.states)
    [ 1; 2 ];
  (* Prefix semantics: with budget 2 the two smallest enabled nodes
     (daemon order = ascending) moved, the third did not. *)
  let stats =
    Engine.run ~budget:(Budget.v ~moves:2 ()) max_algo Daemon.synchronous c
  in
  Alcotest.(check (array int))
    "prefix of the synchronous selection moved" [| 9; 9; 9; 9; 0 |]
    stats.Engine.final.Config.states

let test_observer_sequence () =
  let c = path_config [| 0; 9 |] in
  let calls = ref [] in
  let observer ~step ~rounds:_ ~moved _cfg =
    calls := (step, List.length moved) :: !calls
  in
  let _ = Engine.run ~sinks:[ observer ] max_algo Daemon.synchronous c in
  Alcotest.(check (list (pair int int)))
    "initial call then one step" [ (0, 0); (1, 1) ] (List.rev !calls)

(* ------------------------------------------------------------------ *)
(* Daemons                                                              *)
(* ------------------------------------------------------------------ *)

let set = Nodeset.of_list

let test_central_min_max () =
  Alcotest.(check (list int)) "min" [ 2 ]
    (Daemon.central_min.Daemon.select ~step:0 ~enabled:(set [ 2; 5; 9 ]));
  Alcotest.(check (list int)) "max" [ 9 ]
    (Daemon.central_max.Daemon.select ~step:0 ~enabled:(set [ 2; 5; 9 ]))

let test_distributed_random_nonempty () =
  let rng = Rng.create 5 in
  let d = Daemon.distributed_random rng ~p:0.05 in
  for _ = 1 to 100 do
    let s = d.Daemon.select ~step:0 ~enabled:(set [ 1; 2; 3 ]) in
    check "nonempty" true (s <> []);
    check "subset" true (List.for_all (fun x -> List.mem x [ 1; 2; 3 ]) s)
  done

let test_round_robin_cycles () =
  let d = Daemon.round_robin () in
  let sel enabled = List.hd (d.Daemon.select ~step:0 ~enabled:(set enabled)) in
  check_int "first" 1 (sel [ 1; 3; 5 ]);
  check_int "next" 3 (sel [ 1; 3; 5 ]);
  check_int "next" 5 (sel [ 1; 3; 5 ]);
  check_int "wraps" 1 (sel [ 1; 3; 5 ])

let test_round_robin_instances_independent () =
  let d1 = Daemon.round_robin () and d2 = Daemon.round_robin () in
  let s1 = d1.Daemon.select ~step:0 ~enabled:(set [ 1; 2 ]) in
  let s1' = d1.Daemon.select ~step:0 ~enabled:(set [ 1; 2 ]) in
  let s2 = d2.Daemon.select ~step:0 ~enabled:(set [ 1; 2 ]) in
  check "fresh cursor per instance" true (s1 = s2 && s1 <> s1')

(* The historical array-based selections, kept only as the oracle of
   the set-based daemons: the sorted enabled array in, the selection
   out, drawing from the generator exactly as the library once did. *)
module Oracle = struct
  let synchronous ~step:_ ~enabled = Array.to_list enabled
  let central_random rng ~step:_ ~enabled = [ Rng.pick rng enabled ]
  let central_min ~step:_ ~enabled = [ enabled.(0) ]
  let central_max ~step:_ ~enabled = [ enabled.(Array.length enabled - 1) ]

  let distributed_random rng ~p ~step:_ ~enabled =
    let acc = ref [] in
    for i = 0 to Array.length enabled - 1 do
      if Rng.chance rng p then acc := enabled.(i) :: !acc
    done;
    match !acc with [] -> [ Rng.pick rng enabled ] | l -> List.rev l

  let round_robin () =
    let cursor = ref (-1) in
    fun ~step:_ ~enabled ->
      let n = Array.length enabled in
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if enabled.(mid) > !cursor then hi := mid else lo := mid + 1
      done;
      let chosen = if !lo < n then enabled.(!lo) else enabled.(0) in
      cursor := chosen;
      [ chosen ]

  let scripted ~fallback moves =
    let remaining = ref moves in
    fun ~step ~enabled ->
      match !remaining with
      | [] -> fallback ~step ~enabled
      | sel :: rest ->
          remaining := rest;
          sel
end

(* Each built-in daemon next to its oracle, both built fresh from the
   same seed.  [p = 0] makes every distributed sample empty, so the
   fallback pick runs on every call. *)
let daemon_twins seed =
  let rng () = Rng.create seed in
  let script = [ [ 7 ]; [ 62; 63 ] ] in
  [
    ("synchronous", (fun () -> Daemon.synchronous), fun () -> Oracle.synchronous);
    ( "central-random",
      (fun () -> Daemon.central_random (rng ())),
      fun () -> Oracle.central_random (rng ()) );
    ("central-min", (fun () -> Daemon.central_min), fun () -> Oracle.central_min);
    ("central-max", (fun () -> Daemon.central_max), fun () -> Oracle.central_max);
    ("round-robin", Daemon.round_robin, Oracle.round_robin);
    ( "scripted",
      (fun () ->
        Daemon.scripted ~fallback:(Daemon.central_random (rng ())) script),
      fun () ->
        Oracle.scripted ~fallback:(Oracle.central_random (rng ())) script );
  ]
  @ List.map
      (fun p ->
        ( Printf.sprintf "distributed-random p=%.2f" p,
          (fun () -> Daemon.distributed_random (rng ()) ~p),
          fun () -> Oracle.distributed_random (rng ()) ~p ))
      [ 0.0; 0.05; 0.5; 1.0 ]

let test_daemon_differential =
  let id =
    QCheck.Gen.(
      frequency
        [ (1, oneofl [ 0; 62; 63; 125; 126; 199 ]); (3, int_range 0 199) ])
  in
  let sets = QCheck.Gen.(list_size (int_range 1 40) (list_size (int_range 1 12) id)) in
  QCheck.Test.make ~count:300 ~name:"daemons select as their array oracles"
    (QCheck.make
       ~print:QCheck.Print.(pair int (list (list int)))
       QCheck.Gen.(pair small_int sets))
    (fun (seed, sets) ->
      List.for_all
        (fun (name, daemon, oracle) ->
          let d = daemon () and o = oracle () in
          List.for_all
            (fun ids ->
              let via_set = d.Daemon.select ~step:0 ~enabled:(set ids) in
              let via_array =
                o ~step:0 ~enabled:(Array.of_list (List.sort_uniq compare ids))
              in
              via_set = via_array
              || QCheck.Test.fail_reportf "%s: set %s, array %s" name
                   (String.concat "," (List.map string_of_int via_set))
                   (String.concat "," (List.map string_of_int via_array)))
            sets)
        (daemon_twins seed))

let test_scripted_daemon () =
  let c = path_config [| 0; 0; 0; 9 |] in
  (* Activate 2, then 1, then fall back to synchronous. *)
  let d = Daemon.scripted [ [ 2 ]; [ 1 ] ] in
  let stats = Engine.run max_algo d c in
  check "terminated" true stats.Engine.terminated;
  Alcotest.(check (array int)) "final" [| 9; 9; 9; 9 |]
    stats.Engine.final.Config.states

let test_scripted_invalid () =
  let c = path_config [| 0; 0; 9 |] in
  let d = Daemon.scripted [ [ 2 ] ] in
  (* Node 2 already holds the max: not enabled. *)
  check "invalid scripted activation" true
    (try
       ignore (Engine.run max_algo d c);
       false
     with Engine.Invalid_selection _ -> true)

(* ------------------------------------------------------------------ *)
(* Rounds (neutralization)                                              *)
(* ------------------------------------------------------------------ *)

let test_round_tracker_basic () =
  let t = Rounds.create ~enabled:[ 0; 1 ] in
  check_int "no round yet" 0 (Rounds.completed t);
  Rounds.note_step t ~moved:[ 0 ] ~enabled_after:[ 1 ];
  check_int "still round 1" 0 (Rounds.completed t);
  Rounds.note_step t ~moved:[ 1 ] ~enabled_after:[ 0 ];
  check_int "round 1 done" 1 (Rounds.completed t);
  Alcotest.(check (list int)) "round 2 pending" [ 0 ] (Rounds.pending t)

let test_round_tracker_neutralization () =
  let t = Rounds.create ~enabled:[ 0; 1 ] in
  (* Node 1 is neutralized (no move, no longer enabled): the round
     completes in one step. *)
  Rounds.note_step t ~moved:[ 0 ] ~enabled_after:[];
  check_int "round completed by neutralization" 1 (Rounds.completed t)

let test_round_tracker_empty_start () =
  let t = Rounds.create ~enabled:[] in
  Rounds.note_step t ~moved:[] ~enabled_after:[];
  check_int "terminal start counts no round" 0 (Rounds.completed t)

let test_neutralization_in_engine () =
  (* Two adjacent 0-nodes: both enabled; a central daemon activates
     node 0, neutralizing node 1.  One step, one round, termination. *)
  let g = Builders.path 2 in
  let c = Config.make g ~inputs:(fun _ -> ()) ~states:(fun _ -> 0) in
  let stats = Engine.run neutral_algo Daemon.central_min c in
  check "terminated" true stats.Engine.terminated;
  check_int "single step" 1 stats.Engine.steps;
  check_int "single move" 1 stats.Engine.moves;
  check_int "single round" 1 stats.Engine.rounds;
  Alcotest.(check (array int)) "final" [| 1; 0 |] stats.Engine.final.Config.states

let test_sync_rounds_equal_steps () =
  let c = path_config [| 0; 0; 0; 0; 0; 9 |] in
  let stats = Engine.run max_algo Daemon.synchronous c in
  check_int "rounds = steps under synchrony" stats.Engine.steps
    stats.Engine.rounds

(* ------------------------------------------------------------------ *)
(* Trace                                                                *)
(* ------------------------------------------------------------------ *)

let test_trace_events () =
  let c = path_config [| 0; 0; 9 |] in
  let observer, events = Trace.make () in
  let stats = Engine.run ~sinks:[ observer ] max_algo Daemon.synchronous c in
  let evs = events () in
  check_int "one event per step" stats.Engine.steps (List.length evs);
  check_int "moves counted" stats.Engine.moves (Trace.moves_of evs);
  check "rules labelled" true
    (List.for_all
       (fun e -> List.for_all (fun (_, r) -> r = "UP") e.Trace.ev_moved)
       evs)

let test_trace_with_configs () =
  let c = path_config [| 0; 9 |] in
  let observer, records = Trace.with_configs max_algo in
  let stats = Engine.run ~sinks:[ observer ] max_algo Daemon.synchronous c in
  let recs = records () in
  check_int "initial + steps" (stats.Engine.steps + 1) (List.length recs);
  let ev0, c0 = List.hd recs in
  check_int "pseudo event step 0" 0 ev0.Trace.ev_step;
  Alcotest.(check (array int)) "initial config captured" [| 0; 9 |]
    c0.Config.states

let test_trace_csv () =
  let c = path_config [| 0; 0; 9 |] in
  let observer, events = Trace.make () in
  let _ = Engine.run ~sinks:[ observer ] max_algo Daemon.synchronous c in
  let csv = Trace.to_csv (events ()) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "header" "step,rounds,node,rule" (List.hd lines);
  check_int "one line per move + header" 3 (List.length lines);
  Alcotest.(check string) "first move" "1,1,1,UP" (List.nth lines 1)

let test_trace_replay () =
  (* A recorded schedule replayed through a scripted daemon reproduces
     the execution exactly: the engine is deterministic. *)
  let rng = Rng.create 15 in
  let g = Builders.random_connected rng ~n:8 ~extra_edges:4 in
  let states = Array.init 8 (fun _ -> Rng.int rng 50) in
  let c = Config.make g ~inputs:(fun _ -> ()) ~states:(fun p -> states.(p)) in
  let observer, events = Trace.make () in
  let original =
    Engine.run ~sinks:[ observer ] max_algo (Daemon.distributed_random rng ~p:0.5) c
  in
  let schedule = Trace.to_schedule (events ()) in
  let replay = Engine.run max_algo (Daemon.scripted schedule) c in
  check_int "same moves" original.Engine.moves replay.Engine.moves;
  check_int "same rounds" original.Engine.rounds replay.Engine.rounds;
  Alcotest.(check (array int)) "same final configuration"
    original.Engine.final.Config.states replay.Engine.final.Config.states

let test_engine_determinism () =
  (* Same seed, same daemon kind: identical stats. *)
  let run () =
    let rng = Rng.create 77 in
    let g = Builders.cycle 10 in
    let c =
      Config.make g ~inputs:(fun _ -> ())
        ~states:(fun p -> if p = 3 then 9 else 0)
    in
    Engine.run max_algo (Daemon.distributed_random rng ~p:0.4) c
  in
  let a = run () and b = run () in
  check_int "same steps" a.Engine.steps b.Engine.steps;
  check_int "same moves" a.Engine.moves b.Engine.moves;
  Alcotest.(check (array int)) "same final" a.Engine.final.Config.states
    b.Engine.final.Config.states

let test_pp_event () =
  let e = { Trace.ev_step = 12; ev_rounds = 3; ev_moved = [ (4, "UP") ] } in
  Alcotest.(check string) "rendering" "step 12 (3 rounds): 4:UP"
    (Format.asprintf "%a" Trace.pp_event e)

(* ------------------------------------------------------------------ *)
(* Fault                                                                *)
(* ------------------------------------------------------------------ *)

let test_fault_corrupt_all () =
  let rng = Rng.create 7 in
  let c = path_config [| 1; 1; 1 |] in
  let c' = Fault.corrupt rng (fun _ () s -> s + 1) c in
  Alcotest.(check (array int)) "all mutated" [| 2; 2; 2 |] c'.Config.states;
  Alcotest.(check (array int)) "original intact" [| 1; 1; 1 |] c.Config.states

let test_fault_corrupt_none () =
  let rng = Rng.create 7 in
  let c = path_config [| 1; 1; 1 |] in
  let c' = Fault.corrupt rng ~p:0.0 (fun _ () s -> s + 1) c in
  Alcotest.(check (array int)) "none mutated" [| 1; 1; 1 |] c'.Config.states

let test_fault_corrupt_nodes () =
  let rng = Rng.create 7 in
  (* The mutator also receives the node's read-only input. *)
  let c =
    Config.make (Builders.path 3) ~inputs:(fun p -> 100 * p) ~states:(fun _ -> 1)
  in
  let c' = Fault.corrupt_nodes rng (fun _ input s -> (s * 10) + input) [ 0; 2 ] c in
  Alcotest.(check (array int)) "exact nodes" [| 10; 1; 210 |] c'.Config.states

(* ------------------------------------------------------------------ *)
(* Algorithm helpers                                                    *)
(* ------------------------------------------------------------------ *)

let test_priority_order () =
  (* Two rules, both enabled: the first one must fire. *)
  let algo : (int, unit) Algorithm.t =
    {
      Algorithm.algo_name = "prio";
      equal = Int.equal;
      rules =
        [
          {
            Algorithm.rule_name = "HIGH";
            guard = (fun v -> v.Algorithm.self = 0);
            action = (fun _ -> 1);
          };
          {
            Algorithm.rule_name = "LOW";
            guard = (fun v -> v.Algorithm.self = 0);
            action = (fun _ -> 2);
          };
        ];
      pp_state = Format.pp_print_int;
      store = Algorithm.immutable;
    }
  in
  let g = Builders.path 1 in
  let c = Config.make g ~inputs:(fun _ -> ()) ~states:(fun _ -> 0) in
  let c', moved = Engine.step algo c [ 0 ] in
  check_int "high priority applied" 1 (Config.state c' 0);
  Alcotest.(check (list (pair int string))) "rule label" [ (0, "HIGH") ] moved

let test_map_input () =
  let algo = Algorithm.map_input (fun (x : int) -> ignore x) max_algo in
  let g = Builders.path 2 in
  let c = Config.make g ~inputs:(fun p -> p) ~states:(fun p -> p) in
  let stats = Engine.run algo Daemon.synchronous c in
  Alcotest.(check (array int)) "adapted algorithm runs" [| 1; 1 |]
    stats.Engine.final.Config.states

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:100 ~name:"engine reaches the same fixpoint under any daemon"
      (pair small_int (int_range 2 8))
      (fun (seed, n) ->
        let rng = Rng.create seed in
        let g = Builders.random_connected rng ~n ~extra_edges:2 in
        let states = Array.init n (fun _ -> Rng.int rng 100) in
        let c = Config.make g ~inputs:(fun _ -> ()) ~states:(fun p -> states.(p)) in
        let expect = Array.fold_left max 0 states in
        List.for_all
          (fun daemon ->
            let stats = Engine.run max_algo daemon c in
            stats.Engine.terminated
            && Array.for_all (fun s -> s = expect) stats.Engine.final.Config.states)
          [
            Daemon.synchronous;
            Daemon.central_min;
            Daemon.central_max;
            Daemon.central_random (Rng.split rng);
            Daemon.distributed_random (Rng.split rng) ~p:0.4;
            Daemon.round_robin ();
          ]);
    Test.make ~count:100 ~name:"rounds never exceed steps"
      (pair small_int (int_range 2 8))
      (fun (seed, n) ->
        let rng = Rng.create seed in
        let g = Builders.random_connected rng ~n ~extra_edges:2 in
        let c =
          Config.make g ~inputs:(fun _ -> ())
            ~states:(fun p -> if p = 0 then 9 else 0)
        in
        let stats =
          Engine.run max_algo (Daemon.distributed_random rng ~p:0.5) c
        in
        stats.Engine.rounds <= stats.Engine.steps);
  ]

let () =
  Alcotest.run "sim"
    [
      ( "config",
        [
          Alcotest.test_case "view" `Quick test_view;
          Alcotest.test_case "functional update" `Quick test_set_state_functional;
          Alcotest.test_case "enabled nodes" `Quick test_enabled_nodes;
          Alcotest.test_case "map states" `Quick test_map_states;
        ] );
      ( "engine",
        [
          Alcotest.test_case "synchronous run" `Quick test_synchronous_run;
          Alcotest.test_case "moves accounting" `Quick test_moves_accounting;
          Alcotest.test_case "step validation" `Quick test_step_validation;
          Alcotest.test_case "selection messages" `Quick test_selection_messages;
          Alcotest.test_case "step atomicity" `Quick test_step_atomicity;
          Alcotest.test_case "step budget" `Quick test_budget;
          Alcotest.test_case "move budget" `Quick test_max_moves_budget;
          Alcotest.test_case "move budget is hard" `Quick
            test_max_moves_is_a_hard_bound;
          Alcotest.test_case "observer sequence" `Quick test_observer_sequence;
        ] );
      ( "daemons",
        [
          Alcotest.test_case "central min/max" `Quick test_central_min_max;
          Alcotest.test_case "distributed random" `Quick
            test_distributed_random_nonempty;
          Alcotest.test_case "round robin" `Quick test_round_robin_cycles;
          Alcotest.test_case "round robin independence" `Quick
            test_round_robin_instances_independent;
          Alcotest.test_case "scripted" `Quick test_scripted_daemon;
          Alcotest.test_case "scripted invalid" `Quick test_scripted_invalid;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "tracker basic" `Quick test_round_tracker_basic;
          Alcotest.test_case "tracker neutralization" `Quick
            test_round_tracker_neutralization;
          Alcotest.test_case "tracker empty start" `Quick
            test_round_tracker_empty_start;
          Alcotest.test_case "engine neutralization" `Quick
            test_neutralization_in_engine;
          Alcotest.test_case "sync rounds = steps" `Quick
            test_sync_rounds_equal_steps;
        ] );
      ( "trace",
        [
          Alcotest.test_case "events" `Quick test_trace_events;
          Alcotest.test_case "with configs" `Quick test_trace_with_configs;
          Alcotest.test_case "csv export" `Quick test_trace_csv;
          Alcotest.test_case "schedule replay" `Quick test_trace_replay;
          Alcotest.test_case "engine determinism" `Quick test_engine_determinism;
          Alcotest.test_case "pp event" `Quick test_pp_event;
        ] );
      ( "fault",
        [
          Alcotest.test_case "corrupt all" `Quick test_fault_corrupt_all;
          Alcotest.test_case "corrupt none" `Quick test_fault_corrupt_none;
          Alcotest.test_case "corrupt nodes" `Quick test_fault_corrupt_nodes;
        ] );
      ( "algorithm",
        [
          Alcotest.test_case "priority order" `Quick test_priority_order;
          Alcotest.test_case "map input" `Quick test_map_input;
        ] );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          (qcheck_tests @ [ test_daemon_differential ]) );
    ]
