(* Differential tests: the incremental dirty-set engine (Engine.run)
   must produce exactly the same executions as the naive full-rescan
   engine (Engine.run_naive) — same steps, moves, rounds, per-node and
   per-rule counters, and final configuration — across every daemon,
   several topologies, several algorithms and several corruption
   seeds.  Stateful daemons (rngs, cursors) are rebuilt from the same
   seed for each engine so both runs face an identical adversary. *)

module Graph = Ss_graph.Graph
module Builders = Ss_graph.Builders
module Algorithm = Ss_sim.Algorithm
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Sched = Ss_sim.Sched
module Trace = Ss_sim.Trace
module Fault_plan = Ss_chaos.Fault_plan
module Stabilization = Ss_verify.Stabilization
module Rng = Ss_prelude.Rng
module Transformer = Ss_core.Registry.Trans
module Rollback = Ss_rollback.Rollback
module Blowup = Ss_rollback.Blowup
module Leader = Ss_algos.Leader_election
module Min_flood = Ss_algos.Min_flood

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every daemon of lib/sim/daemon.ml, as factories so each engine run
   gets a fresh (identically seeded) instance. *)
let daemon_factories seed =
  [
    ("synchronous", fun () -> Daemon.synchronous);
    ("central-random", fun () -> Daemon.central_random (Rng.create seed));
    ("central-min", fun () -> Daemon.central_min);
    ("central-max", fun () -> Daemon.central_max);
    ( "distributed-random",
      fun () -> Daemon.distributed_random (Rng.create seed) ~p:0.5 );
    ("round-robin", fun () -> Daemon.round_robin ());
    ("scripted", fun () -> Daemon.scripted ~fallback:Daemon.synchronous []);
  ]

let assert_equiv ~msg eq_state (a : _ Engine.stats) (b : _ Engine.stats) =
  check_int (msg ^ ": steps") a.Engine.steps b.Engine.steps;
  check_int (msg ^ ": moves") a.Engine.moves b.Engine.moves;
  check_int (msg ^ ": rounds") a.Engine.rounds b.Engine.rounds;
  check (msg ^ ": terminated") a.Engine.terminated b.Engine.terminated;
  Alcotest.(check (array int))
    (msg ^ ": moves per node")
    a.Engine.moves_per_node b.Engine.moves_per_node;
  Alcotest.(check (list (pair string int)))
    (msg ^ ": moves per rule")
    a.Engine.moves_per_rule b.Engine.moves_per_rule;
  check (msg ^ ": final config") true
    (Config.equal eq_state a.Engine.final b.Engine.final)

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
  }

let seeds = [ 1; 2; 3 ]

let graphs rng =
  [
    ("cycle9", Builders.cycle 9);
    ("grid3x4", Builders.grid ~rows:3 ~cols:4);
    ("star7", Builders.star 7);
    ("random12", Builders.random_connected rng ~n:12 ~extra_edges:6);
  ]

let test_max_algo () =
  List.iter
    (fun seed ->
      let rng = Rng.create (100 + seed) in
      List.iter
        (fun (gname, g) ->
          let states = Array.init (Graph.n g) (fun _ -> Rng.int rng 50) in
          let config =
            Config.make g ~inputs:(fun _ -> ()) ~states:(fun p -> states.(p))
          in
          List.iter
            (fun (dname, mk) ->
              let incr = Engine.run max_algo (mk ()) config in
              let naive = Engine.run_naive max_algo (mk ()) config in
              assert_equiv
                ~msg:(Printf.sprintf "max/%s/%s/seed%d" gname dname seed)
                Int.equal incr naive)
            (daemon_factories seed))
        (graphs rng))
    seeds

let transformer_start seed =
  let rng = Rng.create seed in
  let g = Builders.cycle 8 in
  let inputs = Leader.random_ids rng g in
  let params = Transformer.params Leader.algo in
  let start =
    Transformer.corrupt rng ~max_height:8 params
      (Transformer.clean_config params g ~inputs)
  in
  (params, start)

let test_transformer () =
  List.iter
    (fun seed ->
      let params, start = transformer_start seed in
      let eq = Ss_core.Trans_state.equal Leader.algo.Ss_sync.Sync_algo.equal in
      List.iter
        (fun (dname, mk) ->
          let incr = Transformer.run ~max_steps:200_000 params (mk ()) start in
          let naive =
            Transformer.run_naive ~max_steps:200_000 params (mk ()) start
          in
          assert_equiv
            ~msg:(Printf.sprintf "trans/%s/seed%d" dname seed)
            eq incr naive)
        (daemon_factories seed))
    seeds

(* The daemons the experiments draw (the stabilization portfolio, each
   rebuilt from the same seed for both engines) plus [central_max]:
   identical executions, and per-rule counts listed in the algorithm's
   priority order that equal a tally of the moves the observer bus
   carried. *)
let test_portfolio_pins () =
  List.iter
    (fun seed ->
      let params, start = transformer_start seed in
      let algo = Transformer.algorithm params in
      let eq = Ss_core.Trans_state.equal Leader.algo.Ss_sync.Sync_algo.equal in
      let daemons () =
        ("central-max", Daemon.central_max)
        :: Stabilization.daemon_portfolio (Rng.create seed)
      in
      List.iter2
        (fun (dname, d) (_, d') ->
          let msg = Printf.sprintf "portfolio/%s/seed%d" dname seed in
          let tally = Hashtbl.create 4 in
          let observer ~step:_ ~rounds:_ ~moved _ =
            List.iter
              (fun (_, r) ->
                Hashtbl.replace tally r
                  (1 + Option.value ~default:0 (Hashtbl.find_opt tally r)))
              moved
          in
          let incr = Engine.run ~max_steps:200_000 ~sinks:[ observer ] algo d start in
          let naive = Engine.run_naive ~max_steps:200_000 algo d' start in
          assert_equiv ~msg eq incr naive;
          Alcotest.(check (list (pair string int)))
            (msg ^ ": per-rule counts in priority order")
            (List.map
               (fun r -> (r, Option.value ~default:0 (Hashtbl.find_opt tally r)))
               (Algorithm.rule_names algo))
            incr.Engine.moves_per_rule)
        (daemons ()) (daemons ()))
    seeds

(* The rollback Γ_k adversary drives a scripted central daemon through
   an exponential-move schedule: a good stress of the dirty set under
   single-node steps on a non-trivial state type. *)
let test_rollback_gamma () =
  let k = 2 in
  let algo = Rollback.algorithm Min_flood.algo ~bound:(Blowup.bound_for k) in
  let config = Blowup.initial_config ~k in
  let mk () =
    Daemon.scripted ~fallback:Daemon.synchronous
      (List.map (fun p -> [ p ]) (Blowup.gamma k))
  in
  let incr = Engine.run algo (mk ()) config in
  let naive = Engine.run_naive algo (mk ()) config in
  assert_equiv ~msg:"rollback/gamma2"
    (Rollback.equal Min_flood.algo.Ss_sync.Sync_algo.equal)
    incr naive

(* The built-in differential hook: a full run with per-step
   cross-validation of the incremental enabled set — and of the cached
   algoErr predicates against the uncached reference — never
   diverges. *)
let test_self_check () =
  List.iter
    (fun seed ->
      let params, start = transformer_start seed in
      let stats =
        Transformer.run ~self_check:true params Daemon.synchronous start
      in
      check "terminated" true stats.Engine.terminated)
    seeds

(* Same hook across transformer instances of all three §5 simulated
   algorithms, from corrupted starts, under two daemons: any cached
   predicate returning a different verdict than the full-prefix
   reference raises Engine.Divergence. *)
let test_self_check_section5_algorithms () =
  let checked_run name params start =
    List.iter
      (fun (dname, mk) ->
        let stats =
          Transformer.run ~self_check:true ~max_steps:200_000 params (mk ())
            start
        in
        check (Printf.sprintf "%s/%s terminated" name dname) true
          stats.Engine.terminated)
      [
        ("sync", fun () -> Daemon.synchronous);
        ("distributed", fun () -> Daemon.distributed_random (Rng.create 7) ~p:0.5);
      ]
  in
  List.iter
    (fun seed ->
      let rng = Rng.create (40 + seed) in
      (* Leader election on a cycle. *)
      let g = Builders.cycle 8 in
      let inputs = Leader.random_ids rng g in
      let params = Transformer.params Leader.algo in
      checked_run
        (Printf.sprintf "leader/seed%d" seed)
        params
        (Transformer.corrupt rng ~max_height:8 params
           (Transformer.clean_config params g ~inputs));
      (* BFS tree on a random connected graph. *)
      let g = Builders.random_connected rng ~n:10 ~extra_edges:4 in
      let inputs = Ss_algos.Bfs_tree.inputs g ~root:0 in
      let params = Transformer.params Ss_algos.Bfs_tree.algo in
      checked_run
        (Printf.sprintf "bfs/seed%d" seed)
        params
        (Transformer.corrupt rng ~max_height:8 params
           (Transformer.clean_config params g ~inputs));
      (* Greedy Cole-Vishkin coloring on a ring. *)
      let n = 9 and width = 6 in
      let g = Builders.cycle n in
      let ids = Ss_algos.Cole_vishkin.random_ring_ids rng ~n ~width in
      let inputs = Ss_algos.Cole_vishkin.inputs ~ids ~width g in
      let b = Ss_algos.Cole_vishkin.schedule_length width in
      let params =
        Transformer.params ~mode:Ss_core.Predicates.Greedy
          ~bound:(Ss_core.Predicates.Finite b)
          Ss_algos.Cole_vishkin.algo
      in
      checked_run
        (Printf.sprintf "cv/seed%d" seed)
        params
        (Transformer.corrupt rng ~max_height:b params
           (Transformer.clean_config params g ~inputs)))
    seeds

(* Unit check of the dirty-set invariant: after a single-node change,
   the scheduler re-evaluates only the closed neighborhood, and its
   enabled set still matches a naive scan. *)
let test_sched_locality () =
  let g = Builders.cycle 64 in
  let rng = Rng.create 11 in
  let config =
    Config.make g ~inputs:(fun _ -> ()) ~states:(fun _ -> Rng.int rng 50)
  in
  let sched = Sched.create max_algo config in
  check_int "create evaluates every node once" 64 (Sched.evals sched);
  let config = ref config in
  for _ = 1 to 50 do
    let p = Rng.int rng 64 in
    let before = Sched.evals sched in
    config := Config.set_state !config p (Rng.int rng 50);
    Sched.update sched !config ~moved:[ p ];
    check_int "only the closed neighborhood is re-evaluated" 3
      (Sched.evals sched - before);
    Alcotest.(check (list int))
      "incremental enabled set matches full scan"
      (Config.enabled_nodes max_algo !config)
      (Sched.enabled sched)
  done

(* ------------------------------------------------------------------ *)
(* One stepping path: observed ≡ unobserved ≡ naive                     *)
(* ------------------------------------------------------------------ *)

(* [Engine.run] steps in place whether or not anything observes it;
   sinks only borrow its live configuration.  Three runs of one
   execution — observed (a counting sink plus the snapshotting
   [Trace.with_configs] recorder), unobserved, and the copying naive
   twin — agree on every counter and on the final states, the
   recorder's snapshots equal the naive twin's step for step, and the
   caller's input array comes back physically untouched. *)

let input_untouched ~msg before (config : _ Config.t) =
  check (msg ^ ": input states physically unmodified") true
    (Array.length before = Config.n config
    && Array.for_all2 ( == ) before config.Config.states)

let counting_sink () =
  let events = ref 0 in
  ((fun ~step:_ ~rounds:_ ~moved:_ _config -> incr events), events)

let check_single_path ~msg eq algo mk start =
  let before = Array.copy start.Config.states in
  let count, events = counting_sink () in
  let recorder, records = Trace.with_configs () in
  let observed = Engine.run ~sinks:[ count; recorder ] algo (mk ()) start in
  let unobserved = Engine.run algo (mk ()) start in
  let naive_recorder, naive_records = Trace.with_configs () in
  let naive = Engine.run_naive ~sinks:[ naive_recorder ] algo (mk ()) start in
  input_untouched ~msg before start;
  assert_equiv ~msg:(msg ^ " observed/unobserved") eq observed unobserved;
  assert_equiv ~msg:(msg ^ " observed/naive") eq observed naive;
  check_int (msg ^ ": the sink saw every event") (observed.Engine.steps + 1)
    !events;
  let recs = records () and naive_recs = naive_records () in
  check_int (msg ^ ": snapshot count") (List.length naive_recs)
    (List.length recs);
  List.iter2
    (fun (e, c) (ne, nc) ->
      check (msg ^ ": same event") true (e = ne);
      check
        (Printf.sprintf "%s: snapshot of step %d" msg e.Trace.ev_step)
        true (Config.equal eq c nc))
    recs naive_recs

let single_path_daemons seed =
  [
    ("central-random", fun () -> Daemon.central_random (Rng.create seed));
    ( "distributed-random",
      fun () -> Daemon.distributed_random (Rng.create seed) ~p:0.5 );
    ("synchronous", fun () -> Daemon.synchronous);
  ]

let test_single_path () =
  List.iter
    (fun seed ->
      let leader_params, leader_start = transformer_start seed in
      let rng = Rng.create (60 + seed) in
      let g = Builders.random_connected rng ~n:12 ~extra_edges:5 in
      let flood_params = Transformer.params Min_flood.algo in
      let flood_start =
        Transformer.corrupt rng ~max_height:8 flood_params
          (Transformer.clean_config flood_params g ~inputs:(fun _ ->
               Rng.int rng 100))
      in
      List.iter
        (fun (dname, mk) ->
          check_single_path
            ~msg:(Printf.sprintf "leader/%s/seed%d" dname seed)
            (Ss_core.Trans_state.equal Leader.algo.Ss_sync.Sync_algo.equal)
            (Transformer.algorithm leader_params)
            mk leader_start;
          check_single_path
            ~msg:(Printf.sprintf "minflood/%s/seed%d" dname seed)
            (Ss_core.Trans_state.equal Min_flood.algo.Ss_sync.Sync_algo.equal)
            (Transformer.algorithm flood_params)
            mk flood_start)
        (single_path_daemons seed))
    seeds

(* Mid-run corruption writes into the same private array the steps do.
   Observed and unobserved chaos runs agree; every corruption fires;
   each recorded snapshot differs from its predecessor at least at the
   nodes that moved, and beyond them only at corruption victims. *)
let test_single_path_chaos () =
  let params, start = transformer_start 9 in
  let eq = Ss_core.Trans_state.equal Leader.algo.Ss_sync.Sync_algo.equal in
  let algo = Transformer.algorithm params in
  let corrupt_at = [ 2; 5; 9 ] in
  let chaos () =
    {
      Engine.plan = Fault_plan.v ~corrupt_at ~seed:4 ();
      mutate =
        (fun crng v config ->
          Transformer.corrupt_state crng ~max_height:8 params
            (Config.input config v) config.Config.states.(v));
    }
  in
  let before = Array.copy start.Config.states in
  let daemon () = Daemon.central_random (Rng.create 21) in
  let ch_obs = chaos () and ch_bare = chaos () in
  let count, events = counting_sink () in
  let recorder, records = Trace.with_configs () in
  let observed =
    Engine.run ~chaos:ch_obs ~sinks:[ count; recorder ] algo (daemon ()) start
  in
  let unobserved = Engine.run ~chaos:ch_bare algo (daemon ()) start in
  input_untouched ~msg:"chaos" before start;
  assert_equiv ~msg:"chaos observed/unobserved" eq observed unobserved;
  check "chaos run terminated" true observed.Engine.terminated;
  check_int "every corruption fired (observed)" 0
    (Fault_plan.pending_corruptions ch_obs.Engine.plan);
  check_int "every corruption fired (unobserved)" 0
    (Fault_plan.pending_corruptions ch_bare.Engine.plan);
  check_int "the sink saw every event" (observed.Engine.steps + 1) !events;
  let recs = records () in
  check_int "one snapshot per event" (observed.Engine.steps + 1)
    (List.length recs);
  check "last snapshot is the final configuration" true
    (Config.equal eq (snd (List.nth recs observed.Engine.steps))
       observed.Engine.final);
  let extra = ref 0 in
  ignore
    (List.fold_left
       (fun (prev : _ Config.t) ((e : Trace.event), (c : _ Config.t)) ->
         let moved = List.map fst e.Trace.ev_moved in
         Array.iteri
           (fun p st ->
             let changed = st != prev.Config.states.(p) in
             if List.mem p moved then
               check
                 (Printf.sprintf "step %d: moved node %d changed" e.Trace.ev_step p)
                 true changed
             else if changed then incr extra)
           c.Config.states;
         c)
       (snd (List.hd recs)) (List.tl recs));
  check "changes beyond movers come only from corruption" true
    (!extra <= List.length corrupt_at)

(* ------------------------------------------------------------------ *)
(* Allocation guard                                                     *)
(* ------------------------------------------------------------------ *)

(* Words allocated by [f ()]: minor allocations plus direct major
   ones (promotions are counted once, on the minor side).  The minor
   term reads [Gc.minor_words], which is exact; [Gc.quick_stat]'s
   minor count advances only at minor collections (OCaml 5.1), a
   granularity of a whole minor heap. *)
let allocated f =
  let w0 = Gc.minor_words () and s0 = Gc.quick_stat () in
  let r = f () in
  let w1 = Gc.minor_words () and s1 = Gc.quick_stat () in
  ( r,
    w1 -. w0
    +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words) )

(* Observing a run must not change its per-step cost class.  A ring of
   512 under a central daemon makes one move per step, so an O(n)
   state copy per observed step (513 words) would dwarf the engine's
   own few hundred words per step; the guard allows 1.5×. *)
let test_observed_allocation () =
  let n = 512 in
  let rng = Rng.create 7 in
  let g = Builders.cycle n in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let sc = { Stabilization.params = Transformer.params Leader.algo; graph = g; inputs } in
  let t = (Stabilization.history sc).Ss_sync.Sync_runner.t in
  let start = Stabilization.corrupted_start (Rng.split rng) ~max_height:(t + 6) sc in
  let daemon_seed = Rng.int rng (1 lsl 30) in
  let daemon () = Daemon.central_random (Rng.create daemon_seed) in
  let per_step (steps, words) = words /. float_of_int (max 1 steps) in
  let bare =
    allocated (fun () ->
        let r =
          Stabilization.run ~track_recovery:false sc ~daemon:(daemon ()) ~start
        in
        r.Stabilization.steps)
  in
  let tracked =
    allocated (fun () ->
        let r = Stabilization.run sc ~daemon:(daemon ()) ~start in
        check "recovery was tracked" true (r.Stabilization.recovery_moves >= 0);
        r.Stabilization.steps)
  in
  let count, _ = counting_sink () in
  let algo = Transformer.algorithm sc.Stabilization.params in
  let engine_bare =
    allocated (fun () -> (Engine.run algo (daemon ()) start).Engine.steps)
  in
  let engine_sink =
    allocated (fun () ->
        (Engine.run ~sinks:[ count ] algo (daemon ()) start).Engine.steps)
  in
  check_int "same execution" (fst bare) (fst tracked);
  check "one move per step" true (fst bare > 10 * n);
  let guard name observed unobserved =
    let ratio = per_step observed /. per_step unobserved in
    check
      (Printf.sprintf "%s: %.0f vs %.0f words/step (%.2fx < 1.5x)" name
         (per_step observed) (per_step unobserved) ratio)
      true (ratio < 1.5)
  in
  guard "recovery tracking" tracked bare;
  guard "counting sink" engine_sink engine_bare

(* ------------------------------------------------------------------ *)
(* Multi-mover apply on a packed arena                                  *)
(* ------------------------------------------------------------------ *)

module St = Ss_core.Trans_state

(* Leader election on a packed torus, B = 8, corrupted from [seed].  A
   packed run writes its arena in place, so every run gets its own
   start, rebuilt from the same seed. *)
let packed_torus_start ~rows ~cols seed =
  let rng = Rng.create seed in
  let g = Builders.torus ~rows ~cols in
  let inputs = Leader.random_ids rng g in
  let params = Transformer.params ~bound:(Ss_core.Predicates.Finite 8) Leader.algo in
  let start =
    Transformer.corrupt rng ~max_height:8 params
      (Transformer.packed_config params ~codec:Leader.codec g ~inputs)
  in
  (params, start)

(* The same configuration with every state copied into a boxed buffer. *)
let boxed_twin (config : _ Config.t) =
  Config.map_states
    (fun st -> St.make ~init:(St.init st) ~status:(St.status st) ~cells:(St.cells st))
    config

let moved_recorder () =
  let steps = ref [] in
  ( (fun ~step ~rounds:_ ~moved _config -> steps := (step, moved) :: !steps),
    fun () -> List.rev !steps )

(* The synchronous daemon moves almost every node per step, so [run]
   takes its list-free multi-mover path.  Sharded (two shards at this
   size, on two domains) or not, observed or not, the statistics
   agree; the moved lists the bus carries agree with [run_naive] on
   boxed twins, step by step. *)
let test_packed_sync_apply () =
  let rows = 128 and cols = 128 and seed = 5 in
  let eq = St.equal Int.equal in
  let saved = Ss_par.Par.jobs () in
  Fun.protect
    ~finally:(fun () -> Ss_par.Par.set_jobs saved)
    (fun () ->
      Ss_par.Par.set_jobs 2;
      let run ~sharded ~sink =
        let params, start = packed_torus_start ~rows ~cols seed in
        check "packed start" true
          (St.backing_arena start.Config.states.(0) <> None);
        let algo = Transformer.algorithm params in
        let sinks, moved = moved_recorder () in
        let stats =
          Engine.run ~sharded ?sinks:(if sink then Some [ sinks ] else None)
            algo Daemon.synchronous start
        in
        (stats, moved ())
      in
      let reference, ref_moved = run ~sharded:false ~sink:true in
      check "multi-mover steps" true
        (List.exists (fun (_, m) -> List.length m > 1) ref_moved);
      check "terminated" true reference.Engine.terminated;
      List.iter
        (fun (sharded, sink) ->
          let msg = Printf.sprintf "sharded=%b sink=%b" sharded sink in
          let stats, moved = run ~sharded ~sink in
          assert_equiv ~msg eq stats reference;
          if sink then
            check (msg ^ ": same moved lists") true (moved = ref_moved))
        [ (false, false); (true, false); (true, true) ];
      let params, start = packed_torus_start ~rows:12 ~cols:16 seed in
      let twin = boxed_twin start in
      let algo = Transformer.algorithm params in
      let sinks, moved = moved_recorder () in
      let stats = Engine.run ~sinks:[ sinks ] algo Daemon.synchronous start in
      let naive_sinks, naive_moved = moved_recorder () in
      let naive =
        Engine.run_naive ~sinks:[ naive_sinks ]
          (Transformer.algorithm_uncached params)
          Daemon.synchronous twin
      in
      assert_equiv ~msg:"packed run vs boxed naive" eq stats naive;
      check "moved lists equal the naive twin's, step by step" true
        (moved () = naive_moved ()))

(* Allocation tripwire for the synchronous step: leader election on a
   packed 16x32 torus, B = 8, one run on a fresh algorithm instance
   (its watermark memo is filled from cold).  This measures ~57 words
   per move.  It took ~68 while every multi-mover step built three
   lists (node/rule/state triples, then node/rule pairs); what remains
   is mostly the fresh view and neighbour array of every guard
   evaluation and action, and the action's new state.  The ceiling
   sits just above the current level. *)
let test_sync_allocation () =
  let params, start = packed_torus_start ~rows:16 ~cols:32 3 in
  let algo = Transformer.algorithm params in
  let stats, words =
    allocated (fun () -> Engine.run algo Daemon.synchronous start)
  in
  check "terminated" true stats.Engine.terminated;
  check "multi-mover steps" true (stats.Engine.moves > 4 * stats.Engine.steps);
  let per_move = words /. float_of_int stats.Engine.moves in
  check (Printf.sprintf "%.1f words per move < 62" per_move) true (per_move < 62.)

(* The divergence sink fires.  A guard that reads hidden mutable state
   breaks the purity the dirty-set scheduler relies on: once node 0
   moves, node 3 (outside 0's closed neighborhood on a 6-cycle) becomes
   enabled without being re-evaluated, and the self-check sink must
   report exactly that. *)
let test_divergence_sink_fires () =
  let armed = ref false in
  let algo =
    {
      Algorithm.algo_name = "impure";
      equal = Int.equal;
      pp_state = Format.pp_print_int;
      rules =
        [
          {
            Algorithm.rule_name = "set";
            guard =
              (fun v ->
                v.Algorithm.self = 0
                && (v.Algorithm.input = 0 || (v.Algorithm.input = 3 && !armed)));
            action =
              (fun _ ->
                armed := true;
                1);
          };
        ];
    }
  in
  let config =
    Config.make (Builders.cycle 6) ~inputs:(fun p -> p) ~states:(fun _ -> 0)
  in
  let raised f =
    match f () with
    | exception Engine.Divergence msg -> msg
    | _ -> "no divergence"
  in
  Alcotest.(check string)
    "self-check reports the stale enabled set"
    "incremental enabled set {} disagrees with full scan {3}"
    (raised (fun () ->
         Engine.run ~self_check:true algo Daemon.synchronous config));
  armed := false;
  Alcotest.(check string)
    "sink message names both sides"
    "cached enabled set {0} disagrees with uncached {}"
    (raised (fun () ->
         Engine.run
           ~sinks:
             [
               Engine.divergence_sink
                 ~checked:("cached", Config.enabled_nodes algo)
                 ~reference:("uncached", fun _ -> []);
             ]
           algo Daemon.synchronous config))

let () =
  Alcotest.run "engine_equiv"
    [
      ( "differential",
        [
          Alcotest.test_case "max algo, all daemons/graphs/seeds" `Quick
            test_max_algo;
          Alcotest.test_case "transformer, all daemons/seeds" `Quick
            test_transformer;
          Alcotest.test_case "rollback gamma schedule" `Quick
            test_rollback_gamma;
          Alcotest.test_case "portfolio daemons and central-max" `Quick
            test_portfolio_pins;
        ] );
      ( "self-check",
        [
          Alcotest.test_case "per-step cross-validation hook" `Quick
            test_self_check;
          Alcotest.test_case "cached predicates on all section-5 algorithms"
            `Quick test_self_check_section5_algorithms;
          Alcotest.test_case "sched dirty-set locality" `Quick
            test_sched_locality;
          Alcotest.test_case "divergence sink fires" `Quick
            test_divergence_sink_fires;
        ] );
      ( "single-path",
        [
          Alcotest.test_case "observed = unobserved = naive" `Quick
            test_single_path;
          Alcotest.test_case "chaos corruption in place" `Quick
            test_single_path_chaos;
          Alcotest.test_case "observed allocation per step" `Quick
            test_observed_allocation;
          Alcotest.test_case "packed synchronous apply" `Quick
            test_packed_sync_apply;
          Alcotest.test_case "synchronous allocation per move" `Quick
            test_sync_allocation;
        ] );
    ]
