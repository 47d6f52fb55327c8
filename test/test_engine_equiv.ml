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
    store = Algorithm.immutable;
  }

let seeds = [ 1; 2; 3 ]

(* Safety net for the transformer runs: every one terminates long
   before it. *)
let budget = Ss_report.Budget.v ~steps:200_000 ()

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
          let incr = Transformer.run ~budget params (mk ()) start in
          let naive =
            Transformer.run_naive ~budget params (mk ()) start
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
          let incr = Engine.run ~budget ~sinks:[ observer ] algo d start in
          let naive = Engine.run_naive ~budget algo d' start in
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
          Transformer.run ~self_check:true ~budget params (mk ())
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
    Sched.update sched !config ~moved:[| p |] ~count:1;
    check_int "only the closed neighborhood is re-evaluated" 3
      (Sched.evals sched - before);
    Alcotest.(check (list int))
      "incremental enabled set matches full scan"
      (Config.enabled_nodes max_algo !config)
      (Sched.enabled sched)
  done

(* Pin of the node-order sweep: after every step of a transformer run,
   the scheduler evaluated exactly the closed neighborhood of the
   movers (its evaluation count grew by |moved ∪ N(moved)|), and its
   enabled set and every node's rule equal a full re-evaluation with
   the reference predicates.  On a synchronous 128x128 torus, unsharded
   and sharded (two shards at this size, on two domains), and on a
   ring of 64 under a central daemon. *)
let test_sched_sweep_pin () =
  let pin ~msg ~parallel ~daemon g =
    let n = Graph.n g in
    let rng = Rng.create 5 in
    let inputs = Leader.random_ids (Rng.split rng) g in
    let params =
      Transformer.params ~bound:(Ss_core.Predicates.Finite 8) Leader.algo
    in
    let reference = Transformer.algorithm_uncached params in
    let start =
      Transformer.corrupt (Rng.split rng) ~max_height:8 params
        (Transformer.clean_config params g ~inputs)
    in
    let sched = Sched.create ~parallel (Transformer.algorithm params) start in
    check_int (msg ^ ": create evaluates every node once") n (Sched.evals sched);
    let rule_name = Option.map (fun r -> r.Algorithm.rule_name) in
    let mark = Array.make n (-1) in
    let rec go config step =
      if Sched.no_enabled sched || step >= 5_000 then step
      else begin
        let selected =
          daemon.Daemon.select ~step ~enabled:(Sched.enabled_set sched)
        in
        let states = Array.copy config.Config.states in
        List.iter
          (fun p ->
            match Sched.enabled_rule sched p with
            | Some r -> states.(p) <- r.Algorithm.action (Config.view config p)
            | None -> Alcotest.failf "%s: node %d selected but disabled" msg p)
          selected;
        let config = Config.with_states config states in
        let dirty = ref 0 in
        let touch p =
          if mark.(p) <> step then begin
            mark.(p) <- step;
            incr dirty
          end
        in
        List.iter (fun p -> touch p; Graph.iter_neighbors g p touch) selected;
        let before = Sched.evals sched in
        let moved = Array.of_list selected in
        Sched.update sched config ~moved ~count:(Array.length moved);
        let step_msg what = Printf.sprintf "%s, step %d: %s" msg step what in
        check_int (step_msg "evaluations = |moved ∪ N(moved)|") !dirty
          (Sched.evals sched - before);
        let full =
          Array.init n (fun p ->
              rule_name (Algorithm.enabled_rule reference (Config.view config p)))
        in
        Alcotest.(check (list int))
          (step_msg "enabled set = full re-evaluation")
          (List.filter (fun p -> full.(p) <> None) (List.init n Fun.id))
          (Sched.enabled sched);
        check (step_msg "rules = full re-evaluation") true
          (Array.for_all Fun.id
             (Array.init n (fun p -> rule_name (Sched.enabled_rule sched p) = full.(p))));
        go config (step + 1)
      end
    in
    let steps = go start 0 in
    check (msg ^ ": reached a terminal configuration") true (Sched.no_enabled sched);
    check (msg ^ ": moved") true (steps > 0)
  in
  let torus = Builders.torus ~rows:128 ~cols:128 in
  let saved = Ss_par.Par.jobs () in
  Fun.protect
    ~finally:(fun () -> Ss_par.Par.set_jobs saved)
    (fun () ->
      Ss_par.Par.set_jobs 2;
      pin ~msg:"synchronous torus, sharded" ~parallel:true
        ~daemon:Daemon.synchronous torus);
  pin ~msg:"synchronous torus" ~parallel:false ~daemon:Daemon.synchronous torus;
  pin ~msg:"central ring" ~parallel:false
    ~daemon:(Daemon.central_random (Rng.create 9))
    (Builders.cycle 64)

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
  let recorder, records = Trace.with_configs algo in
  let observed = Engine.run ~sinks:[ count; recorder ] algo (mk ()) start in
  let unobserved = Engine.run algo (mk ()) start in
  let naive_recorder, naive_records = Trace.with_configs algo in
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
   each recorded snapshot differs from its predecessor (in version
   stamp: the recorder's snapshots are copies) at least at the nodes
   that moved, and beyond them only at corruption victims. *)
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
  let recorder, records = Trace.with_configs algo in
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
             let changed =
               Ss_core.Trans_state.stamp st
               <> Ss_core.Trans_state.stamp prev.Config.states.(p)
             in
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

(* Observing a run must not change its per-step cost class.  A ring of
   512 under a central daemon makes one move per step, so an O(n)
   state copy per observed step (513 words) would dwarf the engine's
   own few hundred words per step; the guard allows 1.2×.  Readings:
   recovery tracking 71 against 61 words/step (1.16×; it read 89.6
   against 70.0, 1.28×, while the recovery scan built a fresh view per
   node, and 79.6 against 70.0 before the run wrote its handles in
   place), counting sink 59 against 60. *)
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
    Alloc.words (fun () ->
        let r =
          Stabilization.run ~track_recovery:false sc ~daemon:(daemon ()) ~start
        in
        r.Stabilization.steps)
  in
  let tracked =
    Alloc.words (fun () ->
        let r = Stabilization.run sc ~daemon:(daemon ()) ~start in
        check "recovery was tracked" true (r.Stabilization.recovery_moves >= 0);
        r.Stabilization.steps)
  in
  let count, _ = counting_sink () in
  let algo = Transformer.algorithm sc.Stabilization.params in
  let engine_bare =
    Alloc.words (fun () -> (Engine.run algo (daemon ()) start).Engine.steps)
  in
  let engine_sink =
    Alloc.words (fun () ->
        (Engine.run ~sinks:[ count ] algo (daemon ()) start).Engine.steps)
  in
  check_int "same execution" (fst bare) (fst tracked);
  check "one move per step" true (fst bare > 10 * n);
  let guard name observed unobserved =
    let ratio = per_step observed /. per_step unobserved in
    check
      (Printf.sprintf "%s: %.0f vs %.0f words/step (%.2fx < 1.2x)" name
         (per_step observed) (per_step unobserved) ratio)
      true (ratio < 1.2)
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
   (its watermark memo is filled from cold).  This measures ~34 words
   per move (~36 before the run copied its selection into an array and
   wrote its owned handles in place).  It took ~61 while every guard evaluation stored a fresh
   [Some rule] and every action read a fresh neighbour array and
   [algo_hat] dependency array, and ~68 while every multi-mover step
   built three lists (node/rule/state triples, then node/rule pairs);
   what remains is mostly the view record of every guard evaluation
   and action, the daemon's selection list and the action's new state.
   The ceiling was set just above the ~57 words measured before the
   views were borrowed. *)
let test_sync_allocation () =
  let params, start = packed_torus_start ~rows:16 ~cols:32 3 in
  let algo = Transformer.algorithm params in
  let stats, words =
    Alloc.words (fun () -> Engine.run algo Daemon.synchronous start)
  in
  check "terminated" true stats.Engine.terminated;
  check "multi-mover steps" true (stats.Engine.moves > 4 * stats.Engine.steps);
  let per_move = words /. float_of_int stats.Engine.moves in
  check (Printf.sprintf "%.1f words per move < 62" per_move) true (per_move < 62.)

(* ------------------------------------------------------------------ *)
(* Ownership of the run's handles                                       *)
(* ------------------------------------------------------------------ *)

(* [Engine.run] copies every start handle once and writes the copies in
   place ([Algorithm.store]).  The caller's boxed start keeps every
   stamp, status, height and cell, and a second run from it repeats the
   first, under central, synchronous and chaos runs, for both
   algorithms whose states are written in place. *)
let fingerprint (config : _ Config.t) =
  Array.map
    (fun st -> (St.stamp st, St.status st, St.height st, St.cells st))
    config.Config.states

let test_start_untouched () =
  let rng = Rng.create 31 in
  let g = Builders.torus ~rows:5 ~cols:6 in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let params = Transformer.params ~bound:(Ss_core.Predicates.Finite 8) Leader.algo in
  let start =
    Transformer.corrupt (Rng.split rng) ~max_height:8 params
      (Transformer.clean_config params g ~inputs)
  in
  let eq = St.equal Int.equal in
  let chaos () =
    {
      Engine.plan = Fault_plan.v ~corrupt_at:[ 1; 4; 8 ] ~seed:6 ();
      mutate =
        (fun crng v config ->
          Transformer.corrupt_state crng ~max_height:8 params
            (Config.input config v) config.Config.states.(v));
    }
  in
  let before = fingerprint start in
  List.iter
    (fun (aname, algo) ->
      List.iter
        (fun (dname, run) ->
          let msg = Printf.sprintf "%s, %s" aname dname in
          let first = run algo in
          check (msg ^ ": start untouched") true (fingerprint start = before);
          check (msg ^ ": terminated") true first.Engine.terminated;
          assert_equiv ~msg:(msg ^ ": second run repeats") eq first (run algo))
        [
          ("central", fun a -> Engine.run a (Daemon.central_random (Rng.create 3)) start);
          ("synchronous", fun a -> Engine.run a Daemon.synchronous start);
          ( "chaos",
            fun a ->
              Engine.run ~chaos:(chaos ()) a
                (Daemon.distributed_random (Rng.create 4) ~p:0.5)
                start );
        ])
    [
      ("transformer", Transformer.algorithm params);
      ("adaptive", Ss_adaptive.Adaptive.algorithm params);
    ]

(* Promotion tripwires: peak RSS follows promoted words (DESIGN.md
   §15).  Each run uses a fresh algorithm instance, so its watermark
   memo fills from cold, as in a recovery benchmark.  Exact readings
   (promoted words per move) while every move stored its action's
   fresh handle in the long-lived state arrays, with owned handles
   written in place, and with flat packed handles and a flat watermark
   memo: packed synchronous 128x128 torus, B = 8: 11.0 -> 3.8 -> 2.0;
   boxed central ring of 512: 2.9 -> 2.1 -> 2.0. *)
let test_promotion_per_move () =
  let per_move name bound f =
    let stats, promoted = Alloc.promoted f in
    check (name ^ ": terminated") true stats.Engine.terminated;
    let per_move = promoted /. float_of_int stats.Engine.moves in
    check
      (Printf.sprintf "%s: %.1f promoted words per move < %.1f" name per_move
         bound)
      true (per_move < bound)
  in
  let params, start = packed_torus_start ~rows:128 ~cols:128 7 in
  per_move "packed synchronous torus" 2.2 (fun () ->
      Engine.run (Transformer.algorithm params) Daemon.synchronous start);
  let rng = Rng.create 8 in
  let g = Builders.cycle 512 in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let params = Transformer.params Leader.algo in
  let start =
    Transformer.corrupt (Rng.split rng) ~max_height:12 params
      (Transformer.clean_config params g ~inputs)
  in
  per_move "boxed central ring" 2.5 (fun () ->
      Engine.run (Transformer.algorithm params)
        (Daemon.central_random (Rng.create 9))
        start)

(* The watermark memo belongs to its algorithm value.  Every
   [Stabilization.run] builds a fresh one; when each one's cache lived
   in a never-freed [Domain.DLS] slot, the live heap after a full major
   collection grew by ~21 words per node per run (20.2 on this test).
   After a warm-up run, five runs on fresh packed tori must leave it
   flat. *)
let test_memo_freed () =
  let live_after_run seed =
    let params, start = packed_torus_start ~rows:32 ~cols:32 seed in
    let sc =
      { Stabilization.params; graph = start.Config.graph; inputs = Config.input start }
    in
    let r = Stabilization.run sc ~daemon:Daemon.synchronous ~start in
    check "terminated" true r.Stabilization.terminated;
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  ignore (live_after_run 0);
  let first = live_after_run 1 in
  let last = List.fold_left (fun _ seed -> live_after_run seed) first [ 2; 3; 4; 5 ] in
  let per_node_run = float_of_int (last - first) /. float_of_int (4 * 1024) in
  check
    (Printf.sprintf "live heap grows %.2f words per node per run < 2" per_node_run)
    true (per_node_run < 2.)

(* A finalised cache's table spine goes to its domain's spare, and the
   next cache adopts it blank.  Min-flood's correct lists on a path are
   wrong for max-flood, with the same states and inputs: entries kept
   from the first cache would answer the second one's guards. *)
let fill_and_drop_cache params config =
  let c = Ss_core.Predicates.make_cache () in
  for p = 0 to Config.n config - 1 do
    ignore (Ss_core.Predicates.algo_err_cached c params (Config.view config p))
  done

let test_spare_table_blank () =
  let g = Builders.path 4 in
  let inputs p = [| 3; 1; 4; 2 |].(p) in
  let hist = Ss_sync.Sync_runner.run Min_flood.algo g ~inputs in
  let t = hist.Ss_sync.Sync_runner.t in
  let config =
    Config.make g ~inputs ~states:(fun p ->
        St.make ~init:(inputs p) ~status:St.C
          ~cells:
            (Array.init t (fun i ->
                 Ss_sync.Sync_runner.state_at hist ~round:(i + 1) ~node:p)))
  in
  let pmin = Transformer.params Min_flood.algo in
  let pmax = Transformer.params Ss_algos.Toy.max_flood in
  fill_and_drop_cache pmin config;
  Gc.full_major ();
  Gc.full_major ();
  let c = Ss_core.Predicates.make_cache () in
  let wrong = ref 0 in
  for p = 0 to Config.n config - 1 do
    let v = Config.view config p in
    check
      (Printf.sprintf "node %d: cached = reference" p)
      (Ss_core.Predicates.algo_err pmax v)
      (Ss_core.Predicates.algo_err_cached c pmax v);
    if Ss_core.Predicates.algo_err pmax v then incr wrong
  done;
  check "max-flood refutes some min-flood list" true (!wrong > 0)

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
      store = Algorithm.immutable;
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
          Alcotest.test_case "sweep pin: evals and enabled set per step" `Quick
            test_sched_sweep_pin;
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
      ( "ownership",
        [
          Alcotest.test_case "start configuration untouched" `Quick
            test_start_untouched;
          Alcotest.test_case "promoted words per move" `Quick
            test_promotion_per_move;
          Alcotest.test_case "watermark memo freed with its algorithm" `Quick
            test_memo_freed;
          Alcotest.test_case "recycled memo table starts blank" `Quick
            test_spare_table_blank;
        ] );
    ]
