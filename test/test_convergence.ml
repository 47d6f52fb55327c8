(* Property-based tests of the transformer's self-stabilization
   theorems (paper §4): from an arbitrary configuration, under an
   arbitrary daemon,

   - the execution terminates (silence),
   - the terminal configuration is legitimate (equal heights, lists
     equal to the synchronous history, no roots),
   - the simulated problem's specification holds on the outputs,
   - roots are never created along the way,
   - the move count stays inside the paper's polynomial envelope,
   - recovery (first root-free configuration) is permanent.  *)

module Graph = Ss_graph.Graph
module Builders = Ss_graph.Builders
module Properties = Ss_graph.Properties
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Trace = Ss_sim.Trace
module Sync_runner = Ss_sync.Sync_runner
module Min_flood = Ss_algos.Min_flood
module Leader = Ss_algos.Leader_election
module Bfs = Ss_algos.Bfs_tree
module Cv = Ss_algos.Cole_vishkin
module St = Ss_core.Trans_state
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module Checker = Ss_core.Checker
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util

(* A reproducible random setting: graph, daemon, corruption — all from
   one seed. *)
let random_graph rng =
  match Rng.int rng 5 with
  | 0 -> Builders.path (2 + Rng.int rng 8)
  | 1 -> Builders.cycle (3 + Rng.int rng 8)
  | 2 -> Builders.star (2 + Rng.int rng 8)
  | 3 -> Builders.random_tree rng (2 + Rng.int rng 9)
  | _ ->
      let n = 3 + Rng.int rng 8 in
      Builders.random_connected rng ~n ~extra_edges:(Rng.int rng 6)

let random_daemon rng =
  match Rng.int rng 6 with
  | 0 -> Daemon.synchronous
  | 1 -> Daemon.distributed_random (Rng.split rng) ~p:0.7
  | 2 -> Daemon.distributed_random (Rng.split rng) ~p:0.25
  | 3 -> Daemon.central_random (Rng.split rng)
  | 4 -> Daemon.central_min
  | _ -> Daemon.round_robin ()

let run_setting ?sinks ~params ~g ~inputs seed =
  let rng = Rng.create (seed * 7919) in
  let hist = Sync_runner.run params.Transformer.sync g ~inputs in
  let t = hist.Sync_runner.t in
  let start =
    Transformer.corrupt (Rng.split rng) ~max_height:(t + 4) params
      (Transformer.clean_config params g ~inputs)
  in
  let daemon = random_daemon rng in
  let stats =
    Transformer.run ?sinks
      ~budget:(Ss_report.Budget.v ~steps:3_000_000 ())
      params daemon start
  in
  (hist, stats)

(* ------------------------------------------------------------------ *)
(* Main convergence properties, one per §5 instance                     *)
(* ------------------------------------------------------------------ *)

let leader_converges seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let params = Transformer.params Leader.algo in
  let hist, stats = run_setting ~params ~g ~inputs seed in
  stats.Engine.terminated
  && Checker.legitimate_terminal params hist stats.Engine.final = Ok ()
  && Leader.spec_holds g ~inputs ~final:(Transformer.outputs stats.Engine.final)

let bfs_converges seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let root = Rng.int rng (Graph.n g) in
  let inputs = Bfs.inputs g ~root in
  let params = Transformer.params Bfs.algo in
  let hist, stats = run_setting ~params ~g ~inputs seed in
  stats.Engine.terminated
  && Checker.legitimate_terminal params hist stats.Engine.final = Ok ()
  && Bfs.spec_holds g ~root ~final:(Transformer.outputs stats.Engine.final)

let cv_converges seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 12 in
  let width = max 6 (Util.bit_width n) in
  let g = Builders.cycle n in
  let ids = Cv.random_ring_ids (Rng.split rng) ~n ~width in
  let inputs = Cv.inputs ~ids ~width g in
  let b = Cv.schedule_length width in
  let params = Transformer.params ~mode:P.Greedy ~bound:(P.Finite b) Cv.algo in
  let hist, stats = run_setting ~params ~g ~inputs seed in
  stats.Engine.terminated
  && Checker.legitimate_terminal params hist stats.Engine.final = Ok ()
  && Cv.spec_holds g ~final:(Transformer.outputs stats.Engine.final)

let greedy_min_flood_converges seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let b = 1 + Rng.int rng 12 in
  let inputs p = (p * 37) mod 23 in
  let params =
    Transformer.params ~mode:P.Greedy ~bound:(P.Finite b) Min_flood.algo
  in
  let hist, stats = run_setting ~params ~g ~inputs seed in
  stats.Engine.terminated
  && Checker.legitimate_terminal params hist stats.Engine.final = Ok ()
  && Array.for_all (fun h -> h = b) (Checker.heights stats.Engine.final)

let shortest_path_converges seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let root = Rng.int rng (Graph.n g) in
  let weight =
    Ss_algos.Shortest_path.random_weights (Rng.split rng) g ~max_weight:7
  in
  let inputs = Ss_algos.Shortest_path.inputs g ~weight ~root in
  let params = Transformer.params Ss_algos.Shortest_path.algo in
  let hist, stats = run_setting ~params ~g ~inputs seed in
  stats.Engine.terminated
  && Checker.legitimate_terminal params hist stats.Engine.final = Ok ()
  && Ss_algos.Shortest_path.spec_holds g ~weight ~root
       ~final:(Transformer.outputs stats.Engine.final)

let leader_bfs_converges seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let ids = Leader.random_ids (Rng.split rng) g in
  let inputs = Ss_algos.Leader_bfs.inputs ~ids g in
  let params = Transformer.params Ss_algos.Leader_bfs.algo in
  let hist, stats = run_setting ~params ~g ~inputs seed in
  stats.Engine.terminated
  && Checker.legitimate_terminal params hist stats.Engine.final = Ok ()
  && Ss_algos.Leader_bfs.spec_holds g ~inputs
       ~final:(Transformer.outputs stats.Engine.final)

let converges_on_gk seed =
  (* The §7 family is a perfectly ordinary topology for the
     transformer: leader election on G_k stabilizes like anywhere
     else. *)
  let rng = Rng.create seed in
  let k = 1 + Rng.int rng 5 in
  let g = Ss_graph.Gk.make k in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let params = Transformer.params Leader.algo in
  let hist, stats = run_setting ~params ~g ~inputs seed in
  stats.Engine.terminated
  && Checker.legitimate_terminal params hist stats.Engine.final = Ok ()

let clock_t_zero_converges seed =
  (* Degenerate input algorithm with T = 0 (already silent): the
     transformer must still clean up corrupted lists. *)
  let rng = Rng.create seed in
  let g = random_graph rng in
  let params = Transformer.params Ss_algos.Toy.constant in
  let inputs p = p * 3 in
  let hist, stats = run_setting ~params ~g ~inputs seed in
  stats.Engine.terminated
  && Checker.legitimate_terminal params hist stats.Engine.final = Ok ()

let single_node_converges seed =
  (* n = 1: no neighbors at all (the Stone-Age end of the model
     spectrum). *)
  let g = Builders.single () in
  let params = Transformer.params Min_flood.algo in
  let inputs _ = 5 in
  let hist, stats = run_setting ~params ~g ~inputs seed in
  stats.Engine.terminated
  && Checker.legitimate_terminal params hist stats.Engine.final = Ok ()

(* ------------------------------------------------------------------ *)
(* Structural invariants along executions                               *)
(* ------------------------------------------------------------------ *)

(* Paper §4: "it is straightforward to prove that roots cannot be
   created": along any step, the root set can only shrink. *)
let roots_never_created seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let params = Transformer.params Leader.algo in
  let observer, records = Trace.with_configs (Transformer.algorithm params) in
  let _hist, stats = run_setting ~sinks:[ observer ] ~params ~g ~inputs seed in
  let configs = List.map snd (records ()) in
  let root_sets = List.map (fun c -> Checker.roots params c) configs in
  let rec shrinking = function
    | a :: b :: rest ->
        List.for_all (fun r -> List.mem r a) b && shrinking (b :: rest)
    | _ -> true
  in
  stats.Engine.terminated && shrinking root_sets

(* Once no root remains, no root ever reappears (recovery is
   permanent) — a consequence of the previous property, checked
   independently. *)
let recovery_is_permanent seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let params = Transformer.params Leader.algo in
  let observer, records = Trace.with_configs (Transformer.algorithm params) in
  let _hist, stats = run_setting ~sinks:[ observer ] ~params ~g ~inputs seed in
  let flags =
    List.map (fun (_, c) -> Checker.has_root params c) (records ())
  in
  (* The boolean sequence must be a (possibly empty) block of [true]
     followed by [false] forever. *)
  let rec monotone seen_false = function
    | [] -> true
    | true :: _ when seen_false -> false
    | b :: rest -> monotone (seen_false || not b) rest
  in
  stats.Engine.terminated && monotone false flags

(* Heights move by at most one per move, and statuses/cells only change
   through the four rules (sanity of the engine + rules wiring). *)
let single_rule_per_move seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let params = Transformer.params Leader.algo in
  let observer, events = Trace.make () in
  let _hist, stats = run_setting ~sinks:[ observer ] ~params ~g ~inputs seed in
  let valid_rules = [ Transformer.rr; Transformer.rp; Transformer.rc; Transformer.ru ] in
  stats.Engine.terminated
  && List.for_all
       (fun e ->
         List.for_all (fun (_, r) -> List.mem r valid_rules) e.Trace.ev_moved)
       (events ())

(* Move-count envelope: the paper proves O(min(n³+nT, n²B)) moves in
   lazy mode.  We check the n³+nT form with a generous constant. *)
let move_envelope seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let params = Transformer.params Leader.algo in
  let hist, stats = run_setting ~params ~g ~inputs seed in
  let n = Graph.n g in
  let t = hist.Sync_runner.t in
  stats.Engine.terminated
  && stats.Engine.moves <= 10 * ((n * n * n) + (n * t) + n + 10)

(* Round envelope in lazy mode: O(D + T) with a generous constant. *)
let round_envelope seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let params = Transformer.params Leader.algo in
  let hist, stats = run_setting ~params ~g ~inputs seed in
  let d = Properties.diameter g in
  let t = hist.Sync_runner.t in
  stats.Engine.terminated && stats.Engine.rounds <= 10 * (d + t + 2)

(* Recovery-phase round bound: the error recovery phase (up to the
   first root-free configuration) completes within O(min(D,B)) rounds
   — checked with a generous constant. *)
let recovery_round_envelope seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let params = Transformer.params Leader.algo in
  let hist = Sync_runner.run Leader.algo g ~inputs in
  let t = hist.Sync_runner.t in
  let start =
    Transformer.corrupt (Rng.create (seed * 31)) ~max_height:(t + 4) params
      (Transformer.clean_config params g ~inputs)
  in
  let sc = { Ss_verify.Stabilization.params; graph = g; inputs } in
  let daemon = random_daemon (Rng.create (seed * 17)) in
  let report = Ss_verify.Stabilization.run sc ~daemon ~start in
  let d = Properties.diameter g in
  report.Ss_verify.Stabilization.terminated
  && report.Ss_verify.Stabilization.recovery_rounds <= 12 * (d + 2)

(* Terminal configurations are silent: restarting from one does
   nothing. *)
let terminal_is_silent seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let params = Transformer.params Leader.algo in
  let _hist, stats = run_setting ~params ~g ~inputs seed in
  let again =
    Transformer.run params Daemon.synchronous stats.Engine.final
  in
  stats.Engine.terminated && again.Engine.steps = 0

(* The read-only init part survives the whole execution. *)
let init_is_read_only seed =
  let rng = Rng.create seed in
  let g = random_graph rng in
  let inputs = Leader.random_ids (Rng.split rng) g in
  let params = Transformer.params Leader.algo in
  let _hist, stats = run_setting ~params ~g ~inputs seed in
  let ok = ref true in
  Graph.iter_nodes g (fun p ->
      if St.init (Config.state stats.Engine.final p) <> inputs p then ok := false);
  stats.Engine.terminated && !ok

let qcheck_tests =
  let open QCheck in
  let prop name ?(count = 120) f =
    Test.make ~count ~name (int_range 1 1_000_000) f
  in
  [
    prop "leader election stabilizes to its spec" leader_converges;
    prop "BFS tree stabilizes to its spec" bfs_converges;
    prop "Cole-Vishkin stabilizes to a proper 3-coloring" ~count:80 cv_converges;
    prop "greedy mode fills lists to B" greedy_min_flood_converges;
    prop "shortest-path tree stabilizes to exact distances" ~count:80
      shortest_path_converges;
    prop "composed leader+BFS stabilizes to its spec" ~count:80
      leader_bfs_converges;
    prop "stabilizes on the G_k family" ~count:60 converges_on_gk;
    prop "T = 0 input algorithms are cleaned up" ~count:60
      clock_t_zero_converges;
    prop "single-node network" ~count:40 single_node_converges;
    prop "roots are never created" ~count:60 roots_never_created;
    prop "recovery is permanent" ~count:60 recovery_is_permanent;
    prop "only the four rules fire" ~count:60 single_rule_per_move;
    prop "moves stay in the O(n^3+nT) envelope" move_envelope;
    prop "rounds stay in the O(D+T) envelope" round_envelope;
    prop "recovery rounds stay in the O(min(D,B)) envelope" ~count:80
      recovery_round_envelope;
    prop "terminal configurations are silent" ~count:60 terminal_is_silent;
    prop "init is read-only" ~count:60 init_is_read_only;
  ]

let () =
  Alcotest.run "convergence"
    [ ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests) ]
