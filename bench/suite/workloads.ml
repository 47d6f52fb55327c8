(* The four recovery workloads.

   One rep is one full recovery: rebuild the start configuration from
   the seed (timed as set-up), run it to a verified legitimate terminal
   configuration (timed as recovery), and check it.  Every rep of a
   seed replays the same instance, so its counts are exact and must
   repeat; only the timings vary.  A traced rep reaches each layer
   through the wrappers of {!Trace}, which change no result. *)

module Rng = Ss_prelude.Rng
module Graph = Ss_graph.Graph
module Builders = Ss_graph.Builders
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module P = Ss_core.Predicates
module Tr = Ss_core.Transformer
module St = Ss_core.Trans_state
module Checker = Ss_core.Checker
module Cellpack = Ss_core.Cellpack
module Stab = Ss_verify.Stabilization
module M = Ss_msgnet.Msgnet
module Budget = Ss_report.Budget
module Scenario = Ss_chaos.Scenario
module LE = Ss_algos.Leader_election
module CV = Ss_algos.Cole_vishkin

(* A livelock becomes a counted failure, not a hang. *)
let deadline_s = 60.
let event_allowance = 50_000_000
let budget () = Budget.v ~deadline_s ()

(* [Stabilization.run] tracks recovery below this population; the
   traced twin of that loop must decide the same way. *)
let track_recovery_below = 65_536

type rep = {
  setup_s : float;
  recovery_s : float;
  counts : (string * int) list;
      (** Exact counts: identical on every rep of a seed, traced or not. *)
  layers : (string * float) list;
      (** Per-layer metrics.  Untraced reps carry only the set-up split
          and the GC deltas. *)
  error : string option;
}

let now () = Trace.seconds (Trace.clock ())
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let ns_s = Trace.seconds

let gc_layers (a : Gc.stat) (b : Gc.stat) =
  [
    ("gc.minor_words", b.Gc.minor_words -. a.Gc.minor_words);
    ("gc.major_words", b.Gc.major_words -. a.Gc.major_words);
    ("gc.major_collections", fi (b.Gc.major_collections - a.Gc.major_collections));
  ]

(* Shared layer totals of one traced run, from the per-domain slots. *)
let algo_layers () =
  let steps = Trace.total_count Trace.c_step in
  [
    ("algo.step_calls", fi steps);
    ("algo.step_s", ns_s (Trace.total_ns Trace.t_step));
    ("cellpack.pack_calls", fi (Trace.total_count Trace.c_pack));
    ("cellpack.unpack_calls", fi (Trace.total_count Trace.c_unpack));
  ]

(* Set-up split into graph construction and the rest (inputs, clean or
   packed start, corruption), then the recovery, with GC deltas taken
   around the recovery. *)
let timed ~graph ~instance ~recover =
  Gc.compact ();
  let t0 = now () in
  let g = graph () in
  let t1 = now () in
  let inst = instance g in
  let t2 = now () in
  let gc0 = Gc.quick_stat () in
  let counts, error, layers = recover inst in
  let t3 = now () in
  let gc1 = Gc.quick_stat () in
  {
    setup_s = t2 -. t0;
    recovery_s = t3 -. t2;
    counts;
    error;
    layers =
      (("graph.build_s", t1 -. t0) :: ("core.start_s", t2 -. t1) :: gc_layers gc0 gc1)
      @ layers;
  }

let first_error checks =
  List.find_map (fun (ok, msg) -> if ok then None else Some msg) checks

(* ------------------------------------------------------------------ *)
(* Engine plane                                                         *)
(* ------------------------------------------------------------------ *)

type ('s, 'i) engine = {
  sc : ('s, 'i) Stab.scenario;
  start : ('s St.t, 'i) Config.t;
  daemon : Daemon.t;
  sharded : bool;
  spec : ('s array -> bool) option;
}

let engine_counts ~nodes ~moves ~steps ~rounds ~recovery_rounds ~space_bits =
  [
    ("nodes", nodes);
    ("moves", moves);
    ("steps", steps);
    ("rounds", rounds);
    ("recovery_rounds", recovery_rounds);
    ("space_bits", space_bits);
  ]

let engine_checks ~terminated ~legitimate ~spec outputs =
  first_error
    [
      (terminated, "run did not complete within its budget");
      (legitimate, "terminal configuration is not legitimate");
      ( (match spec with Some f -> f outputs | None -> true),
        "specification does not hold" );
    ]

(* The measured path: [Stabilization.run] itself. *)
let engine_plain e =
  let r =
    Stab.run ~budget:(budget ()) ~sharded:e.sharded e.sc ~daemon:e.daemon
      ~start:e.start
  in
  ( engine_counts ~nodes:(Config.n e.start) ~moves:r.Stab.moves ~steps:r.Stab.steps ~rounds:r.Stab.rounds
      ~recovery_rounds:r.Stab.recovery_rounds ~space_bits:r.Stab.space_bits,
    engine_checks ~terminated:r.Stab.terminated ~legitimate:r.Stab.legitimate
      ~spec:e.spec r.Stab.outputs,
    [] )

(* The traced path: the same loop as [Stabilization.run] — recovery
   observer, history cut at a finite bound, terminal check — with every
   layer wrapped. *)
let engine_traced e =
  Trace.reset ();
  let p = e.sc.Stab.params in
  let algo = Trace.algorithm (Tr.algorithm { p with P.sync = Trace.sync p.P.sync }) in
  let daemon = Trace.daemon e.daemon in
  let recovery_rounds = ref (-1) in
  let observer =
    if Config.n e.start >= track_recovery_below then None
    else
      Some
        (fun ~step:_ ~rounds ~moved:_ config ->
          Trace.observer
            (fun () ->
              if !recovery_rounds < 0 && not (Checker.has_root p config) then
                recovery_rounds := rounds)
            ())
  in
  let clk = Trace.engine_clock () in
  let hits0 = P.cache_hits () in
  let t0 = now () in
  let stats =
    Engine.run ~budget:(budget ()) ~now:(Trace.engine_now clk) ~sharded:e.sharded
      ?observer algo daemon e.start
  in
  Trace.engine_finish clk;
  let t1 = now () in
  let hits = P.cache_hits () - hits0 in
  let hist =
    match p.P.bound with
    | P.Finite b -> Stab.history ~rounds:b e.sc
    | P.Infinite -> Stab.history e.sc
  in
  let t2 = now () in
  let legitimate =
    stats.Engine.terminated
    && Checker.legitimate_terminal p hist stats.Engine.final = Ok ()
  in
  let t3 = now () in
  let space_bits = Checker.space_bits p stats.Engine.final in
  let run_s = t1 -. t0 in
  let moves = stats.Engine.moves in
  let guard_t =
    List.map
      (fun (name, t) -> (name, ns_s (Trace.total_ns t)))
      [
        ("guard.rr_s", Trace.t_guard_rr);
        ("guard.rp_s", Trace.t_guard_rp);
        ("guard.rc_s", Trace.t_guard_rc);
        ("guard.ru_s", Trace.t_guard_ru);
      ]
  in
  let guard_s = List.fold_left (fun acc (_, s) -> acc +. s) 0. guard_t in
  let guards = fi (Trace.total_count Trace.c_guard) in
  let action_s = ns_s (Trace.total_ns Trace.t_action) in
  let step_s = ns_s (Trace.total_ns Trace.t_step) in
  let daemon_s = ns_s (Trace.total_ns Trace.t_daemon) in
  let observer_s = ns_s (Trace.total_ns Trace.t_observer) in
  let self_s = run_s -. guard_s -. action_s -. step_s -. daemon_s -. observer_s in
  let counts =
    engine_counts ~nodes:(Config.n e.start) ~moves ~steps:stats.Engine.steps ~rounds:stats.Engine.rounds
      ~recovery_rounds:!recovery_rounds ~space_bits
  in
  let fits = run_s < 0.1 || self_s >= -0.1 *. run_s in
  let error =
    match
      engine_checks ~terminated:stats.Engine.terminated ~legitimate ~spec:e.spec
        (Tr.outputs stats.Engine.final)
    with
    | Some _ as err -> err
    | None ->
        if fits then None
        else
          Some
            (Printf.sprintf "layer times exceed the run by %.1f%%"
               (-100. *. self_s /. run_s))
  in
  ( counts,
    error,
    [
      ("engine.run_s", run_s);
      ("engine.steps", fi stats.Engine.steps);
      ("engine.rounds", fi stats.Engine.rounds);
      ("engine.recovery_rounds", fi !recovery_rounds);
      ("engine.moves_per_s", ratio (fi moves) run_s);
      ("engine.step_p50_us", Trace.Hist.quantile_us clk.Trace.steps 0.5);
      ("engine.step_p99_us", Trace.Hist.quantile_us clk.Trace.steps 0.99);
      ("engine.self_s", self_s);
      ("daemon.select_s", daemon_s);
      ("observer.s", observer_s);
      ("guard.calls", guards);
      ("guard.self_s", guard_s);
    ]
    @ guard_t
    @ [
        ("guard.calls_per_move", ratio guards (fi moves));
        ("guard.cache_hits", fi hits);
        ("action.calls", fi (Trace.total_count Trace.c_action));
        ("action.self_s", action_s);
        ("algo.steps_per_guard", ratio (fi (Trace.total_count Trace.c_step)) guards);
        ("core.space_bits", fi space_bits);
        ("sync.history_s", t2 -. t1);
        ("checker.legit_s", t3 -. t2);
      ]
    @ algo_layers () )

let engine_rep ~traced ~graph ~instance =
  timed ~graph ~instance ~recover:(if traced then engine_traced else engine_plain)

(* ------------------------------------------------------------------ *)
(* Message plane                                                        *)
(* ------------------------------------------------------------------ *)

type ('s, 'i) msgnet = {
  msc : ('s, 'i) Stab.scenario;
  mstart : ('s St.t, 'i) Config.t;
  codec : 's Cellpack.codec;
  heartbeat_every : int option;
  corrupt_mirrors : bool;
  chaos : 's M.chaos option;
  rng : Rng.t;
  history_rounds : int option;
  mspec : ('s array -> bool) option;
}

let msgnet_counts p final (s : M.stats) =
  [
    ("nodes", Config.n final);
    ("moves", s.M.rule_executions);
    ("deliveries", s.M.deliveries);
    ("wire_bits", M.total_bits s);
    ("space_bits", Checker.space_bits p final);
    ("proof_waves", s.M.proof_waves);
    ("update_messages", s.M.update_messages);
    ("update_bits", s.M.update_bits);
    ("proof_messages", s.M.proof_messages);
    ("proof_bits", s.M.proof_bits);
    ("stale_proof_messages", s.M.stale_proof_messages);
    ("request_messages", s.M.request_messages);
    ("full_copy_messages", s.M.full_copy_messages);
    ("full_copy_bits", s.M.full_copy_bits);
    ( "chaos_actions",
      s.M.dropped_messages + s.M.duplicated_messages + s.M.reordered_messages
      + s.M.corruption_events );
    ("peak_queued_bits", s.M.peak_queued_bits);
    ("mirror_bytes", s.M.mirror_bytes);
  ]

let msgnet_checks m (s : M.stats) legitimate final =
  first_error
    [
      ( s.M.quiescent,
        "run stopped on its " ^ Budget.outcome_to_string s.M.outcome ^ " budget"
      );
      ( legitimate = Ok (),
        match legitimate with Ok () -> "" | Error e -> "illegitimate: " ^ e );
      ( (match m.mspec with Some f -> f (Tr.outputs final) | None -> true),
        "specification does not hold" );
    ]

let msgnet_history m =
  match m.history_rounds with
  | Some rounds -> Stab.history ~rounds m.msc
  | None -> Stab.history m.msc

(* The measured path: [Msgnet.run], then the ground truth, then the
   terminal check. *)
let msgnet_plain m =
  let p = m.msc.Stab.params in
  let final, s =
    M.run ~codec:m.codec ?heartbeat_every:m.heartbeat_every
      ~corrupt_mirrors:m.corrupt_mirrors ~max_events:event_allowance
      ~budget:(budget ()) ?chaos:m.chaos ~rng:m.rng p m.mstart
  in
  let legitimate = Checker.legitimate_terminal p (msgnet_history m) final in
  (msgnet_counts p final s, msgnet_checks m s legitimate final, [])

let msgnet_traced m =
  Trace.reset ();
  let p = m.msc.Stab.params in
  let n = Graph.n m.msc.Stab.graph in
  let clk = Trace.msgnet_clock ~nchan:(2 * Graph.m m.msc.Stab.graph) in
  let t0 = now () in
  let final, s =
    M.run ~codec:(Trace.codec m.codec) ?heartbeat_every:m.heartbeat_every
      ~corrupt_mirrors:m.corrupt_mirrors ~max_events:event_allowance
      ~budget:(budget ()) ?chaos:m.chaos ~rng:m.rng
      ~now:(Trace.msgnet_now clk) ~sinks:[ Trace.msgnet_sink clk ]
      { p with P.sync = Trace.sync p.P.sync }
      m.mstart
  in
  Trace.msgnet_finish clk;
  let t1 = now () in
  let hist = msgnet_history m in
  let t2 = now () in
  let legitimate = Checker.legitimate_terminal p hist final in
  let t3 = now () in
  let run_s = t1 -. t0 in
  let phase i = ns_s clk.Trace.phase_ns.(i) in
  let count i = fi clk.Trace.phase_n.(i) in
  let attributed =
    Array.fold_left (fun acc x -> acc +. ns_s x) 0. clk.Trace.phase_ns
  in
  let per_node x = fi x /. fi n in
  let useful_proofs = count Trace.p_proof -. fi s.M.stale_proof_messages in
  let error =
    match msgnet_checks m s legitimate final with
    | Some _ as err -> err
    | None ->
        if run_s < 0.1 || Float.abs (run_s -. attributed) <= 0.1 *. run_s then None
        else
          Some
            (Printf.sprintf "event phases cover %.1f%% of the run"
               (100. *. attributed /. run_s))
  in
  ( msgnet_counts p final s,
    error,
    [
      ("msgnet.run_s", run_s);
      ("msgnet.init_s", phase Trace.p_init);
      ("msgnet.pick_s", phase Trace.p_pick);
      ("msgnet.update_n", count Trace.p_update);
      ("msgnet.update_s", phase Trace.p_update);
      ("msgnet.proof_n", count Trace.p_proof);
      ("msgnet.proof_s", phase Trace.p_proof);
      ("msgnet.request_n", count Trace.p_request);
      ("msgnet.request_s", phase Trace.p_request);
      ("msgnet.full_copy_n", count Trace.p_full_copy);
      ("msgnet.full_copy_s", phase Trace.p_full_copy);
      ("msgnet.wave_n", count Trace.p_wave);
      ("msgnet.wave_s", phase Trace.p_wave);
      ("msgnet.drained_n", count Trace.p_drained);
      ("msgnet.drained_s", phase Trace.p_drained);
      ("msgnet.chaos_n", count Trace.p_chaos);
      ("msgnet.chaos_s", phase Trace.p_chaos);
      ("msgnet.event_p50_us", Trace.Hist.quantile_us clk.Trace.events 0.5);
      ("msgnet.event_p99_us", Trace.Hist.quantile_us clk.Trace.events 0.99);
      ("msgnet.deliveries", fi s.M.deliveries);
      ("msgnet.deliveries_per_s", ratio (fi s.M.deliveries) run_s);
      ("msgnet.stale_proof_n", fi s.M.stale_proof_messages);
      ("msgnet.request_per_proof", ratio (fi s.M.request_messages) useful_proofs);
      ("msgnet.wire_bits_per_node", per_node (M.total_bits s));
      ("msgnet.update_bits_per_node", per_node s.M.update_bits);
      ("msgnet.proof_bits_per_node", per_node s.M.proof_bits);
      ( "msgnet.repair_bits_per_node",
        per_node
          ((s.M.request_messages * Ss_energy.Energy.request_message_bits)
          + s.M.full_copy_bits) );
      ("msgnet.peak_queued_bits_per_node", per_node s.M.peak_queued_bits);
      ("msgnet.mirror_bytes_per_node", per_node s.M.mirror_bytes);
      ("core.space_bits", fi (Checker.space_bits p final));
      ("sync.history_s", t2 -. t1);
      ("checker.legit_s", t3 -. t2);
    ]
    @ algo_layers () )

let msgnet_rep ~traced ~graph ~instance =
  timed ~graph ~instance ~recover:(if traced then msgnet_traced else msgnet_plain)

(* ------------------------------------------------------------------ *)
(* The workloads                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  name : string;
  plane : [ `Engine | `Msgnet ];
  rep : quick:bool -> traced:bool -> seed:int -> rep;
}

(* Independent instance streams per workload from one suite seed. *)
let instance_rng ~seed ~index = Rng.split_at ~seed ~index

(* §5.1 leader election on the @bench/bigrun torus: a synchronous
   daemon dirties nearly every node each step, so guard evaluation over
   the packed arena, through the sharded scheduler, dominates. *)
let engine_sync_torus =
  let rep ~quick ~traced ~seed =
    let rows, cols = if quick then (20, 25) else (128, 512) in
    let codec = if traced then Trace.codec LE.codec else LE.codec in
    engine_rep ~traced
      ~graph:(fun () -> Builders.torus ~rows ~cols)
      ~instance:(fun g ->
        let rng = instance_rng ~seed ~index:0 in
        let inputs = LE.random_ids (Rng.split rng) g in
        let params = Tr.params ~bound:(P.Finite 8) LE.algo in
        let sc = { Stab.params; graph = g; inputs } in
        {
          sc;
          start = Stab.corrupted_start (Rng.split rng) ~codec ~max_height:8 sc;
          daemon = Daemon.synchronous;
          sharded = true;
          spec = None (* B = 8 is below T, so only the simulation is checked *);
        })
  in
  { name = "engine-sync-torus"; plane = `Engine; rep }

(* Leader election on a ring under a central daemon, as `fasst run -d
   central` runs it: one move per step, so per-step overhead (daemon,
   dirty set, rounds, the recovery observer's copy-per-step) and deep
   boxed lists dominate. *)
let engine_central_ring =
  let rep ~quick ~traced ~seed =
    let n = if quick then 48 else 512 in
    engine_rep ~traced
      ~graph:(fun () -> Builders.cycle n)
      ~instance:(fun g ->
        let rng = instance_rng ~seed ~index:1 in
        let inputs = LE.random_ids (Rng.split rng) g in
        let sc = { Stab.params = Tr.params LE.algo; graph = g; inputs } in
        let t = (Stab.history sc).Ss_sync.Sync_runner.t in
        {
          sc;
          start = Stab.corrupted_start (Rng.split rng) ~max_height:(t + 6) sc;
          daemon = Daemon.central_random (Rng.split rng);
          sharded = false;
          spec = Some (fun final -> LE.spec_holds g ~inputs ~final);
        })
  in
  { name = "engine-central-ring"; plane = `Engine; rep }

(* §5.3 Cole–Vishkin over the message network in its production
   configuration: the update plane (ring-buffer channels, D_ru writes
   into packed mirrors) dominates; only a dozen proof waves run. *)
let msgnet_cv_ring =
  let rep ~quick ~traced ~seed =
    let n = if quick then 300 else 15_000 in
    let width = 17 in
    msgnet_rep ~traced
      ~graph:(fun () -> Builders.cycle n)
      ~instance:(fun g ->
        let rng = instance_rng ~seed ~index:2 in
        let ids = CV.random_ring_ids (Rng.split rng) ~n ~width in
        let inputs = CV.inputs ~ids ~width g in
        let b = CV.schedule_length width in
        let params = Tr.params ~mode:P.Greedy ~bound:(P.Finite b) CV.algo in
        {
          msc = { Stab.params; graph = g; inputs };
          mstart =
            Tr.corrupt (Rng.split rng) ~max_height:b params
              (Tr.clean_config params g ~inputs);
          codec = CV.codec;
          heartbeat_every = Some (max 400 (4 * Graph.m g));
          corrupt_mirrors = true;
          chaos = None;
          rng = Rng.split rng;
          history_rounds = Some b;
          mspec = Some (fun final -> CV.spec_holds g ~final);
        })
  in
  { name = "msgnet-cv-ring"; plane = `Msgnet; rep }

(* Leader election over the message network under the chaos scenario:
   B = ∞ keeps mirrors boxed, proofs hash lists hundreds of cells deep,
   and drops, duplicates, reorders and corruptions drive Request /
   Full_copy repair.  A ring, not a torus: on a torus the number of
   deliveries to converge varies twentyfold across seeds.  The mirrors
   start accurate; scrambled ones would make the peak heap jump by a
   seventh on some seeds and not others. *)
let msgnet_leader_ring_chaos =
  let rep ~quick ~traced ~seed =
    let n = if quick then 32 else 384 in
    msgnet_rep ~traced
      ~graph:(fun () -> Builders.cycle n)
      ~instance:(fun g ->
        let rng = instance_rng ~seed ~index:3 in
        let inputs = LE.random_ids (Rng.split rng) g in
        let params = Tr.params LE.algo in
        let msc = { Stab.params; graph = g; inputs } in
        let max_height = (Stab.history msc).Ss_sync.Sync_runner.t + 4 in
        let plan_seed = Rng.int rng (1 lsl 30) in
        {
          msc;
          mstart =
            Tr.corrupt (Rng.split rng) ~max_height params
              (Tr.clean_config params g ~inputs);
          codec = LE.codec;
          heartbeat_every = None;
          corrupt_mirrors = false;
          chaos =
            Some
              {
                M.plan = Scenario.msgnet_plan Scenario.chaos ~seed:plan_seed;
                mutate =
                  (fun crng v st ->
                    Tr.corrupt_state crng ~max_height params (inputs v) st);
              };
          rng = Rng.split rng;
          history_rounds = None;
          mspec = Some (fun final -> LE.spec_holds g ~inputs ~final);
        })
  in
  { name = "msgnet-leader-ring-chaos"; plane = `Msgnet; rep }

let all =
  [ engine_sync_torus; engine_central_ring; msgnet_cv_ring; msgnet_leader_ring_chaos ]

let find name = List.find_opt (fun w -> w.name = name) all
