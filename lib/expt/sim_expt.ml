module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util
module Par = Ss_par.Par
module G = Ss_graph
module Sim = Ss_sim
module Config = Ss_sim.Config
module P = Ss_core.Predicates
module St = Ss_core.Trans_state
module Transformer = Ss_core.Registry.Trans
module Checker = Ss_core.Checker
module M = Ss_msgnet.Msgnet
module Sync_runner = Ss_sync.Sync_runner
module Scenario = Ss_chaos.Scenario
module Clock = Ss_chaos.Clock
module Budget = Ss_report.Budget

exception Invariant_violation of string

(* One algorithm instantiated on one graph, with its synchronous
   ground-truth history.  The existential keeps the per-algorithm state
   and input types out of the grid plumbing. *)
type workload =
  | W : {
      algo_name : string;
      graph_name : string;
      graph : G.Graph.t;
      params : ('s, 'i) Transformer.params;
      inputs : int -> 'i;
      hist : ('s, 'i) Sync_runner.history;
      codec : 's Ss_core.Cellpack.codec option;
          (* When the algorithm exports one, the msgnet leg runs with
             codec proof pre-images and (the grid bound being finite)
             packed mirrors — the production configuration. *)
    }
      -> workload

(* Workloads come from the {!Catalog}: any registered algorithm can
   enter the grid under the uniform policy (greedy mode, bound = the
   measured synchronous time), and the default roster is the catalog's
   [in_sim_grid] subset. *)
let workload rng ~algo ~graph_name graph =
  let a = Catalog.find_algo algo in
  (match Catalog.validate_topology a graph with
  | Ok () -> ()
  | Error e -> failwith e);
  match a.Catalog.instantiate rng graph with
  | Catalog.Inst { sync; inputs; spec = _; codec } ->
      let hist = Sync_runner.run sync graph ~inputs in
      let b = max 1 hist.Sync_runner.t in
      let params = Transformer.params ~mode:P.Greedy ~bound:(P.Finite b) sync in
      W { algo_name = algo; graph_name; graph; params; inputs; hist; codec }

let algo_names = Catalog.sim_algo_names ()

(* Virtual-time allowance per run.  The clock ticks 10 µs per event, so
   this corresponds to 10^7 events — far beyond any grid cell; it is
   here to exercise the injectable-deadline seam on every run, not to
   trip. *)
let virtual_deadline_s = 100.

(* "wirepeak" is the msgnet leg's peak in-flight wire bits (engine rows
   read 0: the atomic-state engine has no wire). *)
let headers =
  [
    "scenario"; "algo"; "graph"; "n"; "loop"; "moves"; "events"; "drops";
    "dups"; "reorders"; "corrupt"; "stale"; "wirepeak"; "ok";
  ]

(* ------------------------------------------------------------------ *)
(* One grid cell                                                        *)
(* ------------------------------------------------------------------ *)

(* The engine leg: dirty-set engine with self-check (the incremental
   enabled-set shadow state is re-derived by full scan after every
   step), scheduled mid-run corruption at the scenario's step indices,
   and a per-step observer asserting the height invariant on the
   virtual clock's event stream. *)
let engine_leg (type s i) ~scenario ~seed ~(params : (s, i) Transformer.params)
    ~inputs:_ ~(hist : (s, i) Sync_runner.history) ~max_height ~daemon_rng
    start =
  let clk = Clock.create () in
  let height_cap = max max_height hist.Sync_runner.t + 4 in
  let observer ~step:_ ~rounds:_ ~moved:_ config =
    Clock.tick clk;
    Array.iter
      (fun st ->
        let h = St.height st in
        if h < 0 || h > height_cap then
          raise
            (Invariant_violation
               (Printf.sprintf "engine: height %d outside [0, %d]" h height_cap)))
      config.Config.states
  in
  let plan = Scenario.engine_plan scenario ~seed in
  let scheduled = Ss_chaos.Fault_plan.pending_corruptions plan in
  let chaos =
    {
      Sim.Engine.plan;
      mutate =
        (fun crng v config ->
          Transformer.corrupt_state crng ~max_height params
            (Config.input config v)
            config.Config.states.(v));
    }
  in
  let stats =
    Transformer.run ~self_check:true
      ~budget:(Budget.v ~deadline_s:virtual_deadline_s ())
      ~now:(Clock.now_fn clk) ~chaos ~sinks:[ observer ] params daemon_rng start
  in
  let fired = scheduled - Ss_chaos.Fault_plan.pending_corruptions plan in
  let ok =
    stats.Sim.Engine.terminated
    && Checker.legitimate_terminal params hist stats.Sim.Engine.final = Ok ()
  in
  (stats, fired, ok)

(* The msgnet leg: chaos plan at the delivery picker, scheduled mid-run
   corruption, an event sink asserting stream-level conservation (every
   delivery or drop is backed by a send or a duplicate; wave nonces are
   monotone), and the fault-free naive twin as ground truth for the
   final outputs. *)
let msgnet_leg (type s i) ~scenario ~seed ~(params : (s, i) Transformer.params)
    ~(inputs : int -> i) ~(hist : (s, i) Sync_runner.history) ~max_height
    ~(codec : s Ss_core.Cellpack.codec option) ~rng ~naive_rng start =
  let clk = Clock.create () in
  let sent = ref 0
  and delivered = ref 0
  and dropped = ref 0
  and dup = ref 0
  and last_nonce = ref 0 in
  let sink ev =
    Clock.tick clk;
    (match ev with
    | M.Sent _ -> incr sent
    | M.Delivered _ -> incr delivered
    | M.Dropped _ -> incr dropped
    | M.Duplicated _ -> incr dup
    | M.Reordered _ | M.Corrupted _ -> ()
    | M.Wave { nonce } ->
        if nonce <> !last_nonce + 1 then
          raise
            (Invariant_violation
               (Printf.sprintf "msgnet: wave nonce %d after %d" nonce
                  !last_nonce));
        last_nonce := nonce);
    if !delivered + !dropped > !sent + !dup then
      raise
        (Invariant_violation
           (Printf.sprintf
              "msgnet: %d delivered + %d dropped exceeds %d sent + %d \
               duplicated"
              !delivered !dropped !sent !dup))
  in
  let chaos =
    {
      M.plan = Scenario.msgnet_plan scenario ~seed;
      mutate =
        (fun crng v st ->
          Transformer.corrupt_state crng ~max_height params (inputs v) st);
    }
  in
  let final, stats =
    M.run ?codec
      ~budget:(Budget.v ~deadline_s:virtual_deadline_s ())
      ~now:(Clock.now_fn clk) ~chaos ~sinks:[ sink ] ~rng params start
  in
  (* Counter/event agreement: the stats record and the sink stream are
     two views of the same execution. *)
  if
    stats.M.dropped_messages <> !dropped
    || stats.M.duplicated_messages <> !dup
  then
    raise
      (Invariant_violation
         "msgnet: fault counters disagree with the event stream");
  let naive_final, naive_stats = M.run_naive ~rng:naive_rng params start in
  let ok =
    stats.M.quiescent
    && Checker.legitimate_terminal params hist final = Ok ()
    && naive_stats.M.quiescent
    && Checker.legitimate_terminal params hist naive_final = Ok ()
    && Transformer.outputs final = Transformer.outputs naive_final
  in
  (stats, ok)

let cell_rows ~seeds (scenario, W w) =
  let n = G.Graph.n w.graph in
  let max_height =
    min (P.bound_to_int w.params.Transformer.bound) (w.hist.Sync_runner.t + 4)
  in
  (* Worst-over-seeds aggregation, msgnet_expt-style. *)
  let e_moves = ref 0
  and e_steps = ref 0
  and e_corrupt = ref 0
  and e_ok = ref true in
  let m_execs = ref 0
  and m_events = ref 0
  and m_drops = ref 0
  and m_dups = ref 0
  and m_reorders = ref 0
  and m_corrupt = ref 0
  and m_stale = ref 0
  and m_wirepeak = ref 0
  and m_ok = ref true in
  List.iter
    (fun seed ->
      (* Every draw in this cell comes from streams derived from the
         cell seed alone — nothing is shared across pool tasks, so the
         grid is byte-identical for every job count. *)
      let seed_rng = Rng.create ((seed * 7919) + 97) in
      let start =
        Transformer.corrupt (Rng.split seed_rng) ~max_height w.params
          (Transformer.clean_config w.params w.graph ~inputs:w.inputs)
      in
      let daemon =
        Sim.Daemon.distributed_random (Rng.split seed_rng) ~p:0.5
      in
      let stats, fired, ok =
        engine_leg ~scenario ~seed ~params:w.params ~inputs:w.inputs
          ~hist:w.hist ~max_height ~daemon_rng:daemon start
      in
      e_moves := max !e_moves stats.Sim.Engine.moves;
      e_steps := max !e_steps stats.Sim.Engine.steps;
      e_corrupt := max !e_corrupt fired;
      e_ok := !e_ok && ok;
      let mstats, mok =
        msgnet_leg ~scenario ~seed ~params:w.params ~inputs:w.inputs
          ~hist:w.hist ~max_height ~codec:w.codec ~rng:(Rng.split seed_rng)
          ~naive_rng:(Rng.split seed_rng) start
      in
      m_execs := max !m_execs mstats.M.rule_executions;
      m_events := max !m_events mstats.M.deliveries;
      m_drops := max !m_drops mstats.M.dropped_messages;
      m_dups := max !m_dups mstats.M.duplicated_messages;
      m_reorders := max !m_reorders mstats.M.reordered_messages;
      m_corrupt := max !m_corrupt mstats.M.corruption_events;
      m_stale := max !m_stale mstats.M.stale_proof_messages;
      m_wirepeak := max !m_wirepeak mstats.M.peak_queued_bits;
      m_ok := !m_ok && mok)
    seeds;
  let row loop moves events drops dups reorders corrupt stale wirepeak ok =
    [
      Table.S scenario.Scenario.name;
      Table.S w.algo_name;
      Table.S w.graph_name;
      Table.I n;
      Table.S loop;
      Table.I moves;
      Table.I events;
      Table.I drops;
      Table.I dups;
      Table.I reorders;
      Table.I corrupt;
      Table.I stale;
      Table.I wirepeak;
      Table.S (if ok then "yes" else "NO");
    ]
  in
  [
    row "engine" !e_moves !e_steps 0 0 0 !e_corrupt 0 0 !e_ok;
    row "msgnet" !m_execs !m_events !m_drops !m_dups !m_reorders !m_corrupt
      !m_stale !m_wirepeak !m_ok;
  ]

(* ------------------------------------------------------------------ *)
(* The grid                                                             *)
(* ------------------------------------------------------------------ *)

let workloads_for ?(algos = algo_names) rng graphs =
  List.concat_map
    (fun ((name, g), rng) ->
      List.filter_map
        (fun algo ->
          (* Ring-only members of a larger sweep are skipped on unfit
             topologies instead of failing the whole grid; an explicit
             single-algorithm request still fails loudly inside
             [workload]. *)
          if
            (Catalog.find_algo algo).Catalog.ring_only
            && List.length algos > 1
            && not (Catalog.is_ring g)
          then None
          else Some (workload (Rng.split rng) ~algo ~graph_name:name g))
        algos)
    (Rng.split_per rng graphs)

let default_workloads ?algos rng =
  workloads_for ?algos (Rng.split rng)
    [
      ("ring:16", G.Builders.cycle 16);
      ( "random:24",
        G.Builders.random_connected (Rng.split rng) ~n:24 ~extra_edges:12 );
    ]

let rows ?(scenarios = Scenario.all) ?(seeds = [ 1; 2 ]) workloads =
  let table = Table.create headers in
  let cells =
    List.concat_map (fun s -> List.map (fun w -> (s, w)) workloads) scenarios
  in
  let all_rows = List.concat (Par.map (cell_rows ~seeds) cells) in
  List.iter (Table.add table) all_rows;
  let ok =
    List.for_all
      (fun cells ->
        match List.rev cells with Table.S "NO" :: _ -> false | _ -> true)
      all_rows
  in
  (table, ok)
