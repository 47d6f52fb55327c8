module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module G = Ss_graph
module Sim = Ss_sim
module Config = Ss_sim.Config
module St = Ss_core.Trans_state
module Transformer = Ss_core.Registry.Trans
module Checker = Ss_core.Checker
module M = Ss_msgnet.Msgnet
module Sync_runner = Ss_sync.Sync_runner
module Stabilization = Ss_verify.Stabilization
module Scenario = Ss_chaos.Scenario
module Clock = Ss_chaos.Clock
module Budget = Ss_report.Budget

exception Invariant_violation of string

(* One {!Catalog} algorithm instantiated on one named graph under the
   uniform grid policy (greedy mode, bound = the measured synchronous
   time).  When the algorithm exports a codec, the msgnet leg runs
   with codec proof pre-images and (the grid bound being finite)
   packed mirrors — the production configuration. *)
type workload = {
  graph_name : string;
  algo_name : string;
  inst : Catalog.instance;
}

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
    ~(hist : (s, i) Sync_runner.history) ~max_height ~daemon_rng
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

(* The two rows of one grid cell, ["engine"] and ["msgnet"], each the
   worst over the seeds.  Every draw comes from streams derived from
   the cell seed alone — nothing is shared across pool tasks, so the
   grid is byte-identical for every job count.  Both legs start from
   the same corrupted configuration. *)
let cell_rows ~seeds scenario { graph_name; algo_name; inst } =
  let max_height = Catalog.max_height inst in
  let (Catalog.Instance { sc; hist; codec; _ }) = inst in
  let { Stabilization.params; graph; inputs } = sc in
  let row loop moves events drops dups reorders corrupt stale wirepeak ok =
    [
      Table.S scenario.Scenario.name;
      Table.S algo_name;
      Table.S graph_name;
      Table.I (G.Graph.n graph);
      Table.S loop;
      Table.I moves;
      Table.I events;
      Table.I drops;
      Table.I dups;
      Table.I reorders;
      Table.I corrupt;
      Table.I stale;
      Table.I wirepeak;
      Measure.ok_cell ok;
    ]
  in
  let leg run () = Measure.worst (List.map run seeds) in
  let draws seed =
    let seed_rng = Rng.create ((seed * 7919) + 97) in
    let start =
      Stabilization.corrupted_start (Rng.split seed_rng) ~max_height sc
    in
    let daemon = Sim.Daemon.distributed_random (Rng.split seed_rng) ~p:0.5 in
    (* The naive twin's generator is split first, as ever. *)
    let naive_rng = Rng.split seed_rng in
    let rng = Rng.split seed_rng in
    (start, daemon, rng, naive_rng)
  in
  [
    leg (fun seed ->
        let start, daemon, _, _ = draws seed in
        let stats, fired, ok =
          engine_leg ~scenario ~seed ~params ~hist ~max_height
            ~daemon_rng:daemon start
        in
        row "engine" stats.Sim.Engine.moves stats.Sim.Engine.steps 0 0 0 fired
          0 0 ok);
    leg (fun seed ->
        let start, _, rng, naive_rng = draws seed in
        let s, ok =
          msgnet_leg ~scenario ~seed ~params ~inputs ~hist ~max_height ~codec
            ~rng ~naive_rng start
        in
        row "msgnet" s.M.rule_executions s.M.deliveries s.M.dropped_messages
          s.M.duplicated_messages s.M.reordered_messages s.M.corruption_events
          s.M.stale_proof_messages s.M.peak_queued_bits ok);
  ]

(* ------------------------------------------------------------------ *)
(* The grid                                                             *)
(* ------------------------------------------------------------------ *)

let workloads_for ?(algos = algo_names) rng graphs =
  List.concat_map
    (fun ((graph_name, g), rng) ->
      List.filter_map
        (fun algo ->
          let a = Catalog.find_algo algo in
          (* Ring-only members of a larger sweep are skipped on unfit
             topologies instead of failing the whole grid; an explicit
             single-algorithm request still fails loudly. *)
          if
            a.Catalog.ring_only
            && List.length algos > 1
            && not (Catalog.is_ring g)
          then None
          else
            match Catalog.validate_topology a g with
            | Error e -> failwith e
            | Ok () ->
                let inst = a.instantiate (Rng.split rng) g in
                Some
                  {
                    graph_name;
                    algo_name = algo;
                    inst = Catalog.instance Catalog.greedy_t inst g;
                  })
        algos)
    (Rng.split_per rng graphs)

let default_workloads ?algos rng =
  workloads_for ?algos (Rng.split rng)
    [
      ("ring:16", G.Builders.cycle 16);
      ( "random:24",
        G.Builders.random_connected (Rng.split rng) ~n:24 ~extra_edges:12 );
    ]

let rows ?(scenarios = Scenario.all) ~seeds workloads =
  Measure.table headers
    (List.concat_map
       (fun s -> List.concat_map (cell_rows ~seeds s) workloads)
       scenarios)
