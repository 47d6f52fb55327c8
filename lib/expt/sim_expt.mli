(** Chaos-mode simulation grids: scenario × algorithm × graph.

    Every cell runs both execution loops through a named
    {!Ss_chaos.Scenario} — the dirty-set engine with scheduled mid-run
    corruption and per-step shadow-state checks ([self_check] plus a
    height-invariant observer), and the message network with ppm-rated
    drop/duplicate/reorder injection, a stream-conservation event sink,
    and the fault-free {!Ss_msgnet.Msgnet.run_naive} twin as ground
    truth for the final outputs.  Both legs run on deterministic
    virtual clocks ({!Ss_chaos.Clock}), so deadline budgets and every
    reported figure replay byte-identically — for any [-j], per the
    DESIGN.md §11 campaign-determinism contract.

    An "ok" cell certifies that the run reached verified quiescence
    {e through} the injected faults and that the terminal configuration
    is legitimate against the synchronous ground truth — the paper's
    §3 claim exercised in an arbitrary asynchronous environment rather
    than only from a bad start. *)

exception Invariant_violation of string
(** Raised (from inside the pool) the moment any per-event invariant
    breaks: engine heights out of range, non-monotone wave nonces,
    deliveries unbacked by sends, or fault counters disagreeing with
    the event stream.  Escapes {!rows} so harness bugs fail loudly
    instead of averaging into a table cell. *)

type workload
(** One {!Catalog} algorithm on one named graph: a
    {!Catalog.instance} under {!Catalog.greedy_t} (greedy mode, bound =
    the measured synchronous time), with its synchronous ground-truth
    history precomputed outside the pool. *)

val algo_names : string list
(** The default grid roster: the catalog's [in_sim_grid] subset
    (currently leader, bfs, cv). *)

val workloads_for :
  ?algos:string list ->
  Ss_prelude.Rng.t ->
  (string * Ss_graph.Graph.t) list ->
  workload list
(** [workloads_for rng graphs] crosses the named graphs with [algos]
    (default {!algo_names}).  When [algos] has several members,
    ring-only algorithms are silently skipped on unfit topologies; a
    single-algorithm list fails on one.  The inputs of each workload
    are drawn from one split of its graph's generator.
    @raise Failure on an unknown algorithm or a ring-only algorithm on
    a non-ring topology. *)

val default_workloads : ?algos:string list -> Ss_prelude.Rng.t -> workload list
(** The built-in grid: ring and random-connected topologies × every
    algorithm that fits them. *)

val rows :
  ?scenarios:Ss_chaos.Scenario.t list ->
  seeds:int list ->
  workload list ->
  Ss_prelude.Table.t
(** [rows ~seeds workloads] runs the scenario × workload grid on the
    shared {!Ss_par.Par} pool: two rows per cell (["engine"] and
    ["msgnet"]), each the worst over [seeds].  A run that fails to
    re-stabilize to a legitimate quiescent configuration reads "NO"
    in the "ok" column.  Default: [scenarios = Scenario.all]. *)
