(** Execution engine for the atomic-state model.

    Starting from a configuration, the engine repeatedly asks the
    daemon for a nonempty set of enabled nodes, lets each selected
    node execute its highest-priority enabled rule {e atomically and
    simultaneously} (all guards and actions read the pre-step
    configuration), and accounts moves, steps and rounds.  An
    execution ends at a terminal configuration (no enabled node — the
    algorithm is silent there) or when a budget limit trips. *)

exception Invalid_selection of string
(** Raised when a daemon selects an empty set, a node that is not
    enabled, or a duplicated node (scripted adversaries are validated
    this way). *)

exception Divergence of string
(** Raised by {!run} with [~self_check:true] when the incremental
    enabled set disagrees with a full naive scan — the differential
    hook for checking the dirty-set scheduler trace-for-trace. *)

type ('s, 'i) stats = {
  final : ('s, 'i) Config.t;  (** Last configuration reached. *)
  steps : int;  (** Number of daemon steps executed. *)
  moves : int;  (** Total rule executions (the paper's moves). *)
  rounds : int;  (** Completed rounds (neutralization-based). *)
  terminated : bool;  (** Whether a terminal configuration was reached
          (equivalent to [outcome = Completed]). *)
  outcome : Ss_report.Budget.outcome;
      (** [Completed], or which budget limit cut the run short. *)
  moves_per_node : int array;  (** Moves of each node. *)
  moves_per_rule : (string * int) list;
      (** Moves per rule label, in the algorithm's priority order. *)
}

type ('s, 'i) observer =
  step:int -> rounds:int -> moved:(int * string) list -> ('s, 'i) Config.t -> unit
(** A sink on the engine's event stream: called once on the initial
    configuration ([step = 0], [moved = []]) and after every step with
    the (node, rule label) pairs that moved and the configuration
    reached.

    {b Borrowing rule}: the configuration is the engine's live one,
    lent for the duration of the call.  {!run} steps in place, so the
    same configuration value is passed to every call and its state
    array changes after the sink returns.  A sink that keeps
    configurations must snapshot them (copy [config.states], as
    {!Trace.with_configs} does); reading states, inputs and the graph
    during the call is always safe.

    {b Sink purity contract} (DESIGN.md §9): a sink must not mutate
    the configuration, the algorithm, or the daemon it observes — it
    may only read them and accumulate into its own state.  All sinks
    on the bus see the same events in the same order, so composable
    consumers (trace recording, CSV export, progress display,
    divergence checking) cannot perturb the execution they measure. *)

val tee : ('s, 'i) observer list -> ('s, 'i) observer
(** Fan one event stream out to several sinks, in list order. *)

val divergence_sink :
  checked:string * (('s, 'i) Config.t -> int list) ->
  reference:string * (('s, 'i) Config.t -> int list) ->
  ('s, 'i) observer
(** [divergence_sink ~checked:(what, actual) ~reference:(against,
    expected)] is the differential sink behind every [self_check]: on
    each event it computes [actual config], then [expected config], and
    raises {!Divergence}
    ["<what> enabled set {i,j,..} disagrees with <against> {k,..}"]
    when the two enabled-node lists differ. *)

type ('s, 'i) chaos = {
  plan : Ss_chaos.Fault_plan.t;
      (** Only the plan's corruption schedule applies to the engine
          (there are no channels to drop from); [corrupt_at] indices
          are {e step} indices here.  The plan owns a private RNG
          stream, so attaching one never perturbs the daemon's or the
          algorithm's draws. *)
  mutate : Ss_prelude.Rng.t -> int -> ('s, 'i) Config.t -> 's;
      (** [mutate rng v config] is the corrupted replacement for node
          [v]'s state; draws only from the given (plan-owned) rng. *)
}
(** Mid-run transient-fault injection for {!run} — the dynamic
    counterpart of {!Fault.corrupt}, which only hits t = 0. *)

val run :
  ?budget:Ss_report.Budget.t ->
  ?max_steps:int ->
  ?max_moves:int ->
  ?now:(unit -> float) ->
  ?chaos:('s, 'i) chaos ->
  ?self_check:bool ->
  ?sharded:bool ->
  ?observer:('s, 'i) observer ->
  ?sinks:('s, 'i) observer list ->
  ('s, 'i) Algorithm.t ->
  Daemon.t ->
  ('s, 'i) Config.t ->
  ('s, 'i) stats
(** [run algo daemon config] executes until termination or budget
    exhaustion.  [stats.outcome] reports which happened.

    [sharded] (default [false]) runs the dirty-set scheduler on
    word-aligned node shards evaluated on the {!Ss_par} pool when the
    dirty set is large — parallelism {e inside} a single run.  Every
    observable (steps, moves, rounds, configurations, stats) is
    byte-identical to the sequential engine for every job count; only
    the wall clock changes (DESIGN.md §12).

    The engine steps {e in place} on a private copy of the state
    array, observed or not: a step costs time proportional to the
    nodes it moves and their neighborhoods, never an O(n) copy.  The
    input configuration is never mutated; [stats.final] is the private
    configuration, fresh to the caller.  Sinks borrow it (see
    {!observer}).

    Budgets: the unified [budget] record and the historical
    [max_steps]/[max_moves] arguments compose — the tightest provided
    limit wins ({!Ss_report.Budget.resolve}); when neither constrains
    a dimension, [steps] defaults to [10_000_000] and [moves] is
    unlimited.  [budget.deadline_s] is checked between steps — against
    [now] when given (e.g. {!Ss_chaos.Clock.now_fn} for deterministic
    deadlines), the monotonic machine clock otherwise.

    [chaos] injects scheduled mid-run corruption: before the step at
    each due index (and before the termination check, so a fault on a
    quiescent configuration re-starts stabilization) a uniformly drawn
    victim's state is replaced via [mutate], and the dirty-set
    scheduler is re-synced exactly as for a moved node.  The injection
    draws only from the plan's private RNG stream, so a run with no
    due corruption is byte-identical to one with no [chaos] at all.

    The move limit is a {e hard} bound: [stats.moves <= max_moves]
    always.  A step whose selection would cross the remaining budget
    executes only a prefix of the selection (in the daemon's order) —
    the historical behavior checked the budget only between steps and
    could overshoot by up to n-1 moves on a synchronous step.  The
    truncated step still counts as one step.  The step limit keeps its
    pre-step semantics: the step that would exceed it is simply not
    taken.

    Observability: [observer] and every element of [sinks] are placed
    on one bus ({!tee}) — [observer] first, then [sinks] in order —
    and all receive every event.

    The engine is {e incremental}: it maintains the enabled set with
    a dirty-set scheduler ({!Sched}) that re-evaluates guards only
    for nodes whose closed neighborhood changed, instead of scanning
    all [n] nodes twice per step, and the daemon selects straight from
    that set ({!Sched.enabled_set}).  Observable behavior is identical
    to {!run_naive} (same steps, moves, rounds, configurations) for
    any algorithm whose guards are pure functions of the view — see
    DESIGN.md §7.  [self_check] (default [false]) appends a
    divergence-checking sink to the bus that re-derives the enabled
    set with a full scan after every step and raises {!Divergence} on
    any mismatch; use it when developing new algorithms or engine
    changes.
    @raise Invalid_selection on malformed daemon selections. *)

val run_naive :
  ?budget:Ss_report.Budget.t ->
  ?max_steps:int ->
  ?max_moves:int ->
  ?now:(unit -> float) ->
  ?observer:('s, 'i) observer ->
  ?sinks:('s, 'i) observer list ->
  ('s, 'i) Algorithm.t ->
  Daemon.t ->
  ('s, 'i) Config.t ->
  ('s, 'i) stats
(** Reference engine: recomputes the full enabled set from scratch
    every step ([O(n·Δ)] guard evaluations per step).  Kept as the
    compatibility baseline for differential testing and benchmarking;
    produces exactly the same execution as {!run}, including the hard
    move-cap prefix-truncation semantics and the unified budget
    handling.  Deliberately takes no [chaos]: the naive loop is the
    fault-free reference twin chaos runs are checked against. *)

val step :
  ('s, 'i) Algorithm.t ->
  ('s, 'i) Config.t ->
  int list ->
  ('s, 'i) Config.t * (int * string) list
(** [step algo config selected] performs one atomic step activating
    exactly [selected]: returns the new configuration and the (node,
    rule) moves.  Validates the selection.
    @raise Invalid_selection on malformed selections. *)

val run_synchronous :
  ?budget:Ss_report.Budget.t ->
  ?max_steps:int ->
  ?max_moves:int ->
  ('s, 'i) Algorithm.t ->
  ('s, 'i) Config.t ->
  ('s, 'i) stats
(** Convenience: run under the synchronous daemon (steps = rounds
    except for the final, terminal configuration).  Takes the same
    hard [max_moves] cap (and unified budget) as {!run}. *)

val report :
  ?label:string ->
  ?seed:int ->
  ?wall_s:float ->
  ?timebase:Ss_report.Run_report.timebase ->
  ('s, 'i) stats ->
  Ss_report.Run_report.t
(** The engine's statistics as a structured {!Ss_report.Run_report.t}
    (kind ["engine"]), ready for JSON emission. *)
