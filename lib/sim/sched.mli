(** Incremental enabled-set scheduler (the dirty-set engine core).

    A node's enabled status is a function of its {e closed
    neighborhood} only: its input, its own state and its neighbors'
    states — exactly the {!Algorithm.view} its guards read.  Hence a
    step that changes the states of a set [M] of nodes can change the
    enabled status only of [M] and of the graph neighbors of [M] (the
    {e dirty set}).  This module maintains the enabled set across
    steps by re-evaluating guards for dirty nodes alone, instead of
    the [O(n·Δ)] full scan {!Config.enabled_nodes} performs.

    The enabled set is a dense bitset ({!Nodeset}), updated in place,
    so steady-state membership updates are allocation-free; daemons
    select straight from it ({!enabled_set}), so no step builds a
    members array.  Guard evaluations share one
    neighbor-state buffer per distinct degree (per shard), refilled in
    place ({!Config.borrowed_view}) — guards must therefore be pure and
    must not retain the [neighbors] array of the view they are given
    beyond the call; every algorithm in the atomic-state model
    satisfies this ({!Engine.run} lends its actions the same kind of
    view).

    An update marks the dirty set in a bitset laid out like the
    enabled set, then sweeps the marked word span: dirty nodes are
    evaluated in increasing node order within each shard, whatever the
    order of the movers.  The sweep reads at most [n / 63] words beyond
    the evaluations, what the round tracker already reads every
    step.

    {b Sharding} ([~parallel:true]): the node space is partitioned
    into contiguous, bitset-word-aligned shards with fixed,
    job-count-independent boundaries.  Each update marks the dirty
    nodes in one sequential scan, then each shard sweeps its own words
    of the dirty bitset — concurrently on the {!Ss_par} pool when the dirty set is
    large — with every write (rule slot, bitset word, counters)
    shard-private, and folds the per-shard deltas back in shard-index
    order.  Results are byte-identical to the sequential scheduler for
    every job count (DESIGN.md §12).

    The "only the closed neighborhood of [moved] can change" property
    is also what makes {e guard-level} memoization sound downstream:
    {!Ss_core.Predicates.algo_err_cached} caches verified prefixes of
    transformer lists keyed by state identity, and relies on the fact
    that between two evaluations of a node's guard, every state it
    read either is physically the same value or belonged to a node in
    some step's [moved] set — whose re-evaluation this module
    triggers (DESIGN.md §10). *)

type ('s, 'i) t

val create :
  ?parallel:bool -> ('s, 'i) Algorithm.t -> ('s, 'i) Config.t -> ('s, 'i) t
(** [create algo config] evaluates every node once ([n] guard
    evaluations) and snapshots the topology.  All later configurations
    passed to {!update} must carry the same graph (physically).
    [parallel] (default [false]) enables the sharded update path; it
    never changes any observable result, only the wall clock. *)

val update : ('s, 'i) t -> ('s, 'i) Config.t -> moved:int list -> unit
(** [update t config ~moved] accounts for one atomic step that changed
    exactly the states of [moved], re-evaluating the closed
    neighborhood of [moved] against [config] (the {e post-step}
    configuration).  Overlapping neighborhoods are deduplicated.
    @raise Invalid_argument if [config]'s graph is not the one
    [create] saw. *)

val enabled : ('s, 'i) t -> int list
(** Currently enabled nodes in increasing order (same order as
    {!Config.enabled_nodes}), as a fresh list (allocates; kept for
    differential checks and debugging). *)

val enabled_set : ('s, 'i) t -> Nodeset.t
(** The enabled set itself, for set-based consumers ({!Daemon.select},
    {!Rounds.note_step_set}).  Owned by the scheduler: read-only, and
    mutated in place by {!update}. *)

val no_enabled : ('s, 'i) t -> bool
(** Whether the configuration is terminal ([O(1)]). *)

val is_enabled : ('s, 'i) t -> int -> bool
(** [is_enabled t p] in [O(1)]. *)

val enabled_rule : ('s, 'i) t -> int -> ('s, 'i) Algorithm.rule option
(** The cached highest-priority enabled rule of [p], if any — valid
    for the configuration last seen by {!create}/{!update}. *)

val evals : ('s, 'i) t -> int
(** Total guard-evaluation count since [create] (telemetry: the
    incremental engine's work measure, compared against [n] per step
    for the naive engine). *)
