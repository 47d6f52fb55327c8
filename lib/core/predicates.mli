(** The transformer's guard predicates (paper §3.1).

    All predicates are evaluated over a node's {!Ss_sim.Algorithm.view}
    whose states are {!Trans_state.t}; they only inspect the node's
    own state and the {e set} of neighbor states, as required by the
    weak model (§2.2). *)

type mode = Lazy | Greedy
(** Lazy simulates a new round only when necessary; greedy simulates
    all [B] rounds (§3.1). *)

type bound = Finite of int | Infinite
(** The upper bound [B] on the synchronous execution time [T];
    [Infinite] encodes [B = +∞]. *)

type ('s, 'i) params = {
  sync : ('s, 'i) Ss_sync.Sync_algo.t;  (** The simulated algorithm. *)
  mode : mode;
  bound : bound;
}

type ('s, 'i) view = ('s Trans_state.t, 'i) Ss_sim.Algorithm.view
(** What a transformer node observes. *)

val below_bound : bound -> int -> bool
(** [below_bound b h] is [h < B] ([true] when [B = +∞]). *)

val bound_to_int : bound -> int
(** [Finite b -> b], [Infinite -> max_int] (for caps in experiments). *)

val algo_hat : ('s, 'i) params -> ('s, 'i) view -> int -> 's
(** [algo_hat params v i] is the paper's [algô(p, i)]: the simulated
    algorithm applied by the node when every node of its closed
    neighborhood is in the state of its cell [i].  All heights in the
    closed neighborhood must be [>= i] — guaranteed by the guards that
    call it.
    @raise Invalid_argument when a dependency is missing. *)

val min_neighbor_height : ('s, 'i) view -> int
(** Smallest neighbor height ([max_int] when there are no neighbors). *)

val top_checkable : ('s, 'i) view -> int
(** The largest checkable cell index: [min h (min_nb + 1)] (and [h]
    for an isolated node) — cell [i] is checkable when every
    dependency [q.L(i-1)] exists. *)

val first_bad : ('s, 'i) params -> ('s, 'i) view -> base:int -> top:int -> int
(** [first_bad params v ~base ~top] scans cells [base+1 .. top]
    (cells [1 .. base] are assumed verified) and returns the index of
    the first cell that differs from [algô(p, i-1)], or [top + 1] when
    the whole range verifies.  The shared primitive under
    {!algo_err}, {!algo_err_cached} and the adaptive transformer's
    point-truncation rule. *)

val algo_err : ('s, 'i) params -> ('s, 'i) view -> bool
(** [algoErr(p)]: some cell [1 <= i <= h] has all its dependencies
    present ([∀q, q.h >= i-1]) yet differs from [algô(p, i-1)].
    Reference implementation: re-verifies the whole checkable prefix,
    O(h·deg) calls to [step]. *)

type ('s, 'i) cache
(** Memoized verification watermarks for {!algo_err_cached}: per node
    (stored at the view's {!Ss_sim.Algorithm.view} [node] index), the
    deepest prefix of [L] already verified against the current
    neighbor cells, together with the tokens that verification read:
    the input, the node's own lineage ({!Trans_state.rep_id}) and
    {!Trans_state.stamp}, and each neighbor's lineage and stamp.  An
    entry applies only when those tokens match, so the index is just a
    key: a view carrying another node's index, or a second graph, costs
    a miss and never a wrong answer.  Sound because committed buffer
    prefixes are write-once: as long as the node and each neighbor
    keep their lineage, the cells behind the watermark are physically
    unchanged, and every move that could affect them (divergence, [RR]
    wipe, corruption, a packed write below the frontier) mints a fresh
    lineage — a miss, never a stale hit. *)

val make_cache : unit -> ('s, 'i) cache
(** A fresh, empty cache.  Its table holds one row of [6 + 2w] ints
    per node, [w] the widest degree it has seen (14 words at degree
    4), plus one input token word, in pages of 64 rows added as the
    node indices grow; a miss overwrites the node's row in place, and
    a view wider than [w] widens the table and blanks it.  One cache
    serves one (algorithm, domain) pair; it may see several
    configurations and graphs, which only cost misses.  When a cache
    is finalised, its pages are kept for the next cache the calling
    domain makes, which blanks each page as it claims it
    (DESIGN.md §10). *)

val algo_err_cached : ('s, 'i) cache -> ('s, 'i) params -> ('s, 'i) view -> bool
(** Same result as {!algo_err}, but O(deg) on a stamp-exact hit and
    O(Δ·deg) when only Δ cells were appended or became checkable since
    the last evaluation of this node. *)

val per_domain_cached :
  unit ->
  (('s, 'i) params -> ('s, 'i) view -> bool)
  * (('s, 'i) params -> ('s, 'i) view -> int -> 's)
(** [per_domain_cached ()] is {!algo_err_cached} and a cached
    {!algo_hat} over a fresh family of caches, one per domain that calls them
    ({!Ss_prelude.Per_domain}, so sharded guard sweeps on the [Ss_par]
    pool never share one).  The cached [algo_hat] gives {!algo_hat}'s
    result with the dependency array taken from the cache's per-degree
    scratch instead of allocated: the production [RU] guard and action
    use it (the simulated [step] must not retain its neighbour array,
    see {!Ss_sync.Sync_algo.t}).  The family is garbage once both
    closures are: each transformer algorithm value holds its own. *)

val cache_hits : unit -> int
(** Process-wide count of {!algo_err_cached} evaluations answered from
    a watermark (stamp-exact hits plus partial prefix reuses), across
    all caches and domains.  Monotone; tests assert it increases to
    pin that a run exercised the cached path. *)

val dep_err : ('s, 'i) params -> ('s, 'i) view -> bool
(** [depErr(p)]: the node is in error without an error neighbor of
    smaller height, or is correct while some neighbor towers [>= h+2]
    above it. *)

val is_root : ('s, 'i) params -> ('s, 'i) view -> bool
(** [root(p) = algoErr(p) ∨ depErr(p)] — the detector of "major
    errors" that launches an error broadcast. *)

val err_prop_index : ('s, 'i) params -> ('s, 'i) view -> int option
(** The smallest [i] with [errProp(p, i) = ∃q, q.s = E ∧ q.h < i < p.h]
    (the highest-priority enabled [RP(i)] rule), if any. *)

val err_prop_min : ('s, 'i) params -> ('s, 'i) view -> int
(** {!err_prop_index} without the option: the same [i], or [0] (never
    a valid index) when no [RP(i)] rule is enabled.  The [RP] guard
    tests it so that a guard evaluation allocates nothing. *)

val can_clear_e : ('s, 'i) params -> ('s, 'i) view -> bool
(** [canClearE(p)]: in error, all neighbor heights within one of the
    node's, and no higher neighbor still in error — the node may leave
    the error DAG. *)

val updatable : ('s, 'i) params -> ('s, 'i) view -> bool
(** [updatable(p)]: correct status, list not full, neighbor heights in
    [\[h, h+1\]], and — in lazy mode — a reason to go on: either the
    simulation has not terminated at height [h] or some neighbor is
    already ahead. *)

val updatable_with :
  algo_hat:(('s, 'i) params -> ('s, 'i) view -> int -> 's) ->
  ('s, 'i) params ->
  ('s, 'i) view ->
  bool
(** {!updatable} with the lazy test's [algô] computed by [algo_hat]:
    [updatable = updatable_with ~algo_hat].  The production [RU] guard
    passes the cached [algo_hat] of {!per_domain_cached}, which only a
    lazy test that reaches [algô] calls. *)
