(** The transformer [Trans(AlgI)] (paper §3) — the core contribution.

    Given a terminating synchronous algorithm, a bound [B] on its
    execution time and a mode, [algorithm] produces a fully
    asynchronous {e silent self-stabilizing} atomic-state algorithm
    that simulates it with the Table 1 guarantees:

    - lazy mode: [O(min(n³+nT, n²B))] moves, [O(D+T)] rounds;
    - greedy mode: [O(min(n³+nB, n²B))] moves, [O(B)] rounds;
    - error recovery (both): [O(min(n³, n²B))] moves,
      [O(min(D, B))] rounds;
    - space: [O(B·S)] bits per node.

    The four rules, in decreasing priority:
    - [RR] — a {e root} (a node satisfying [algoErr ∨ depErr]) starts
      an error broadcast: it empties its list and turns status [E];
    - [RP(i)] — error propagation / DAG compression: a node with an
      error neighbor of height [< i < h] truncates to the smallest
      such [i] and turns [E] (smaller [i] has higher priority);
    - [RC] — feedback: a node that can no longer gain children leaves
      the error DAG by turning [C];
    - [RU] — simulation: an up-to-date node extends its list with
      [algô(p, h)]. *)

type ('s, 'i) params = ('s, 'i) Predicates.params = {
  sync : ('s, 'i) Ss_sync.Sync_algo.t;
  mode : Predicates.mode;
  bound : Predicates.bound;
}

val params :
  ?mode:Predicates.mode ->
  ?bound:Predicates.bound ->
  ('s, 'i) Ss_sync.Sync_algo.t ->
  ('s, 'i) params
(** [params sync] defaults to lazy mode with [B = +∞].
    @raise Invalid_argument for greedy mode with an infinite bound
    (the simulation would never become silent) or a non-positive
    finite bound. *)

val rr : string
(** Rule label ["RR"]. *)

val rp : string
(** Rule label ["RP"]. *)

val rc : string
(** Rule label ["RC"]. *)

val ru : string
(** Rule label ["RU"]. *)

(** {2 Prices} — the only definitions of what a §3 state and a §6
    message cost in bits, read by {!Checker.space_bits},
    [Registry.Trans.move_bits], [Ss_energy] and [Ss_msgnet]. *)

val height_bits : Predicates.bound -> int
(** A height [<= B]: [log₂(B+1)] bits, 32 under an infinite bound. *)

val full_state_bits : ('s, 'i) Ss_sync.Sync_algo.t -> 's Trans_state.t -> int
(** A whole state: 1 status bit plus the sizes of [init] and every cell. *)

val label_bits : int
(** A delta update's 2-bit rule label, all an [RR] or [RC] update sends. *)

val rp_delta_bits : ('s, 'i) params -> int
(** An [RP] update: the label plus the new height. *)

val ru_delta_bits : ('s, 'i) params -> 's -> int
(** An [RU] update: the label plus the new cell. *)

val algorithm :
  ('s, 'i) params -> ('s Trans_state.t, 'i) Ss_sim.Algorithm.t
(** The transformed algorithm, ready for {!Ss_sim.Engine.run}.  Each
    call embeds a fresh per-domain family of {!Predicates.cache}s
    ({!Ss_prelude.Per_domain}, so sharded guard sweeps on the [Ss_par]
    pool each use a private instance; the family is garbage once the
    algorithm value is), and [RR]'s [algoErr]
    guard re-verifies only the cells that changed since the node's
    previous evaluation (O(Δ·deg) instead of O(h·deg)); [RU]'s guard
    and action compute [algô] into the cache's per-degree scratch
    ({!Predicates.algo_hat_cached}).  The cache never changes
    results — see {!Predicates.algo_err_cached} — and
    [Registry.Trans.run ~self_check:true] cross-validates it on every
    step. *)

val algorithm_uncached :
  ('s, 'i) params -> ('s Trans_state.t, 'i) Ss_sim.Algorithm.t
(** Same algorithm with the reference full-prefix [algoErr] — the
    differential-testing and benchmarking baseline
    ([Registry.Trans.run_naive] uses it). *)

val with_algo_err :
  algo_err:(('s, 'i) params -> ('s, 'i) Predicates.view -> bool) ->
  ('s, 'i) params ->
  ('s Trans_state.t, 'i) Ss_sim.Algorithm.t
(** [algorithm_uncached] with [RR]'s [algoErr] replaced by [algo_err]
    (every other predicate is the reference one):
    [algorithm_uncached p = with_algo_err ~algo_err:Predicates.algo_err p].
    {!Checker.legitimate_terminal} passes the reference verdict it
    already computed for the node under judgement, so one [algoErr]
    serves both [RR]'s guard and the root test. *)

val clean_config :
  ('s, 'i) params ->
  Ss_graph.Graph.t ->
  inputs:(int -> 'i) ->
  ('s Trans_state.t, 'i) Ss_sim.Config.t
(** The controlled initial configuration: every node has status [C]
    and an empty list. *)

val packed_config :
  ('s, 'i) params ->
  codec:'s Cellpack.codec ->
  Ss_graph.Graph.t ->
  inputs:(int -> 'i) ->
  ('s Trans_state.t, 'i) Ss_sim.Config.t
(** Like {!clean_config}, but every node state lives in one shared
    {!Cellpack} arena of [n × B] packed cells (DESIGN.md §12) — the
    million-node layout: O(n·B·words) flat words, no per-cell boxing.
    Requires a finite bound (it is the slab capacity); heights can
    never exceed it, so the arena never overflows.  The configuration
    behaves identically to a boxed one under [Registry.Trans.run],
    {!corrupt} and the checkers; only [run_naive] twins must stay
    boxed (packed slots hold a single live timeline — see
    {!Trans_state}).
    @raise Invalid_argument when [params.bound] is [Infinite]. *)

val corrupt :
  Ss_prelude.Rng.t ->
  ?p:float ->
  max_height:int ->
  ('s, 'i) params ->
  ('s Trans_state.t, 'i) Ss_sim.Config.t ->
  ('s Trans_state.t, 'i) Ss_sim.Config.t
(** [corrupt rng ~max_height params config] models transient faults:
    each node is hit independently with probability [p] (default 1)
    and its state is replaced by one of several corruption patterns —
    full scramble, truncation, garbage extension (always at least one
    cell), single-cell flip, or status flip.  Patterns that would
    degenerate to a no-op (extending a full list, flipping a cell of
    an empty zero-capacity list) fall back to a status flip, so a hit
    node always actually changes.  Heights never exceed
    [min(max_height, B)] and the read-only [init] field is
    preserved.  This is {!Ss_sim.Fault.corrupt} with {!corrupt_state}
    as the mutator.
    @raise Invalid_argument if [p] is outside [[0, 1]] (including
    NaN). *)

val corrupt_state :
  Ss_prelude.Rng.t ->
  max_height:int ->
  ('s, 'i) params ->
  'i ->
  's Trans_state.t ->
  's Trans_state.t
(** Single-state corruption, as applied per node by {!corrupt}.  Also
    used to corrupt the neighbor {e mirrors} of the message-passing
    emulation. *)

val outputs : ('s Trans_state.t, 'i) Ss_sim.Config.t -> 's array
(** The simulated algorithm's outputs: each node's newest cell
    [L(h)]. *)
