(** A message-passing realization of the transformer — §6 made
    executable.

    The atomic-state model assumes a node reads its neighbors' states
    directly.  §6 sketches how to implement this over asynchronous
    message passing: every node keeps a {e mirror} (last known copy)
    of each neighbor's state; a node that moves sends each neighbor an
    update — either its whole state ([O(B·S)] bits) or a {e delta}
    ([O(S + log B)] bits: the rule label plus its payload); and nodes
    periodically exchange {e proofs} (a salted hash plus its wave
    nonce) so that mirrors corrupted by transient faults are detected
    and repaired via an explicit full-copy request.

    This module is an event-driven simulator of that protocol:

    - per-directed-link FIFO channels with adversarial (random)
      delivery interleaving; the event loop picks a pending link in
      O(1) amortized from an incrementally maintained non-empty
      channel set ({!Chanset}) — the channel-level analogue of the
      engine's dirty-set scheduler — instead of rescanning all [2m]
      channels per delivered message;
    - guard evaluation over the node's own state and its mirrors —
      which may be stale or even corrupted; wrong moves taken on stale
      information are later corrected by the transformer's own error
      mechanism, which is exactly why self-stabilization makes the
      implementation simple;
    - proof waves tagged with a monotone {e nonce}: a proof delivered
      after its wave has been superseded is dropped (counted in
      [stale_proof_messages]) rather than compared, because the newer
      wave re-verifies every mirror anyway — comparing it could only
      raise spurious [Request]/[Full_copy] repair traffic (e.g. when
      the repair it asks for is already queued behind it), and its
      request would be mis-attributed to the current wave's
      [requests_in_wave] accounting;
    - quiescence detection: when no message is in flight and no node
      is enabled on its mirrors, a proof wave runs; the execution ends
      when a wave triggers no repair (all mirrors verified accurate),
      at which point the true states form a terminal configuration of
      the atomic-state transformer.  Because stale proofs never raise
      requests, the [requests_in_wave = 0] test counts evidence from
      the deciding wave only.

    Faults can hit both the node states and the mirrors
    independently. *)

type encoding =
  | Full_state  (** Every update carries the whole state. *)
  | Delta  (** Updates carry rule label + payload (§6). *)

type msg_kind = K_update | K_proof | K_request | K_full_copy
(** Wire-level message class, as seen by event sinks. *)

type layout = [ `Auto | `Packed | `Boxed ]
(** State storage policy, mirroring the engine's [--layout]
    (DESIGN.md §12, §15).  [`Auto] packs exactly when the run has both
    a [codec] and a finite transformer bound: all [2m] mirrors go into
    one {!Ss_core.Cellpack} arena, and the run's copies of the [n] node
    states into another; [`Packed] demands it (raising
    [Invalid_argument] when either is missing); [`Boxed] keeps the
    historical per-state buffers.  The arenas are the run's own: a
    value that leaves the run (an [Update_full] or [Full_copy]
    payload) is a boxed snapshot, and the final states returned live
    in the node arena. *)

type event =
  | Sent of { src : int; dst : int; kind : msg_kind; bits : int }
      (** A message was enqueued on the [src → dst] channel; [bits] is
          its wire size, the same figure the [stats] bit counters
          accumulate. *)
  | Delivered of { src : int; dst : int; kind : msg_kind }
      (** The head of the [src → dst] channel was delivered. *)
  | Wave of { nonce : int }  (** A proof wave started. *)
  | Dropped of { src : int; dst : int; kind : msg_kind }
      (** The head of the [src → dst] channel was discarded by the
          fault plan instead of delivered. *)
  | Duplicated of { src : int; dst : int; kind : msg_kind }
      (** The head of the [src → dst] channel is about to be delivered
          (a [Delivered] event follows) while a copy stays at the
          head — the same message will be processed again later. *)
  | Reordered of { src : int; dst : int }
      (** The head of the [src → dst] channel was rotated behind the
          rest of its FIFO. *)
  | Corrupted of { node : int }
      (** A scheduled transient fault mutated [node]'s true state
          mid-run. *)

type sink = event -> unit
(** A sink on the protocol's event stream.  Same purity contract as
    {!Ss_sim.Engine.observer} (DESIGN.md §9): sinks observe, they must
    not mutate protocol state.  When no sink is registered the event
    loop allocates no events. *)

type 's chaos = {
  plan : Ss_chaos.Fault_plan.t;
      (** Per-delivery drop/duplicate/reorder verdicts plus the
          schedule of mid-run corruption events.  The plan owns a
          private RNG stream, so attaching one never perturbs the
          scheduler's own draws: a {!Ss_chaos.Fault_plan.null} plan
          replays byte-identically to a run with no [chaos] at all. *)
  mutate : Ss_prelude.Rng.t -> int -> 's Ss_core.Trans_state.t -> 's Ss_core.Trans_state.t;
      (** [mutate rng v st] is the corrupted replacement for node [v]'s
          state [st]; typically built from
          {!Ss_core.Transformer.corrupt_state}.  Draws only from the
          given (plan-owned) rng. *)
}
(** A fault-injection attachment for {!run}. *)

type stats = {
  deliveries : int;  (** Total messages delivered. *)
  rule_executions : int;  (** Moves taken by nodes (on possibly stale views). *)
  update_messages : int;
  update_bits : int;
  proof_messages : int;
  proof_bits : int;
      (** [proof_messages * Energy.proof_message_bits]: hash plus wave
          nonce per proof. *)
  stale_proof_messages : int;
      (** Proofs delivered after their wave was superseded and dropped
          without comparison. *)
  request_messages : int;
  full_copy_messages : int;
  full_copy_bits : int;
  proof_waves : int;  (** Timer- and quiescence-triggered proof waves. *)
  dropped_messages : int;
      (** Messages discarded at delivery-pick time by the fault plan. *)
  reordered_messages : int;
      (** Channel heads rotated to the back instead of delivered. *)
  duplicated_messages : int;
      (** Messages delivered while a copy stayed at the channel head. *)
  corruption_events : int;
      (** Scheduled mid-run transient corruptions applied. *)
  peak_queued_bits : int;
      (** High-water mark of in-flight wire bits: bits enter on send and
          leave on delivery or drop, so this is the protocol's peak
          channel-buffer load — the figure a deployment would provision
          per-link buffers against. *)
  mirror_bytes : int;
      (** Resident bytes behind the [2m] mirrors at the end of the run:
          the packed arena's flat arrays when mirrors are packed, an
          estimate (one word per cell plus a small per-state overhead)
          for boxed mirrors, plus the per-mirror handles. *)
  quiescent : bool;  (** Reached verified quiescence within the budget.
                         Equivalent to [outcome = Completed]. *)
  outcome : Ss_report.Budget.outcome;
      (** [Completed] on verified quiescence, [Tripped Deliveries] when
          the event cap ran out, [Tripped Deadline] on the wall-clock
          limit. *)
}

val total_bits : stats -> int
(** All traffic: updates + proofs + requests
    ([Energy.request_message_bits] each) + full copies. *)

val run :
  ?codec:'s Ss_core.Cellpack.codec ->
  ?layout:layout ->
  ?encoding:encoding ->
  ?budget:Ss_report.Budget.t ->
  ?max_events:int ->
  ?heartbeat_every:int ->
  ?now:(unit -> float) ->
  ?chaos:'s chaos ->
  rng:Ss_prelude.Rng.t ->
  ?corrupt_mirrors:bool ->
  ?sinks:sink list ->
  ('s, 'i) Ss_core.Predicates.params ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t * stats
(** [run ~rng params config] executes the protocol from the given
    (possibly corrupted) true states.  With [corrupt_mirrors] (default
    [true]) the initial mirrors are independently scrambled, modelling
    faults that also hit the cached copies.  A proof wave fires every
    [heartbeat_every] events (default [max 400 (4 * m)]) — the
    timer-driven §6 heartbeat; without it, delta updates applied to a
    corrupted mirror would never be repaired and the system could
    churn forever — and additionally whenever the system looks locally
    quiescent.  Each wave enqueues [2m] proof messages, so a period at
    or below [2m] refills waves faster than they drain and quiescence
    becomes unreachable: the default scales with the network, and
    explicit values near [2m] are stress settings that converge slowly
    (or, below [2m], not at all).

    Budget: [budget.deliveries] caps events (each event delivers at
    most one message, so [stats.deliveries] never exceeds it), and
    [budget.deadline_s] is polled before every event, one unit of
    work per event ({!Ss_report.Budget.poll}) — against [now] on every
    poll when given (a virtual clock such as {!Ss_chaos.Clock.now_fn}
    makes deadline budgets deterministic), the monotonic machine clock
    once per {!Ss_report.Budget.quantum} events otherwise — and
    re-checked by a forced poll on the channels-drained exit path, so
    a run that drains past its time budget reports [Tripped Deadline]
    rather than [Completed] or another probe wave.
    Defaults: [encoding = Delta], event cap [2_000_000].  Every proof
    costs {!Ss_energy.Energy.default_proof_cost} (64-bit hash + 64-bit
    nonce).
    Returns the final true states and the traffic/work accounting.
    The states in [config], boxed or packed, are only read: the run
    works on its own copies and overwrites those in place (see
    {!Ss_core.Trans_state.assign}), so a second run from the same
    [config] repeats the first, and a packed and a boxed copy of one
    start run identically.

    [max_events] is a second event cap, combined with
    [budget.deliveries] by {!Ss_report.Budget.resolve} (the tighter
    wins).  It remains only because the recovery benchmark
    ([bench/suite]) passes it; use [budget].

    [chaos] attaches deterministic fault injection: each pending-link
    pick consults the plan for a drop/duplicate/reorder verdict
    (charged as one event either way and counted in the
    [dropped_messages] / [duplicated_messages] / [reordered_messages]
    stats), and scheduled corruption events mutate a random victim's
    true state mid-run ([corruption_events]).  Any chaos action
    invalidates the current proof wave's evidence, so verified
    quiescence additionally requires one chaos-free wave window —
    [Completed] still certifies a terminal configuration even under
    faults.

    [codec] switches the proof layer from the [Marshal] reference
    ({!Proof.reference}) to incremental codec digests
    ({!Proof.incremental}) and int-packs [D_ru] payload cells onto the
    wire rings.  Both layers digest equal states to equal values and
    distinct states to distinct ones, so proof verdicts — and every
    counter — are unchanged.  Both memoize per node state and per
    mirror by the §10 version stamp, so re-proving an unchanged state
    costs one compare.  On a stamp miss the codec layer resumes its
    fold from the longest prefix still valid for the state's lineage:
    a state extended by [Δ] cells since its last proof costs
    [O(Δ)] word mixes, with no buffer, string or [Marshal].  [layout]
    (default [`Auto]) selects the node-state and mirror backing per
    {!type-layout}.

    [run] and {!run_naive} are two compositions of one event loop
    (DESIGN.md §8, §15); they differ only in three layers.  [run]
    stores links in {!Channel.rings}: int-packed records in one
    {!Ringbuf} slab (each link's ring header inline with its records),
    boxed variants in a FIFO-aligned side queue, and pending links
    picked from a maintained {!Chanset}.  It replaces the
    drained-channel guard scan by a dirty-candidate set — nodes whose
    state or mirrors changed since their guards last evaluated
    disabled — picked by rejection sampling, which preserves the
    uniform choice over enabled nodes; and it reads receiver ports
    from a table precomputed with {!Ss_graph.Graph.port_table}.  Each
    event therefore costs O(1) amortized in the number of channels.
    Differentially tested against {!run_naive}.

    @raise Invalid_argument when [heartbeat_every < 1], before the run
    starts. *)

val run_naive :
  ?encoding:encoding ->
  ?budget:Ss_report.Budget.t ->
  ?heartbeat_every:int ->
  ?now:(unit -> float) ->
  rng:Ss_prelude.Rng.t ->
  ?corrupt_mirrors:bool ->
  ?sinks:sink list ->
  ('s, 'i) Ss_core.Predicates.params ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t * stats
(** Reference event loop: {!run}'s event loop composed with the
    historical per-event costs and representations.  {!Channel.queues}
    stores each link in a boxed [Queue.t] resolved through a
    tuple-keyed [Hashtbl] on every send and delivery, and rebuilds the
    pending-link list with a [Hashtbl.fold] over all [2m] links on
    every event; every delivery re-derives the receiver-side port with
    an O(degree) [Graph.port_of] scan; every drained-channel event
    scans all [n] guards.  Without a codec, mirrors stay boxed and
    proofs hash [Marshal] pre-images ({!Proof.reference}).  The random
    link choice consumes the rng differently from {!run}, so the two
    produce different (equally valid) interleavings; both must reach
    the same terminal states.  Kept for differential testing and
    benchmarking.  Takes the same [budget] as {!run} but no
    [max_events], and deliberately no [codec], [layout] or [chaos]:
    the naive loop is the fault-free reference twin that chaos runs
    are differentially checked against.

    @raise Invalid_argument when [heartbeat_every < 1]. *)
