(** The transformer's node state (paper §3.1).

    A node state consists of:
    - [init]: the node's initial state in the simulated algorithm —
      read-only (never written by a rule, never corrupted by faults);
    - [status]: [C] (correct) or [E] (in error);
    - the simulation list [L], cell [i] (1-based) ultimately holding
      [st_p^i], the state of the node at round [i] of the synchronous
      execution.

    By convention [L(0) = init]; the {e height} [h] of a node is the
    length of its list.

    {b Representation.} Values have immutable {e value semantics} —
    [extend]/[truncate]/[with_status] return new states and never
    change an existing one (only {!assign} does, see "Owned handles"
    below) — but share a capacity-doubling backing
    buffer whose committed prefix is write-once.  Consequences:
    - [extend] is amortized O(1) when the state is uniquely extendable
      (the overwhelmingly common case: a node appending to its own
      list), and copies on divergence from a shared prefix;
    - [truncate] is O(1) (a logical length drop);
    - [equal] has two O(1) fast paths: equal version {!stamp}s, and
      an equal lineage ({!rep_id}, a shared buffer) at equal heights;
    - two states sharing a buffer agree {e physically} on their common
      logical prefix — the invariant behind the incremental
      prefix-verification cache of {!Predicates}.

    {b Packed backend} (DESIGN.md §12).  A state may instead keep its
    cells in a node slot of a flat {!Cellpack} arena — no per-cell
    boxing, no GC-scanned payload — created with {!packed_clean}.
    A packed handle holds its slot and lineage id as ints and reaches
    the slab through the one block its whole arena shares, so every
    packed operation allocates at most the new handle.  The API is
    identical, with two restrictions:
    - {e capacity}: a packed list can never exceed the arena's [cap]
      (the transformer bound [B]); [extend] beyond it raises;
    - {e linear history}: each arena slot holds one live timeline.
      Constructing a new state by writing below the slab's committed
      frontier ([extend] after [truncate], {!wipe}, {!rebuild})
      invalidates every older handle on that slot; reading a stale
      handle's cells is unspecified.  The engine's per-node single
      timeline satisfies this by construction — reference twins and
      anything retaining history stay boxed.

    [rep_id] remains sound for the {!Predicates} watermark cache on
    both backends: every packed write below the committed frontier
    mints a fresh lineage id, so equal [rep_id] still implies a
    physically unchanged committed prefix.

    {b Owned handles.}  {!assign} is the one operation that changes an
    existing handle: it overwrites a handle with another value, stamp
    included, so a long-lived slot keeps one handle instead of storing
    (and promoting) a fresh one per write.  Only a handle that no one
    else can reach may be assigned.  In this code base those are the
    handles the two run loops own: [Engine.run]'s copy of every node
    state and its synchronous scratch (through the transformers'
    [Algorithm.store]), and [Msgnet]'s copy of every node state and
    each packed mirror, both in private arenas when the run packs.
    Every handle that escapes such an owner is a snapshot that no
    later [assign] changes: a message payload is a {!copy}, a fresh
    value or, from a packed node state, a boxed snapshot, and the
    initial mirrors are built from the caller's start handles (boxed
    snapshots of packed ones), which the loop never writes; a sink
    that keeps an engine state keeps its {!copy}. *)

type status = C | E

type 's t

val make : init:'s -> status:status -> cells:'s array -> 's t
(** Plain constructor ([cells] is copied; the result owns a fresh
    buffer). *)

val clean : 's -> 's t
(** [clean init] is the controlled initial state: status [C], empty
    list. *)

val packed_clean : 's Cellpack.arena -> node:int -> init:'s -> 's t
(** [packed_clean arena ~node ~init] is {!clean} on the packed
    backend: a fresh, empty timeline in [arena]'s slot [node] (a
    fresh lineage id is minted; any previous handle on the slot
    becomes stale). *)

val height : 's t -> int
(** [height st] is [h], the length of the list. *)

val init : 's t -> 's
(** The read-only initial state [L(0)]. *)

val status : 's t -> status

val cell : 's t -> int -> 's
(** [cell st i] is [L(i)] for [0 <= i <= height st]; [cell st 0] is
    [init].
    @raise Invalid_argument when [i] is out of range. *)

val top : 's t -> 's
(** [top st = cell st (height st)] — the newest simulated state. *)

val truncate : 's t -> int -> 's t
(** [truncate st i] cuts the list down to height [i <= height st].
    O(1): the result shares the backing buffer. *)

val extend : 's t -> 's -> 's t
(** [extend st s] appends [s], increasing the height by one.
    Boxed: amortized O(1) on the unique-extension path; O(h)
    copy-on-write when diverging from a prefix another state extended
    differently (re-appending the {e physically} identical cell
    re-adopts it without copying).  Packed: O(1) slab write — keeps
    the lineage id when extending the committed frontier, mints a
    fresh one when overwriting below it; neither allocates more than
    the new handle.
    @raise Invalid_argument when a packed list would exceed the
    arena's capacity. *)

val rebuild : 's t -> status:status -> cells:'s array -> 's t
(** [rebuild st ~status ~cells] replaces the whole list and status,
    keeping [init] {e and the backend} — the fault-injection
    constructor ({!Transformer.corrupt_state}).  Boxed: a fresh
    buffer, like {!make}.  Packed: rewrites the slot in place and
    mints a fresh lineage id (older handles become stale).
    @raise Invalid_argument when packed and
    [Array.length cells > cap]. *)

val copy : 's t -> 's t
(** [copy st] is a fresh handle on the same value, stamp included: a
    snapshot that no later {!assign} on [st] changes.  O(1); it shares
    the backing buffer or slab, so a packed copy still obeys the
    linear-history discipline. *)

val assign : 's t -> 's t -> unit
(** [assign dst src] overwrites the handle [dst] with [src]'s value
    (status, list, [init], backend and stamp), in place and without
    allocating.  Afterwards [dst] and [src] are the same construction.
    Only for handles whose every reader expects the change (see
    "Owned handles" above). *)

val at_capacity : 's t -> bool
(** Whether {!extend} would raise: a packed list as tall as its
    arena's capacity.  Always [false] for a boxed state. *)

val in_arena : 's Cellpack.arena -> 's t -> bool
(** [in_arena a st] is whether [st] keeps its cells in arena [a]
    (physically); allocation-free, unlike {!backing_arena}. *)

val with_status : 's t -> status -> 's t
(** Replace the status ([st] itself when already equal). *)

val wipe : 's t -> 's t
(** [wipe st] is the error-reset state of rule [RR]: status [E], empty
    list, same [init] — on a fresh buffer, so sharers keep their
    prefix. *)

val in_error : 's t -> bool
(** [status = E]. *)

val equal : ('s -> 's -> bool) -> 's t -> 's t -> bool
(** Structural equality given a state equality (O(1) on the stamp and
    shared-buffer fast paths). *)

val stamp : 's t -> int
(** Monotone per-state version stamp, fresh on every construction:
    [stamp a = stamp b] implies [a] and [b] are the same construction
    and therefore logically equal.  Schedulers and caches use it as a
    cheap "has this state changed?" token. *)

val rep_id : 's t -> int
(** Identity of the backing lineage (globally unique across both
    backends: boxed buffer id, or packed slot lineage id).  Two states
    with the same [rep_id] agree physically on their common logical
    prefix; {!Predicates} keys its verification watermarks on it. *)

val backing_arena : 's t -> 's Cellpack.arena option
(** The arena a packed state lives in ([None] for boxed states) —
    for memory accounting in benchmarks. *)

val slab : 's Cellpack.codec -> 's t -> int array
(** [slab codec st] is the payload array of the arena holding [st]'s
    cells when [st] is packed and that arena lays its cells out with
    [codec] itself (physically), and [[||]] otherwise.  Cell [i]
    ([1 <= i <= height st]) is then the [codec.words] words from
    {!slab_offset}[ st i]: the image [codec.pack] wrote, so a fold
    over them reads what packing [cell st i] again would write, with
    no [unpack].  Allocation-free. *)

val slab_offset : 's t -> int -> int
(** [slab_offset st i] is the word offset of cell [i] in the slab of
    a packed [st] (see {!slab}).  No range check on [i].
    @raise Invalid_argument when [st] is boxed. *)

val cells : 's t -> 's array
(** Fresh copy of the logical list [L(1..h)] (never exposes backing
    capacity). *)

val fold_cells : ('a -> 's -> 'a) -> 'a -> 's t -> 'a
(** Left fold over the logical cells [L(1) .. L(h)], allocation-free. *)

val snapshot : 's t -> status * 's * 's array
(** Canonical logical content [(status, init, cells)].  Two logically
    equal states yield structurally equal snapshots regardless of how
    they were built — the wire/proof serialization base
    ({!Ss_msgnet.Msgnet}). *)

val pp :
  (Format.formatter -> 's -> unit) -> Format.formatter -> 's t -> unit
(** Renders status, height and list contents. *)

val pp_status : Format.formatter -> status -> unit
