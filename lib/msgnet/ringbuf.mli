(** Circular buffers of variable-length int records, one per directed
    link — the flat FIFO storage behind the indexed message-network
    channels (DESIGN.md §15).

    A record is a caller-encoded span of machine words; each link
    frames its records as [length; payload...] in a power-of-two
    circular region that doubles on overflow.  Pending messages
    therefore cost flat unboxed words instead of a [Queue.t] cell plus
    a boxed variant, which removes both the per-message allocation and
    the GC scanning of the 2m channel queues at 10^5–10^6-node scale.

    {b Layout.}  All links share one int slab with a fixed stride:
    each slot holds the link's header ([head], [used], [count]) and 16
    data words, so the first touch of a randomly picked link reads its
    header and head record from one stretch of one block, with no
    pointer to chase, and the GC marks one object instead of one per
    link.  A proof record plus an update record fit in a slot.  A link
    that outgrows its slot moves to an overflow block of the same
    layout whose data region doubles as needed, and returns to its
    slot once drained (the block is kept for its next burst). *)

type t

val create : int -> t
(** [create links] is a store of [links] empty rings, numbered
    [0 .. links-1].
    @raise Invalid_argument when [links < 0]. *)

val links : t -> int
(** Number of rings. *)

val records : t -> int -> int
(** [records t l] is the number of records queued on link [l]. *)

val is_empty : t -> int -> bool

val words : t -> int -> int
(** Queued words on link [l], record headers included — wire-memory
    accounting. *)

val capacity_words : t -> int -> int
(** Current data capacity of link [l] in words, its header excluded:
    16 in its slot, more while it lives in its overflow block. *)

val push : t -> int -> int array -> int -> unit
(** [push t l src len] enqueues the record [src.(0 .. len-1)] (copied)
    on link [l].  Amortized O(len); moves the link to its overflow
    block, or doubles that block, when the record does not fit.
    @raise Invalid_argument when [len] is negative or exceeds
    [Array.length src]. *)

val peek : t -> int -> int array -> int
(** [peek t l dst] copies the head record's payload of link [l] into
    [dst.(0 .. len-1)] and returns its length [len], without
    dequeuing.  [dst] must be large enough.
    @raise Invalid_argument on an empty link. *)

val pop : t -> int -> int array -> int
(** [pop t l dst] is {!peek} followed by dequeuing the head record. *)
