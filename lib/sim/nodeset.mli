(** Dense mutable bitset of node identifiers with cardinality.

    Shared between the incremental scheduler, the daemons that select
    from its enabled set and the round tracker, so enabled sets flow
    between them without conversions.  Membership
    updates are O(1) and allocation-free (the historical
    [Set.Make (Int)] allocated a tree path per operation); iteration
    is in increasing node order, matching {!Config.enabled_nodes}.

    Values are {e mutable}: consumers that retain a set across steps
    ({!Rounds}) must {!copy} it rather than alias it. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty set.  [capacity] pre-sizes the word array for nodes
    [0 .. capacity-1] (it still grows on demand). *)

val mem : t -> int -> bool
(** O(1); [false] for nodes beyond the current capacity. *)

val add : t -> int -> unit
(** O(1) amortized (grows capacity on demand).
    @raise Invalid_argument on negative nodes. *)

val remove : t -> int -> unit
(** O(1); removing an absent node is a no-op. *)

val count : t -> int
(** Cardinality, O(1). *)

val is_empty : t -> bool

val clear : t -> unit
(** Remove every member, keeping capacity. *)

val copy : t -> t

val assign : t -> src:t -> unit
(** [assign t ~src] makes [t] equal to [src], reusing [t]'s words when
    large enough (allocation-free in steady state). *)

val inter : t -> src:t -> unit
(** [inter t ~src] intersects in place: [t := t ∩ src]. *)

val iter : (int -> unit) -> t -> unit
(** Members in increasing order. *)

val nth : t -> int -> int
(** [nth t k] is the [k]-th smallest member, counting from 0: the
    element at index [k] of {!elements}.  A word-by-word walk with a
    constant-time popcount per word, so [O(capacity / word_bits)]
    without allocating.
    @raise Invalid_argument unless [0 <= k < count t]. *)

val min_elt : t -> int
(** Smallest member.  @raise Not_found on the empty set. *)

val max_elt : t -> int
(** Largest member.  @raise Not_found on the empty set. *)

val succ : t -> int -> int
(** [succ t p] is the smallest member strictly greater than [p] (any
    [p], negative included).
    @raise Not_found when no member is greater than [p]. *)

val popcount : int -> int
(** Number of set bits of a word (all [word_bits] of them, the sign
    bit included), in constant time. *)

val elements : t -> int list
(** Members in increasing order (allocates; prefer {!iter} on hot paths). *)

val of_list : int list -> t

val equal : t -> t -> bool

(** {2 Sharded updates}

    The sharded scheduler partitions nodes into word-aligned ranges,
    one per shard, so concurrent workers never write the same word.
    Inside its range a worker uses the raw flips below — which do
    {e not} maintain {!count} and do {e not} grow capacity — and the
    deterministic merge repairs the count with one {!bump} per shard
    (DESIGN.md §12). *)

val unsafe_add : t -> int -> bool
(** Set the bit; returns whether it changed.  No count upkeep, no
    bounds growth: the node must be below the creation capacity. *)

val unsafe_remove : t -> int -> bool
(** Clear the bit; returns whether it changed.  Same caveats. *)

val bump : t -> int -> unit
(** Adjust the cardinality by a signed delta after raw flips. *)

val word_bits : int
(** Number of bits per word ([Sys.int_size]) — the alignment quantum
    for shard boundaries. *)
