(** Directed FIFO links of the message network (DESIGN.md §15): the
    per-link message storage plus the uniformly random pick of a
    non-empty link, behind one interface with two implementations.

    Links are dense ids [0 .. nchan-1].  Both implementations keep
    each link strictly FIFO ({!rotate} aside), so for the same
    operation sequence they return the same heads; they differ only
    in representation, per-operation cost and how {!pick} consumes
    the rng. *)

type 'm wire = {
  words : int;  (** Scratch words the longest packed record needs. *)
  encode : int array -> 'm -> int;
      (** [encode w m] writes [m]'s int record into [w] and returns
          its length, which must be at least 1; it returns [0] when
          [m] has no flat form, and the channel then keeps [m] boxed. *)
  decode : int array -> 'm;
      (** Inverse of [encode] on every record it packed. *)
}
(** The caller's message ↔ int-record encoding, used by {!rings}. *)

type 'm t

val rings : 'm wire -> src:int array -> dst:int array -> 'm t
(** Flat storage: one {!Ringbuf} store that keeps each link's ring
    header and int records in a single block, a lazily created side
    queue per link for the boxed messages (each marked by an empty
    record, so the side queue stays aligned with the ring under
    {!rotate}), and a {!Chanset} of the non-empty links, so every
    operation, {!pick} included, is O(1) amortized.  [src] and [dst]
    are unused beyond their length, the number of links. *)

val queues : 'm wire -> src:int array -> dst:int array -> 'm t
(** The historical reference: one boxed [Queue.t] per link, reached
    through a [(src.(id), dst.(id))]-keyed [Hashtbl] on every
    operation, and a {!pick} that folds over the whole table to
    rebuild the pending-link list.  The [wire] is unused. *)

val push : 'm t -> int -> 'm -> unit
(** [push t id m] enqueues [m] at the back of link [id]. *)

val pop : 'm t -> int -> 'm
(** Dequeue the head of a non-empty link. *)

val peek : 'm t -> int -> 'm
(** The head of a non-empty link, left in place. *)

val rotate : 'm t -> int -> bool
(** [rotate t id] moves the head of link [id] behind the rest of its
    FIFO and returns [true] when the link holds at least two
    messages; otherwise it does nothing and returns [false]. *)

val pick : 'm t -> Ss_prelude.Rng.t -> int
(** A uniformly random non-empty link, or [-1] when every link is
    empty (then no rng draw is made). *)
