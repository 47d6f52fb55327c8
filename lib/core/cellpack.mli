(** Packed state arenas (DESIGN.md §12).

    A {e codec} lays one simulated-algorithm state into a fixed number
    of machine words of a flat [int array]; an {e arena} is one such
    array holding the transformer cells of an entire node population:
    node [p]'s logical cell [i] (1-based) lives at word offset
    [((p * cap) + (i-1)) * codec.words].  With a finite transformer
    bound [B] every list has height at most [B], so [cap = B] packs a
    whole million-node run into [n * B * words] boxed-pointer-free
    words — no per-cell allocation, no GC scanning of the payload.

    Arenas are {e low-level} storage: the record fields are exposed
    because {!Trans_state} (the only writer) manages the per-node
    committed frontiers and lineage ids directly.  Everyone else
    should treat an arena as opaque and go through {!Trans_state}. *)

type 's codec = {
  words : int;  (** Words per packed state; [>= 1]. *)
  pack : int array -> int -> 's -> unit;
      (** [pack data off s] writes [s] at [data.(off .. off+words-1)]. *)
  unpack : int array -> int -> 's;  (** Inverse of [pack]. *)
}
(** A fixed-width binary layout for states ['s].  [unpack] after
    [pack] must reproduce a state [equal] to the original (physical
    identity is {e not} preserved — packed cells are values, not
    pointers). *)

val int_codec : int codec
(** The identity layout for [int] states: one word. *)

val map : inj:('s -> 't) -> prj:('t -> 's) -> 't codec -> 's codec
(** Derive a codec through an isomorphism — e.g. lay out a variant
    state over {!int_codec} with an injection to tags.
    [prj (inj s)] must equal [s]. *)

val pair : 'a codec -> 'b codec -> ('a * 'b) codec
(** Product layout: the two components side by side. *)

type 's store =
  | Buffer of { mutable cells : 's array; mutable frontier : int }
      (** A boxed lineage's capacity-doubling buffer: cells
          [0 .. frontier-1] are committed and write-once. *)
  | Slab of 's arena  (** Built once per arena: its [store] field. *)
(** Where a {!Trans_state} handle keeps its cells.  Every packed handle
    on an arena points at that arena's one [Slab] block, so a handle
    needs no backend block of its own. *)

and 's arena = {
  codec : 's codec;
  a_n : int;  (** Number of node slots. *)
  a_cap : int;  (** Max cells per node (the transformer bound [B]). *)
  data : int array;  (** [n * cap * words] payload words. *)
  committed : int array;
      (** Per node: number of committed cells.  Maintained by
          {!Trans_state}; cells below the frontier are write-once
          until the lineage id changes. *)
  rep : int array;
      (** Per node: current lineage id ([0] until first handle),
          minted by {!Trans_state} from the same global counter as
          boxed buffer ids — so [Trans_state.rep_id] is globally
          unique across both backends. *)
  store : 's store;  (** [Slab] of this arena itself. *)
}

val arena : codec:'s codec -> n:int -> cap:int -> 's arena
(** Fresh zeroed arena for [n] nodes of at most [cap] cells each.
    @raise Invalid_argument on [n < 1], [cap < 0] or a codec with
    [words < 1]. *)

val n : 's arena -> int
val cap : 's arena -> int

val bytes : 's arena -> int
(** Resident size of the arena's flat arrays in bytes (64-bit words),
    for memory accounting in benchmarks. *)

val slot : 's arena -> int -> int -> int
(** [slot a node i] is the word offset of node [node]'s cell slot [i]
    (0-based slot — logical cell [i+1]).  No bounds check. *)
