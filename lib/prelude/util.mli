(** Small numeric and list helpers shared across the repository. *)

val ceil_log2 : int -> int
(** [ceil_log2 n] is the least [k] with [2^k >= n], for [n >= 1].
    [ceil_log2 1 = 0].
    @raise Invalid_argument if [n < 1]. *)

val bit_width : int -> int
(** [bit_width n] is the number of bits needed to write [n] in binary:
    [1] for [0] and [1], [2] for [2] and [3], etc.
    @raise Invalid_argument if [n < 0]. *)

val log_star : int -> int
(** [log_star n] is the iterated-logarithm of [n] (base 2): the number
    of times [ceil_log2] must be applied to reach a value [<= 1].
    [log_star 1 = 0], [log_star 2 = 1], [log_star 4 = 2],
    [log_star 16 = 3], [log_star 65536 = 4]. *)

val sum : int list -> int
(** Sum of an integer list. *)

val max_of : int list -> int
(** Maximum of a non-empty integer list.
    @raise Invalid_argument on the empty list. *)

val min_of : int list -> int
(** Minimum of a non-empty integer list.
    @raise Invalid_argument on the empty list. *)

val fold_min : int -> int array -> int
(** [fold_min x a] is [Array.fold_left min x a] as an int loop: no
    polymorphic compare per element.  The kernel of the min-flooding
    [step] functions, which run once per verified cell. *)

val fold_max : int -> int array -> int
(** [fold_max x a] is [Array.fold_left max x a] as an int loop. *)

val range : int -> int list
(** [range n] is [[0; 1; ...; n-1]]. *)

val array_equal : ('a -> 'a -> bool) -> 'a array -> 'a array -> bool
(** Structural array equality with a custom element equality. *)

val fnv1a64 : string -> int64
(** [fnv1a64 s] is the 64-bit FNV-1a hash of [s].  Used by the §6
    energy model to stand in for the "hash of the state salted with a
    nonce".  Allocates only the boxed result, whatever the length of
    [s]. *)
