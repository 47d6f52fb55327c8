(** Cole–Vishkin vertex 3-coloring of oriented rings (paper §5.3).

    Nodes of an oriented ring carry unique identifiers of a common bit
    width [w].  Colors start as the identifiers; each {e reduction}
    round every node compares its color with its counterclockwise
    neighbor's color, locates the lowest differing bit [i] with value
    [b], and adopts color [2i + b].  Color width thus drops
    exponentially ([w → ⌈log₂ w⌉ + 1]); after
    [iters(w) + 1 = Θ(log* w)] reductions colors lie in [{0..5}],
    properness being preserved throughout.  Three {e shift-down}
    rounds then eliminate colors 5, 4, 3: each such color class (an
    independent set) simultaneously recolors to the smallest color of
    [{0,1,2}] unused by its two neighbors.

    The round counter is part of the state, so the algorithm is a
    terminating synchronous algorithm with [T = schedule_length w]
    rounds.  Fed to the transformer in greedy mode with
    [B = Θ(log* n)] this gives a silent self-stabilizing 3-coloring in
    [O(log* n)] rounds and [O(n² log* n)] moves — the paper's §5.3
    headline. *)

type state = { color : int; round : int }
type input = { id : int; width : int; schedule : int  (** [T]. *) }

val reduction_iters : int -> int
(** [reduction_iters w] is the number of reduction rounds performed
    for initial width [w]: iterations of [w ← ⌈log₂ w⌉ + 1] needed to
    reach width 3, plus one (the final reduction lands in [{0..5}]).
    A table lookup for widths [0..62], computed once. *)

val schedule_length : int -> int
(** [reduction_iters w + 3] — the synchronous execution time [T]. *)

val reduce : own:int -> pred:int -> int
(** One Cole–Vishkin color reduction: lowest differing bit index [i]
    against the predecessor's color, new color [2i + bit].  Total even
    on (illegal) equal colors, for corrupted-cell robustness.  Exposed
    for algorithms composing with the coloring ({!Ring_mis}). *)

val codec : state Ss_core.Cellpack.codec
(** Two-word packed layout [(color, round)] — packed arenas and the
    message network's int-packed delta channels. *)

val algo : (state, input) Ss_sync.Sync_algo.t
(** The synchronous algorithm.  Every node must have degree 2 with
    port 0 its clockwise and port 1 its counterclockwise neighbor
    ({!Ss_graph.Builders.cycle}'s convention). *)

val inputs :
  ids:(int -> int) -> width:int -> Ss_graph.Graph.t -> int -> input
(** Build inputs; all ids must be distinct and [< 2^width]. *)

val random_ring_ids :
  Ss_prelude.Rng.t -> n:int -> width:int -> int -> int
(** A random injective id assignment for an [n]-ring drawn from
    [0 .. 2^width).  Requires [n <= 2^width]. *)

val spec_holds : Ss_graph.Graph.t -> final:state array -> bool
(** Colors form a proper coloring with values in [{0,1,2}]. *)

val pp_state : Format.formatter -> state -> unit
