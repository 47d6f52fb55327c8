(** Reusable arrays, one per length.

    The hot loops hand a node's neighbour states to a guard, an action
    or a synchronous [step] in an exact-length array that the callee
    reads and must not retain.  Nodes of equal degree can then share
    one buffer, refilled in place per call, so a loop holds
    [O(#degrees)] arrays instead of allocating one per node and call. *)

type 'a t

val create : unit -> 'a t
(** No buffer yet; each is allocated on its first {!get}. *)

val get : 'a t -> int -> 'a -> 'a array
(** [get t len fill] is [t]'s buffer of length [len].  The first
    request for a length allocates it, filled with [fill]; later ones
    return the same array as the last caller left it. *)
