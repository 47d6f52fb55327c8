(** System configurations: a topology, per-node read-only inputs, and
    per-node states (paper §2.2). *)

type ('s, 'i) t = {
  graph : Ss_graph.Graph.t;
  inputs : 'i array;  (** Read-only; never touched by steps or faults. *)
  states : 's array;  (** One state per node. *)
}

val make : Ss_graph.Graph.t -> inputs:(int -> 'i) -> states:(int -> 's) -> ('s, 'i) t
(** [make g ~inputs ~states] builds a configuration by tabulating the
    two functions over the nodes of [g]. *)

val n : ('s, 'i) t -> int
(** Number of nodes. *)

val state : ('s, 'i) t -> int -> 's
(** [state c p] is [p]'s current state. *)

val input : ('s, 'i) t -> int -> 'i
(** [input c p] is [p]'s read-only input. *)

val view : ('s, 'i) t -> int -> ('s, 'i) Algorithm.view
(** [view c p] is what node [p] observes: its input, its state, and
    its neighbors' states in port order, in a fresh array. *)

val borrowed_view :
  's Ss_prelude.Scratch.t -> ('s, 'i) t -> int -> ('s, 'i) Algorithm.view
(** [borrowed_view scratch c p] is [view c p] with the neighbour
    states copied into [scratch]'s buffer for [p]'s degree instead of
    a fresh array.  The array is valid until the next call on
    [scratch] for a node of the same degree: the consumer (a guard, an
    action) must not retain it. *)

val with_states : ('s, 'i) t -> 's array -> ('s, 'i) t
(** Functional update of the state vector (the array is used as-is). *)

val set_state : ('s, 'i) t -> int -> 's -> ('s, 'i) t
(** Functional single-node state update. *)

val map_states : ('s -> 's) -> ('s, 'i) t -> ('s, 'i) t
(** Apply a function to every state. *)

val equal : ('s -> 's -> bool) -> ('s, 'i) t -> ('s, 'i) t -> bool
(** Pointwise state equality (inputs and graph assumed shared). *)

val enabled_nodes : ('s, 'i) Algorithm.t -> ('s, 'i) t -> int list
(** Nodes with at least one enabled rule, in increasing order. *)

val is_terminal : ('s, 'i) Algorithm.t -> ('s, 'i) t -> bool
(** No node is enabled (the configuration is terminal / silent). *)

val pp :
  (Format.formatter -> 's -> unit) -> Format.formatter -> ('s, 'i) t -> unit
(** Render all node states, one per line. *)
