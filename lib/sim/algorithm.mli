(** Distributed algorithms in the atomic-state model (paper §2.2).

    An algorithm is a finite list of prioritized guarded rules
    [label : guard -> action].  A node evaluates guards over its
    {!view}: its read-only input, its own state, and the states of its
    neighbors presented in port order.  Algorithms written for the
    weak model of §2.2 must use the neighbor array as a multiset
    (never index it by port); algorithms for stronger models (§3.3)
    may read ids from inputs and index by port.

    When several rules of a node are enabled simultaneously the node
    executes the first enabled rule in the list (highest priority),
    matching the priority convention of §3.1. *)

type ('s, 'i) view = {
  input : 'i;  (** The node's read-only input (ids, ports, flags…). *)
  self : 's;  (** The node's current state. *)
  neighbors : 's array;
      (** Neighbor states, in port order.  The run loops lend this
          array: it is a buffer shared by every node of the same degree
          and refilled for the next evaluation, so guards and actions
          must not retain it (nor mutate it) beyond the call. *)
  node : int;
      (** Index of the node the view belongs to.  A memo key only
          (the transformer's verification watermarks are stored per
          node): rules must not read it, since the weak model gives a
          node no identity beyond its input. *)
}

type ('s, 'i) rule = {
  rule_name : string;  (** Label, e.g. ["RR"]; used in traces/metrics. *)
  guard : ('s, 'i) view -> bool;
      (** Enabling predicate.  Pure; must not retain [neighbors]. *)
  action : ('s, 'i) view -> 's;
      (** New state when executed.  Must not retain [neighbors]: a
          returned state may hold neighbour {e states}, but not the
          array itself — the same rule [guard] and a synchronous
          algorithm's [step] follow. *)
}

type 's store = {
  copy : 's -> 's;
      (** [copy s] is a handle on [s]'s value that only its holder may
          [write] over. *)
  write : 's array -> int -> 's -> unit;
      (** [write states p s] makes [states.(p)] hold [s]'s value. *)
}
(** How a run loop copies and writes the states it owns.

    {b Ownership contract.}  {!Engine.run} copies every start handle
    once with [copy] and from then on changes a node's state only by
    [write] on its own array.  So the caller's start configuration is
    never written, and a state handle that the run lends (to a sink,
    in a view, in [stats.final] while the run goes on) may change
    after the call that lent it returns: whoever keeps a state beyond
    that call must keep [copy] of it.  An action's result is read by
    [write] and not stored, so the handle it returns dies young. *)

val immutable : 's store
(** For immutable states (Rollback, the baselines, every plain
    algorithm): [copy] is the identity and [write] the array write. *)

val in_place : copy:('s -> 's) -> assign:('s -> 's -> unit) -> 's store
(** For states with mutable handles ({!Ss_core.Trans_state}):
    [write states p s] is [assign states.(p) s], which overwrites the
    resident handle in place. *)

type ('s, 'i) t = {
  algo_name : string;
  equal : 's -> 's -> bool;  (** State equality (for silence checks). *)
  rules : ('s, 'i) rule list;  (** In decreasing priority. *)
  pp_state : Format.formatter -> 's -> unit;
  store : 's store;  (** How run loops copy and write its states. *)
}

val enabled_rule : ('s, 'i) t -> ('s, 'i) view -> ('s, 'i) rule option
(** Highest-priority enabled rule of the node, if any. *)

val is_enabled : ('s, 'i) t -> ('s, 'i) view -> bool
(** Whether at least one rule is enabled. *)

val rule_names : ('s, 'i) t -> string list
(** Rule labels in priority order. *)

val map_input : ('j -> 'i) -> ('s, 'i) t -> ('s, 'j) t
(** [map_input f algo] adapts [algo] to a richer input type. *)
