(** Incremental round counting via neutralization (paper §2.2).

    The first round of an execution is the minimal prefix in which
    every node enabled in the initial configuration either executes a
    move or is {e neutralized} (enabled before a step, disabled after
    it, without moving); subsequent rounds are defined inductively on
    the remaining suffix.  This tracker maintains the set of
    round-opening enabled nodes not yet discharged and is valid under
    any daemon. *)

type t

val create : enabled:int list -> t
(** [create ~enabled] opens the first round with the nodes enabled in
    the initial configuration.  If [enabled] is empty, the execution
    is already terminal and the round count stays [0]. *)

val create_set : enabled:Nodeset.t -> t
(** As {!create}, taking the enabled set directly (the incremental
    engine feeds the tracker from {!Sched.enabled_set}).  The set is
    copied — later mutation of [enabled] does not affect the
    tracker. *)

val note_step : t -> moved:int list -> enabled_after:int list -> unit
(** [note_step t ~moved ~enabled_after] accounts for one step: nodes
    that moved, or that are no longer enabled afterwards, are
    discharged.  When every node of the current round is discharged
    the round completes and the next one opens with [enabled_after]. *)

val note_step_set :
  t -> moved:int array -> count:int -> enabled_after:Nodeset.t -> unit
(** As {!note_step} with the movers [moved.(0 .. count-1)] in an array
    and the post-step enabled set passed as a set, avoiding a per-step
    list-to-set conversion: the incremental engine passes its run-owned
    selection array, read during the call only. *)

val completed : t -> int
(** Number of completed rounds so far. *)

val pending : t -> int list
(** Round-opening nodes not yet discharged (sorted), for debugging. *)
