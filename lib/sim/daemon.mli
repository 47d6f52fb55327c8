(** Daemons (schedulers) of the atomic-state model (paper §2.2).

    Given the set of enabled nodes of the current configuration, a
    daemon selects a nonempty subset to activate simultaneously.  The
    {e synchronous} daemon selects all of them; the {e fully
    asynchronous} (distributed unfair) daemon is unconstrained — we
    realize it with a portfolio of adversaries: random nonempty
    subsets, sequential central daemons that may starve nodes, and
    fully scripted schedules (used to replay the paper's §7 adversary).

    Daemons may be stateful (round-robin cursors, script position,
    RNG); create a fresh daemon per run. *)

type t = {
  daemon_name : string;
  select : step:int -> enabled:Nodeset.t -> int list;
      (** Must return a nonempty subset of [enabled] (which the engine
          guarantees to be nonempty).  The set is the scheduler's live
          enabled set ({!Sched.enabled_set}): read it during the call,
          do not mutate or retain it: no members array is built for a
          step.  Built-in daemons visit members in increasing order,
          so a schedule depends only on the set and the daemon's own
          state. *)
}

val synchronous : t
(** Selects every enabled node — steps coincide with rounds. *)

val central_random : Ss_prelude.Rng.t -> t
(** Selects exactly one enabled node, uniformly: one [Rng.int] draw
    of an index into the members in increasing order. *)

val central_min : t
(** Selects the lowest-id enabled node — a deterministic unfair
    sequential daemon (it starves high-id nodes whenever possible). *)

val central_max : t
(** Selects the highest-id enabled node. *)

val distributed_random : Ss_prelude.Rng.t -> p:float -> t
(** Each enabled node is selected independently with probability [p];
    if the sample is empty, one uniform enabled node is selected. *)

val round_robin : unit -> t
(** Sequential daemon cycling through node ids: activates the first
    enabled node strictly after the previously activated one (wrapping
    around) — a weakly fair sequential scheduler. *)

val scripted : ?fallback:t -> int list list -> t
(** [scripted moves] replays the given activation sets in order, then
    delegates to [fallback] (default {!synchronous}).  The engine
    validates that every scripted node is enabled when activated and
    raises {!Engine.Invalid_selection} otherwise. *)

val of_fun : string -> (step:int -> enabled:Nodeset.t -> int list) -> t
(** Build a custom daemon. *)
