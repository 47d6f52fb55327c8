(** Named fault scenarios (TigerBeetle-style modes).

    A scenario is a reusable severity preset: message-fault rates in
    ppm applied up to a finite event horizon, plus finite mid-run
    corruption schedules for the two run loops (event indices for the
    message network, step indices for the atomic-state engine).  Both
    the horizon and the schedules are finite so every scenario ends
    with a fault-free suffix in which the transformer must
    re-stabilize — the §3 claim under test: self-stabilization
    promises convergence after the {e last} transient fault, not under
    a perpetual fault process.

    | scenario | drop | reorder | duplicate | horizon | corruptions |
    |----------|------|---------|-----------|---------|-------------|
    | quick    | 0    | 0       | 0         | 0       | none        |
    | standard | 0.2% | 0.1%    | 0.1%      | 30k ev  | 2           |
    | chaos    | 2%   | 1%      | 1%        | 100k ev | 3           | *)

type t = {
  name : string;
  rates : Fault_plan.rates;
  fault_horizon : int;
      (** Event index past which the ppm rates stop applying. *)
  corrupt_events : int list;  (** Msgnet event indices. *)
  corrupt_steps : int list;  (** Engine step indices. *)
}

val quick : t
(** Fault-free smoke (still exercises the chaos plumbing). *)

val standard : t
(** Mild faults: 0.2% drop, 0.1% reorder, 0.1% duplicate, two mid-run
    corruption bursts.  Every §5 instance must still stabilize. *)

val chaos : t
(** Maximum severity: 2% drop, 1% reorder, 1% duplicate, three
    mid-run corruption bursts. *)

val all : t list

val msgnet_plan : t -> seed:int -> Fault_plan.t
(** The scenario instantiated for one message-network run. *)

val engine_plan : t -> seed:int -> Fault_plan.t
(** The scenario instantiated for one engine run (corruption schedule
    only — the atomic-state model has no channels). *)
