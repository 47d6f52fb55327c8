(** Virtual clock for deterministic simulation time.

    Simulated runs must not read the machine clock: wall time makes
    deadline budgets racy (a GC pause or an NTP step trips them
    non-deterministically), so two byte-identical executions could
    report different outcomes.  A [Clock.t] is a plain counter
    advanced by the simulation itself — one {!tick} per event — so
    "time" is a pure function of the event sequence: same scenario,
    same virtual timestamps, always.

    Inject it with {!now_fn}: {!Ss_report.Budget.deadline_check}
    takes [?now], and the sim harness passes it to every run of its
    grid. *)

type t

val create : ?t0:float -> ?dt:float -> unit -> t
(** [create ()] starts at [t0] (default [0.]) and advances by [dt]
    seconds (default [1e-5]) per {!tick}.
    @raise Invalid_argument if [dt < 0]. *)

val now : t -> float
(** Current virtual time, seconds. *)

val tick : t -> unit
(** Advance by the per-event [dt]. *)

val advance : t -> float -> unit
(** Advance by an explicit amount.
    @raise Invalid_argument on a negative amount. *)

val now_fn : t -> unit -> float
(** The clock as an injectable [now] function. *)
