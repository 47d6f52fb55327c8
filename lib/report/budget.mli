(** The one way to cap a run, across the three run loops.

    Every loop of the system — {!Ss_sim.Engine.run} (atomic-state
    steps/moves), {!Ss_sync.Sync_runner.run} (synchronous rounds) and
    {!Ss_msgnet.Msgnet.run} (message deliveries) — and every layer
    above them takes its caps as one [?budget:Budget.t], and {!outcome}
    is the single "which limit tripped" answer every loop reports.

    Semantics are {e conjunctive}: an execution stops at the first
    limit it reaches.  A field left [None] falls back to the loop's own
    default cap (documented by each loop), or is unlimited where the
    loop has none. *)

type t = {
  steps : int option;
      (** Daemon steps ({!Ss_sim.Engine}) or synchronous rounds
          ({!Ss_sync.Sync_runner}) — the loop's coarse iteration count. *)
  moves : int option;
      (** Hard cap on rule executions; never overshot (the engine
          truncates the budget-crossing selection to a prefix). *)
  deliveries : int option;
      (** Cap on message-network events; since each event delivers at
          most one message, [stats.deliveries] never exceeds it. *)
  deadline_s : float option;
      (** Wall-clock allowance in seconds, measured against the
          monotonic clock ({!now_s}) — immune to NTP steps, unlike
          [Unix.gettimeofday], and to blocked-process undershoot,
          unlike [Sys.time].  Polled as {!deadline} describes: not a
          hard bound, it may be overshot by up to one {!quantum} of
          work. *)
}

val unlimited : t
(** No limit on anything. *)

val v :
  ?steps:int -> ?moves:int -> ?deliveries:int -> ?deadline_s:float -> unit -> t
(** Budget with the given limits; omitted fields are unlimited. *)

type limit = Steps | Moves | Deliveries | Deadline

type outcome =
  | Completed  (** The loop reached its natural end (terminal
          configuration, fixpoint, or verified quiescence). *)
  | Tripped of limit  (** The named budget limit cut the run short. *)

val resolve : default:int -> int option -> int option -> int
(** [resolve ~default legacy budget] is the effective integer cap:
    the minimum of the provided limits, or [default] when both are
    [None].  Its one caller is {!Ss_msgnet.Msgnet.run}, whose
    [?max_events] the recovery benchmark still passes. *)

val now_s : unit -> float
(** Monotonic timestamp in seconds (the [CLOCK_MONOTONIC] stub from
    [bechamel.monotonic_clock], falling back to [Unix.gettimeofday]
    where unavailable).  Only differences are meaningful. *)

(** {2 Deadline polls}

    A run loop polls its deadline before each unit of its iteration
    (an engine step, a message event), passing its cumulative work so
    far: the movers of every engine step, 1 per message event.  A loop
    whose every iteration outweighs a clock read (a synchronous round,
    which copies its whole row) forces a poll instead ({!poll_now}).

    The default monotonic clock ({!now_s}) is read on the first poll,
    on every {!poll_now}, and otherwise only once {!quantum} units of
    work have been reported since the last read.  A run therefore
    overshoots an expired deadline by fewer than {!quantum} units of
    work plus the one step or round that crosses the quantum, and a
    loop whose every step does at least {!quantum} units of work (a
    synchronous step at n = 10^6) still reads the clock every step.

    An injected clock ([?now]) is read on every poll, so a deadline
    measured on a virtual clock ([Ss_chaos.Clock.now_fn]) trips at
    the same step or event index as a per-poll check, and a
    tracer passed as [?now] still sees every poll.  Without a
    deadline no clock is ever read. *)

type deadline
(** A running deadline: its start time, allowance and poll state. *)

val quantum : int
(** Units of work between two reads of the default clock (4096). *)

val deadline : ?now:(unit -> float) -> t -> deadline
(** [deadline ?now t] starts [t]'s deadline: it reads the clock once
    now when [t.deadline_s] is set, and never otherwise.  [now]
    injects the time source (default {!now_s}); deterministic
    simulations pass a virtual clock so that deadline budgets depend
    only on simulated time and replays are exact. *)

val poll : deadline -> work:int -> bool
(** [poll d ~work], with [work] the loop's cumulative work count
    (non-decreasing from 0), is [true] once the deadline has passed,
    under the poll policy above.  Constant [false] without a
    deadline. *)

val poll_now : deadline -> bool
(** A forced poll: reads the clock now, whatever the work count, and
    is [true] once the deadline has passed.  For a loop about to start
    work that the quantum would not bound (the message loop's
    drained-channel re-check before a probe wave) and for a loop whose
    iterations each outweigh the read ([Sync_runner]'s rounds).
    Constant [false], and free of clock reads, without a deadline. *)

val outcome_to_string : outcome -> string
(** ["completed"], ["steps"], ["moves"], ["deliveries"], ["deadline"] —
    the [outcome] row of [fasst run]. *)
