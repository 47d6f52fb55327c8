(** Execution traces: per-step records of who moved with which rule.

    A recorder is an {!Engine.observer} paired with an accumulator; it
    is the basis of the replay tests, of the "roots are never created"
    property checks, and of the §6 energy accounting.  All recorders
    here respect the sink purity contract (DESIGN.md §9) and compose
    on the engine's sink bus ({!Engine.tee} / [?sinks]). *)

type event = {
  ev_step : int;  (** Step index (1-based; step 0 is the initial config). *)
  ev_rounds : int;  (** Rounds completed when the step finished. *)
  ev_moved : (int * string) list;  (** (node, rule label) moves. *)
}

val make : unit -> ('s, 'i) Engine.observer * (unit -> event list)
(** [make ()] returns an observer and a function retrieving the events
    recorded so far, in execution order.  The initial [step = 0] call
    is not recorded. *)

val with_configs :
  unit ->
  ('s, 'i) Engine.observer * (unit -> (event * ('s, 'i) Config.t) list)
(** Like {!make} but each record also captures a snapshot of the
    configuration the step reached; the initial configuration is
    included as a pseudo-event with [ev_step = 0] and no moves.  The
    engine only lends its live configuration to a sink (see
    {!Engine.observer}), so this recorder copies the state array on
    every event: O(n) per step, for small executions and tests. *)

val moves_of : event list -> int
(** Total number of moves across the events. *)

val to_csv : event list -> string
(** One line per move: [step,rounds,node,rule] with a header — for
    offline analysis of executions.  Rule labels are quoted per
    RFC 4180 (fields containing commas, quotes or line breaks are
    wrapped in double quotes with embedded quotes doubled). *)

val csv_sink : unit -> ('s, 'i) Engine.observer * (unit -> string)
(** Streaming CSV export: an observer that appends each move to an
    internal buffer as it happens (same format as {!to_csv}), plus a
    function retrieving the CSV written so far. *)

val to_json : event list -> Ss_report.Json.t
(** The same per-move rows as {!to_csv}, as a JSON array of
    [{step, rounds, node, rule}] objects built on the
    {!Ss_report.Json} type. *)

val progress : ?every:int -> Format.formatter -> ('s, 'i) Engine.observer
(** A progress sink: prints [step/rounds/moves-so-far] every [every]
    steps (default 1000). *)

val to_schedule : event list -> int list list
(** The activation sets of the trace, replayable through
    {!Daemon.scripted} (the engine is deterministic given a schedule,
    so replay reproduces the execution exactly). *)

val pp_event : Format.formatter -> event -> unit
(** ["step 12 (3 rounds): 4:RU 7:RP"]. *)
