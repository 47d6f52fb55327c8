(** Reference executor for synchronous algorithms.

    Runs an algorithm from its controlled initial configuration under
    the synchronous daemon and records the whole history
    [st_p^0, st_p^1, …, st_p^T] — the ground truth the transformer's
    lists must converge to (paper §3: ultimately
    [p.L\[i\] = st_p^i]). *)

type ('s, 'i) history = {
  graph : Ss_graph.Graph.t;
  inputs : 'i array;
  states_by_round : 's array array;
      (** [states_by_round.(i).(p)] is [st_p^i]; row [0] is the initial
          configuration, row [t] the fixpoint. *)
  t : int;  (** Execution time [T]: first round index with no change. *)
}

exception Did_not_terminate of string
(** Raised when no fixpoint is reached within the budget (round cap or
    wall-clock deadline). *)

val run :
  ?budget:Ss_report.Budget.t ->
  ?stop_after:int ->
  ('s, 'i) Sync_algo.t ->
  Ss_graph.Graph.t ->
  inputs:(int -> 'i) ->
  ('s, 'i) history
(** [run algo g ~inputs] executes until the global fixpoint, capped
    by [budget] alone: [budget.steps] counts synchronous rounds here,
    and when it is unset the cap is [4 * n + 64] rounds, ample for all
    the algorithms here, whose [T] is at most [n].
    [budget.deadline_s] is checked before every round by a forced
    poll ({!Ss_report.Budget.poll_now}); the other fields do not
    apply.

    [stop_after] truncates the recorded history: the run stops
    cleanly (no exception) once that many rounds were executed, even
    without a fixpoint, and [t] is the stop round.  Under a finite
    transformer bound [B] only rounds [0..B] are ever consulted
    (heights never exceed [B]), so [stop_after:B] bounds the ground
    truth to [O(B·n)] memory instead of [O(T·n)] — the million-node
    checker path.  Note [state_at]'s clamp and [final] then refer to
    the stop row, not the fixpoint.
    @raise Did_not_terminate when the budget is exhausted. *)

val state_at : ('s, 'i) history -> round:int -> node:int -> 's
(** [state_at h ~round ~node] is [st_node^round], with rounds beyond
    [T] clamped to the fixpoint (the paper's "the last rounds do
    nothing"). *)

val final : ('s, 'i) history -> 's array
(** The fixpoint row. *)

val execution_time : ('s, 'i) history -> int
(** [T]. *)

val max_state_bits : ('s, 'i) Sync_algo.t -> ('s, 'i) history -> int
(** Largest [state_bits] over all rounds and nodes — the measured [S]. *)
