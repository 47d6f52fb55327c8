(** Worst-case-over-adversaries measurement of a scenario.

    The paper's complexities are worst cases over all daemons and all
    initial configurations.  We approximate them by taking the maximum
    over the {!Ss_verify.Stabilization.daemon_portfolio} and over
    several random corruptions; the upper-bound {e shapes} must hold
    for every member of the portfolio, and the scripted §7 adversary
    (handled separately in {!Blowup_expt}) achieves the lower bound. *)

type agg = {
  runs : int;
  max_moves : int;
  max_rounds : int;
  max_recovery_moves : int;
  max_recovery_rounds : int;
  max_space_bits : int;
  all_legitimate : bool;  (** Every run reached a legitimate terminal
      configuration. *)
  all_spec : bool;  (** Every run's outputs satisfied [spec]. *)
}

val worst_case :
  ?spec:('s array -> bool) ->
  seeds:int list ->
  max_height:int ->
  ('s, 'i) Ss_verify.Stabilization.scenario ->
  agg
(** For each seed, corrupt every node of the clean start and run under
    every portfolio daemon; aggregate the maxima.  [spec] (default: always
    true) is checked on each run's final outputs. *)
