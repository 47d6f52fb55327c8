(** Worst-case-over-adversaries measurement, and the one row fan-out
    and worst-over-runs fold every experiment table shares.

    The paper's complexities are worst cases over all daemons and all
    initial configurations.  We approximate them by taking the maximum
    over the {!Ss_verify.Stabilization.daemon_portfolio} and over
    several random corruptions; the upper-bound {e shapes} must hold
    for every member of the portfolio, and the scripted §7 adversary
    (handled separately in {!Blowup_expt}) achieves the lower bound. *)

val replicas :
  seeds:int list -> (Ss_prelude.Rng.t -> Ss_sim.Daemon.t -> 'a) -> 'a list
(** [replicas ~seeds run]: [run rng daemon] for every seed and every
    {!Ss_verify.Stabilization.daemon_portfolio} member of that seed's
    generator, each with its own split generator, on the shared
    {!Ss_par.Par} pool; results in (seed, portfolio) order. *)

val worst_case :
  seeds:int list ->
  max_height:int ->
  hist:('s, 'i) Ss_sync.Sync_runner.history ->
  ('s, 'i) Ss_verify.Stabilization.scenario ->
  's Ss_verify.Stabilization.report list
(** The {!replicas} reports of a {!Catalog.instance}'s scenario: each
    replica corrupts every node of the clean start (heights up to
    [max_height]) and runs it under its daemon, checking the terminal
    configuration against the instance's ground truth [hist].  Each
    section projects a report to its cells and folds them with
    {!worst}. *)

val table :
  string list -> (unit -> Ss_prelude.Table.cell list) list -> Ss_prelude.Table.t
(** [table headers rows] computes each row thunk on the shared
    {!Ss_par.Par} pool and adds the rows in list order.  Every parent
    generator is split while the thunks are {e built}, and a thunk
    draws only from its own generators, so the table is byte-identical
    for any [-j] (DESIGN.md §11). *)

val worst : Ss_prelude.Table.cell list list -> Ss_prelude.Table.cell list
(** The worst of several runs' rows, column by column: the maximum of
    [I] cells; [S "NO"] over any other text; any other text cells
    (labels, ["yes"]) must be equal.
    @raise Invalid_argument on no rows, rows of different lengths, or
    unequal labels. *)

val ok_cell : bool -> Ss_prelude.Table.cell
(** ["yes"] or ["NO"]. *)

val ok : Ss_prelude.Table.t -> bool
(** No cell of the table reads ["NO"]. *)
