(** Worst-case-over-adversaries measurement, and the one row fan-out
    and worst-over-runs fold every experiment table shares.

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

type instance = {
  t : int;  (** The synchronous time [T] of the instance. *)
  bound : int;  (** The greedy bound [B]; [0] in lazy mode ([B = ∞]). *)
  state_bits : int;  (** Largest synchronous state over the history. *)
  agg : agg;  (** {!worst_case} under the output specification. *)
}

val instance :
  ?greedy:(int -> int) -> seeds:int list -> Catalog.algo_inst ->
  Ss_graph.Graph.t -> instance
(** [instance ~seeds inst g] measures a {!Catalog} algorithm
    instantiated on [g]: lazy mode, [B = ∞], corruption heights up to
    [T + 4].  With [greedy f]: greedy mode with [B = f (max 1 T)] and
    heights up to [B]. *)

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
