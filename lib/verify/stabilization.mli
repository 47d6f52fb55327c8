(** Self-stabilization measurement harness.

    A {!scenario} bundles a transformed algorithm with its workload
    (topology and inputs).  {!run} executes it from a chosen start
    configuration under a chosen daemon and reports everything the
    Table 1 experiments need: moves, rounds, the end of the error
    recovery phase (the step after which no root remains — the paper
    proves roots cannot be created, so the first root-free
    configuration is definitive), the space footprint, and the
    legitimacy of the terminal configuration. *)

type ('s, 'i) scenario = {
  params : ('s, 'i) Ss_core.Predicates.params;
  graph : Ss_graph.Graph.t;
  inputs : int -> 'i;
}

type 's report = 's Ss_core.Registry.summary = {
  moves : int;
  steps : int;
  rounds : int;
  terminated : bool;
  outcome : Ss_report.Budget.outcome;
  recovery_moves : int;
  recovery_rounds : int;
  legitimate : bool;
  space_bits : int;
  moves_per_rule : (string * int) list;
  outputs : 's array;
}
(** {!Ss_core.Registry.summary}, re-exported. *)

val history :
  ?rounds:int -> ('s, 'i) scenario -> ('s, 'i) Ss_sync.Sync_runner.history
(** The synchronous ground truth of the scenario.  [rounds] cuts the
    recorded history after that many rounds
    ({!Ss_sync.Sync_runner.run}'s [stop_after]) — sound whenever only
    rounds up to a finite transformer bound are consulted. *)

val clean_start :
  ?codec:'s Ss_core.Cellpack.codec ->
  ('s, 'i) scenario ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t
(** The controlled initial configuration:
    [Registry.Trans.start_config] — with [codec] and a finite bound,
    the states live in one packed {!Ss_core.Cellpack} arena (the
    million-node layout); otherwise boxed. *)

val corrupted_start :
  Ss_prelude.Rng.t ->
  ?p:float ->
  ?codec:'s Ss_core.Cellpack.codec ->
  max_height:int ->
  ('s, 'i) scenario ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t
(** A faulted start: {!clean_start} hit by
    {!Ss_core.Transformer.corrupt}. *)

val run :
  ?track_recovery:bool ->
  ?budget:Ss_report.Budget.t ->
  ?sharded:bool ->
  ?hist:('s, 'i) Ss_sync.Sync_runner.history ->
  ('s, 'i) scenario ->
  daemon:Ss_sim.Daemon.t ->
  start:('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t ->
  's report
(** Execute and measure: [Registry.Trans.measure] on the scenario's
    parameters, every option passed through — recovery tracked by
    {!Ss_core.Checker.has_root}, by default below 65536 nodes.  [hist],
    the scenario's {!history}, spares the run building one. *)

val daemon_portfolio :
  Ss_prelude.Rng.t -> (string * Ss_sim.Daemon.t) list
(** The adversary portfolio used to approximate worst-case complexity:
    synchronous, three densities of random-subset daemons, uniform
    central, deterministic unfair central, and round-robin.  Fresh
    daemons are built from [rng] at each call. *)
