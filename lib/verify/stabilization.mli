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

type 's report = {
  moves : int;
  steps : int;
  rounds : int;
  terminated : bool;
  outcome : Ss_report.Budget.outcome;
      (** [Completed], or which budget limit stopped the run. *)
  recovery_moves : int;
      (** Moves executed up to the first root-free configuration
          ([0] when the start already has no root; [-1] when recovery
          tracking is disabled, or when the run stopped before its
          first root-free configuration). *)
  recovery_rounds : int;  (** Rounds likewise. *)
  space_bits : int;  (** Maximum per-node footprint over the execution's
          final configuration. *)
  moves_per_rule : (string * int) list;
  legitimate : bool;
      (** Terminal, root-free, equal heights, lists matching the
          synchronous history. *)
  outputs : 's array;  (** Final simulated outputs [L(h)]. *)
}

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
(** The controlled initial configuration.  With [codec] and a finite
    bound, the states live in one packed {!Ss_core.Cellpack} arena
    ({!Ss_core.Transformer.packed_config} — the million-node layout);
    otherwise boxed. *)

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
  ('s, 'i) scenario ->
  daemon:Ss_sim.Daemon.t ->
  start:('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t ->
  's report
(** Execute and measure: {!Ss_core.Registry.RUN.measure} on
    [Registry.Trans] with a recovery sink attached.  [track_recovery]
    checks for remaining roots after every step; its default is [true]
    below 65536 nodes and [false] above (the per-step O(n·deg) root
    scan would dominate a big run), and an untracked run attaches no
    sink at all.  [budget] (the engine's default cap when omitted) and
    [sharded] pass through to the run.
    Under a finite bound [B] the legitimacy check uses a ground-truth
    history cut at [B] rounds — exactly what terminal lists
    (heights ≤ B) can reference. *)

val daemon_portfolio :
  Ss_prelude.Rng.t -> (string * Ss_sim.Daemon.t) list
(** The adversary portfolio used to approximate worst-case complexity:
    synchronous, three densities of random-subset daemons, uniform
    central, deterministic unfair central, and round-robin.  Fresh
    daemons are built from [rng] at each call. *)
