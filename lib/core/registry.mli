(** The pluggable transformer registry.

    A {e transformer} turns a terminating synchronous algorithm
    (a {!Ss_sync.Sync_algo.t} plus a graph and a bound, packaged as a
    {!Predicates.params}) into an asynchronous self-stabilizing
    algorithm the {!Ss_sim.Engine} consumes directly, together with
    the accounting hooks every campaign needs: per-move energy bits,
    space bits, corruption, and a terminal-legitimacy verdict against
    the synchronous ground truth.

    Three transformers register here: the paper's §3 system ({!Trans},
    seeded by this module), the §7 rollback compiler
    ([Ss_rollback.Rollback.transformer]) and the fully adaptive
    transformer ([Ss_adaptive.Adaptive.transformer]) — the latter two
    are entered into the table by [Ss_expt.Catalog], the campaign
    layer's single source of truth.

    {b Contract} (DESIGN.md §14).  A registered transformer must keep
    the properties the simulation stack relies on: rules that read
    only the node's own state and the multiset of neighbor states
    (dirty-set scheduler soundness), pure guards safe to re-evaluate
    at any time from any domain (sharded sweeps, chaos harness
    re-scans), and value-semantics states (the engine never mutates a
    state in place). *)

module type TRANSFORMER = sig
  val name : string
  (** Registry key, e.g. ["trans"], ["rollback"], ["adaptive"]. *)

  val doc : string
  (** One-line description for [fasst list]. *)

  type 's state
  (** Per-node transformed state over simulated states ['s]. *)

  val supports : ('s, 'i) Predicates.params -> (unit, string) result
  (** Whether this transformer accepts the given parameters (e.g. the
      rollback compiler and the adaptive transformer require a finite
      bound).  [Error] carries a diagnostic. *)

  val algorithm :
    ('s, 'i) Predicates.params -> ('s state, 'i) Ss_sim.Algorithm.t
  (** The transformed asynchronous algorithm (production path — may
      embed caches, which must never change results). *)

  val reference_algorithm :
    ('s, 'i) Predicates.params -> ('s state, 'i) Ss_sim.Algorithm.t
  (** The uncached reference twin for differential testing; equal to
      {!algorithm} observationally. *)

  val clean_config :
    ('s, 'i) Predicates.params ->
    Ss_graph.Graph.t ->
    inputs:(int -> 'i) ->
    ('s state, 'i) Ss_sim.Config.t
  (** The controlled initial configuration. *)

  val packed_start :
    (('s, 'i) Predicates.params ->
    codec:'s Cellpack.codec ->
    Ss_graph.Graph.t ->
    inputs:(int -> 'i) ->
    ('s state, 'i) Ss_sim.Config.t)
    option
  (** Start hook: {!clean_config} in one packed {!Cellpack} arena
      (DESIGN.md §12), under a finite bound; [None] without one. *)

  val corrupt_state :
    Ss_prelude.Rng.t ->
    max_height:int ->
    ('s, 'i) Predicates.params ->
    'i ->
    's state ->
    's state
  (** Transient-fault model: scramble one node state (heights, where
      variable, stay within [min max_height B]). *)

  val outputs : ('s state, 'i) Ss_sim.Config.t -> 's array
  (** The simulated algorithm's outputs (each node's newest cell). *)

  val space_bits :
    ('s, 'i) Predicates.params -> ('s state, 'i) Ss_sim.Config.t -> int
  (** Maximum per-node memory footprint in bits. *)

  val move_bits : ('s, 'i) Predicates.params -> rule:string -> 's state -> int
  (** Energy hook: bits of {e one message} announcing a move that
      produced the given state under the given rule — §6's delta
      encoding for Trans-shaped transformers, a full-state broadcast
      for the rollback compiler.  {!measure} multiplies by the mover's
      degree and sums. *)

  val legitimate_terminal :
    ('s, 'i) Predicates.params ->
    ('s, 'i) Ss_sync.Sync_runner.history ->
    ('s state, 'i) Ss_sim.Config.t ->
    (unit, string) result
  (** Terminal-configuration legitimacy against the synchronous ground
      truth (terminality included). *)

  val has_root :
    (('s, 'i) Predicates.params -> ('s state, 'i) Ss_sim.Config.t -> bool)
    option
  (** Root hook for recovery tracking: whether some root remains.
      Only a transformer that never creates a root (§3, paper §4) has
      one, so its first root-free configuration is final. *)
end

type entry = (module TRANSFORMER)

val register : entry -> unit
(** Add a transformer to the table.
    @raise Invalid_argument on a duplicate name. *)

val find : string -> entry option
(** Look up by name. *)

val find_exn : string -> entry
(** @raise Failure with the known names on an unknown name. *)

val all : unit -> entry list
(** Every registered transformer, in registration order (so tables and
    [fasst list] render deterministically). *)

val name : entry -> string

val doc : entry -> string

val supports : entry -> ('s, 'i) Predicates.params -> (unit, string) result

val packs : entry -> bool
(** It has a {!TRANSFORMER.packed_start}. *)

val tracks_recovery : entry -> bool
(** It has a {!TRANSFORMER.has_root}. *)

(* ------------------------------------------------------------------ *)
(* Generic runs                                                         *)
(* ------------------------------------------------------------------ *)

type 's summary = {
  moves : int;
  steps : int;
  rounds : int;
  terminated : bool;
  outcome : Ss_report.Budget.outcome;
      (** [Completed], or which budget limit stopped the run. *)
  recovery_moves : int;
      (** Moves up to the first root-free configuration; [-1] when
          not tracked or when the run stopped before it. *)
  recovery_rounds : int;  (** Rounds likewise. *)
  legitimate : bool;
      (** Terminated, and {!TRANSFORMER.legitimate_terminal} accepts
          the terminal configuration. *)
  space_bits : int;
      (** {!TRANSFORMER.space_bits} of the final configuration. *)
  moves_per_rule : (string * int) list;
  outputs : 's array;  (** {!TRANSFORMER.outputs} of the final configuration. *)
}
(** What a measured run reports, for any transformer. *)

(** The run layer every transformer shares (DESIGN.md §14).  Observers
    — energy meters, recovery tracking, traces — ride on [sinks]; the
    run itself takes no other hook.

    One policy each, for every transformer:
    - {e budget}: the caller's [budget], else the engine's own default
      ({!Ss_sim.Engine.run}); no layer here adds a cap of its own;
    - {e layout}: a [codec] under a finite bound selects the entry's
      {!TRANSFORMER.packed_start}, anything else the boxed
      {!TRANSFORMER.clean_config};
    - {e recovery}: tracked through {!TRANSFORMER.has_root} when the
      entry has one, by default below 65536 nodes (the per-step root
      scan is O(n·deg)). *)
module type RUN = sig
  type 's state

  val run :
    ?budget:Ss_report.Budget.t ->
    ?now:(unit -> float) ->
    ?chaos:('s state, 'i) Ss_sim.Engine.chaos ->
    ?self_check:bool ->
    ?sharded:bool ->
    ?sinks:('s state, 'i) Ss_sim.Engine.observer list ->
    ('s, 'i) Predicates.params ->
    Ss_sim.Daemon.t ->
    ('s state, 'i) Ss_sim.Config.t ->
    ('s state, 'i) Ss_sim.Engine.stats
  (** {!Ss_sim.Engine.run} over {!TRANSFORMER.algorithm}; the budget,
      clock, chaos and sink options pass through.  [self_check] cross-checks
      the dirty-set scheduler against a full scan {e and} the
      production predicates against {!TRANSFORMER.reference_algorithm}
      (a sink appended after [sinks]), raising
      {!Ss_sim.Engine.Divergence} on any mismatch.  [sharded] (default
      [false]) enables the sharded scheduler; per-domain caches keep
      the execution byte-identical to the sequential run. *)

  val run_naive :
    ?budget:Ss_report.Budget.t ->
    ?now:(unit -> float) ->
    ?sinks:('s state, 'i) Ss_sim.Engine.observer list ->
    ('s, 'i) Predicates.params ->
    Ss_sim.Daemon.t ->
    ('s state, 'i) Ss_sim.Config.t ->
    ('s state, 'i) Ss_sim.Engine.stats
  (** {!Ss_sim.Engine.run_naive}, the full-rescan reference engine,
      over {!TRANSFORMER.reference_algorithm} — the differential
      twin of {!run}. *)

  val start_config :
    ?codec:'s Cellpack.codec ->
    ('s, 'i) Predicates.params ->
    Ss_graph.Graph.t ->
    inputs:(int -> 'i) ->
    ('s state, 'i) Ss_sim.Config.t
  (** The initial configuration, laid out by the policy above. *)

  val measure :
    ?budget:Ss_report.Budget.t ->
    ?sharded:bool ->
    ?track_recovery:bool ->
    ?sinks:('s state, 'i) Ss_sim.Engine.observer list ->
    ?hist:('s, 'i) Ss_sync.Sync_runner.history ->
    ('s, 'i) Predicates.params ->
    daemon:Ss_sim.Daemon.t ->
    start:('s state, 'i) Ss_sim.Config.t ->
    's summary
  (** One measured run: {!run} from [start] with [sinks] (and the
      recovery sink, when tracked; [track_recovery] overrides the
      policy), then the terminal configuration checked against the
      synchronous ground truth [hist] — computed after the run from
      [start]'s graph and inputs when not supplied, and cut at [B]
      rounds under a finite bound (terminal heights never exceed
      [B]). *)
end

module Make (T : TRANSFORMER) : RUN with type 's state := 's T.state
(** The run layer of one transformer. *)

(* ------------------------------------------------------------------ *)
(* The §3 transformer as a registry entry                               *)
(* ------------------------------------------------------------------ *)

(** The paper's transformer behind the {!TRANSFORMER} interface — the
    whole {!Transformer} API (params, rules, packed configs), the
    registry hooks and the {!RUN} layer.  Its hooks: [name] is
    ["trans"]; [supports] always accepts (the §3 system takes any
    mode/bound combination {!Transformer.params} admits);
    [reference_algorithm] is {!Transformer.algorithm_uncached};
    [packed_start] is {!Transformer.packed_config}; [space_bits],
    [legitimate_terminal] and [has_root] are {!Checker}'s; [move_bits]
    is §6's delta encoding — 2 label bits, plus the new cell for [RU] or
    the new height for [RP] ([log₂(B+1)] bits, 32 under an infinite
    bound).  Call sites alias this module instead of {!Transformer}:
    the registry is the only consumption path for the §3 system outside
    [lib/core]. *)
module Trans : sig
  include module type of Transformer
  include TRANSFORMER with type 's state = 's Trans_state.t
  include RUN with type 's state := 's state
end


(* ------------------------------------------------------------------ *)
(* First-class measured runs                                            *)
(* ------------------------------------------------------------------ *)

val measure :
  entry ->
  ?budget:Ss_report.Budget.t ->
  ?p:float ->
  ?hist:('s, 'i) Ss_sync.Sync_runner.history ->
  ?codec:'s Cellpack.codec ->
  ?sharded:bool ->
  rng:Ss_prelude.Rng.t ->
  daemon:Ss_sim.Daemon.t ->
  max_height:int ->
  ('s, 'i) Predicates.params ->
  Ss_graph.Graph.t ->
  inputs:(int -> 'i) ->
  's summary * int
(** One measured run of any registered transformer, entirely behind
    the interface: build the start with {!RUN.start_config} ([codec]
    passes through), hit each node with probability [p] (default 1)
    through {!Ss_sim.Fault.corrupt} and the entry's [corrupt_state],
    then {!RUN.measure} it ([budget], [sharded] and [hist] pass
    through) with a move-bits energy sink.  Returns the run's summary
    and its energy: [Σ deg(p) · move_bits] over the execution's moves,
    the transformer-comparison energy column.
    @raise Invalid_argument when the transformer does not support the
    parameters ({!supports}) or on a corruption probability outside
    [[0, 1]]. *)
