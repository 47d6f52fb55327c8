(** Transient-fault injection.

    Self-stabilization promises recovery from an {e arbitrary} initial
    configuration; we model "after the last transient fault" by
    mutating node states of a configuration.  How a state is corrupted
    is algorithm-specific, so the mutator is a parameter (the
    transformer layer provides one that scrambles statuses, truncates,
    extends and garbles simulation lists while preserving the
    read-only [init] part). *)

type ('s, 'i) mutator = Ss_prelude.Rng.t -> 'i -> 's -> 's
(** A state corruption: given the node's read-only input and its
    current state, produce an arbitrary replacement.  It must not touch
    read-only data (the input is passed by value, never written back). *)

val corrupt :
  Ss_prelude.Rng.t ->
  ?p:float ->
  ('s, 'i) mutator ->
  ('s, 'i) Config.t ->
  ('s, 'i) Config.t
(** [corrupt rng ~p mutator config] applies [mutator] to each node's
    state independently with probability [p] (default [1.0], i.e. a
    fully arbitrary configuration).  The per-node draw precedes the
    mutator's own draws, node by node in ascending order — the single
    corruption loop behind every transformer's [corrupt].

    @raise Invalid_argument if [p] is outside [[0, 1]] (including NaN) —
    out-of-range probabilities would silently defer to [Rng.chance]'s
    clamping and make the scenario lie about its fault rate. *)

val corrupt_nodes :
  Ss_prelude.Rng.t ->
  ('s, 'i) mutator ->
  int list ->
  ('s, 'i) Config.t ->
  ('s, 'i) Config.t
(** Corrupt exactly the listed nodes.  The list is deduplicated and
    processed in ascending node order, so the RNG draw sequence depends
    only on the {e set} of nodes — a repeated or re-ordered list can
    never shift later draws and break scenario replay.

    @raise Invalid_argument on a node id outside [[0, n)]. *)
