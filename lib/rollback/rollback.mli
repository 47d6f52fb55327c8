(** The Rollback Compiler of Awerbuch and Varghese (FOCS 1991), in its
    straightforward atomic-state version (paper §7).

    Like the paper's transformer, every node stores the synchronous
    execution of the input algorithm in a list — but the lists have a
    {e fixed} length [B] and there is no error-broadcast machinery: an
    activated node simply recomputes every cell from the current cells
    of its closed neighborhood ([L(i) := algô(p, i-1)]), correcting all
    its faulty cells in one move.  A node is enabled whenever some cell
    is faulty.

    This is fast in rounds ([O(B)]) but §7 proves its move complexity
    is {e exponential} in [n]: see {!Blowup} for the witness family. *)

type 's state = { init : 's; cells : 's array  (** Length exactly [B]. *) }

val height : 's state -> int
(** The (fixed) list length [B]. *)

val cell : 's state -> int -> 's
(** [cell st i] is [L(i)], [0 <= i <= B]; [cell st 0 = init]. *)

val equal : ('s -> 's -> bool) -> 's state -> 's state -> bool
(** Structural equality. *)

val fix : string
(** The label of the unique rule. *)

val algorithm :
  ('s, 'i) Ss_sync.Sync_algo.t -> bound:int -> ('s state, 'i) Ss_sim.Algorithm.t
(** [algorithm sync ~bound] is the rollback-compiled algorithm
    simulating [bound] rounds of [sync].
    @raise Invalid_argument if [bound < 1]. *)

val clean_config :
  ('s, 'i) Ss_sync.Sync_algo.t ->
  bound:int ->
  Ss_graph.Graph.t ->
  inputs:(int -> 'i) ->
  ('s state, 'i) Ss_sim.Config.t
(** The controlled initial configuration: every cell holds [init]
    (nodes will overwrite them as they correct). *)

val config_of_cells :
  Ss_graph.Graph.t ->
  inputs:(int -> 'i) ->
  init:(int -> 's) ->
  cells:(int -> int -> 's) ->
  bound:int ->
  ('s state, 'i) Ss_sim.Config.t
(** Arbitrary (possibly corrupted) configuration: [cells p i] gives
    [L(i)] of node [p] for [1 <= i <= bound]. *)

val simulates_history :
  ('s, 'i) Ss_sync.Sync_algo.t ->
  ('s, 'i) Ss_sync.Sync_runner.history ->
  ('s state, 'i) Ss_sim.Config.t ->
  bool
(** Every cell [i] of every node equals [st_p^i] (clamped beyond
    [T]). *)

module Entry : Ss_core.Registry.TRANSFORMER with type 's state = 's state
(** The compiler behind the {!Ss_core.Registry.TRANSFORMER} interface:
    finite bounds only, whole-list [move_bits] (no delta encoding
    exists for [FIX]), corruption scrambling cell contents (a hit
    node always has at least one cell redrawn; apply it to a whole
    configuration with {!Ss_sim.Fault.corrupt}). *)

val transformer : Ss_core.Registry.entry
(** {!Entry} as a registry entry; entered into the table by
    [Ss_expt.Catalog]. *)
