(** The Fully Adaptive Self-Stabilizing Transformer of Bitton, Emek,
    Izumi and Kutten (arXiv 2105.09756), realized over the repo's
    {!Ss_core.Trans_state} simulation lists.

    Where the paper's §3 system answers a detected fault with an
    {e error broadcast} — rule [RR] wipes the whole list and the error
    DAG recruits the neighborhood, so even one corrupted node can cost
    work proportional to [n] — the adaptive transformer repairs
    {e in place}:

    - [RS] ({e snip}): a node whose checkable prefix refutes some cell
      truncates its list just below the first refuted cell.  Cells
      beneath it were verified against the current neighbor cells and
      survive; nothing is broadcast.
    - [RX] ({e extend}): with a clean checkable prefix, a list shorter
      than [B] whose next-cell dependencies are all present appends
      [algô(p, h)].  There is deliberately {e no} upper neighbor-height
      window: after a point truncation the neighbors may tower above
      the repaired node, and §3's [nb <= h+1] constraint would
      deadlock the local repair.
    - [CO] ({e clear}): a node still carrying a corrupted [E] flag
      drops it once its list is complete.  The adaptive rules never
      set [E]; the status travels along only because the state space
      is shared with the §3 system (same packed arenas, same
      watermark caches, same fault model).

    The payoff is {e fault locality}: re-stabilization after
    corrupting [k] nodes costs work growing with [k] (each victim
    re-verifies and re-extends its own [O(B)] cells, plus an [O(1)]
    contamination radius), not with [n].  The price is the loss of
    §3's unbounded-[T] support — every list must reach the common
    height [B], so only finite bounds are accepted — and of the
    round-complexity machinery built on the error DAG. *)

val rs : string
(** Rule label ["RS"] (snip/truncate). *)

val rx : string
(** Rule label ["RX"] (extend). *)

val co : string
(** Rule label ["CO"] (clear the corrupted error flag). *)

val bound_of : ('s, 'i) Ss_core.Predicates.params -> int
(** The finite bound [B].
    @raise Invalid_argument on an infinite bound. *)

val algorithm :
  ('s, 'i) Ss_core.Predicates.params ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Algorithm.t
(** The adaptive algorithm with memoized guard predicates (per-domain
    watermark caches, as in {!Ss_core.Transformer.algorithm}).
    @raise Invalid_argument on an infinite bound. *)

val algorithm_uncached :
  ('s, 'i) Ss_core.Predicates.params ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Algorithm.t
(** The uncached reference twin (differential tests). *)

val clean_config :
  ('s, 'i) Ss_core.Predicates.params ->
  Ss_graph.Graph.t ->
  inputs:(int -> 'i) ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t
(** Shared with the §3 system: empty lists, status [C]. *)

val packed_config :
  ('s, 'i) Ss_core.Predicates.params ->
  codec:'s Ss_core.Cellpack.codec ->
  Ss_graph.Graph.t ->
  inputs:(int -> 'i) ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t
(** Packed-arena twin of {!clean_config}
    ({!Ss_core.Transformer.packed_config}). *)

val corrupt :
  Ss_prelude.Rng.t ->
  ?p:float ->
  max_height:int ->
  ('s, 'i) Ss_core.Predicates.params ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t
(** {!Ss_core.Transformer.corrupt}: the §3 fault model, unchanged. *)

val converged_config :
  ('s, 'i) Ss_core.Predicates.params ->
  ('s, 'i) Ss_sync.Sync_runner.history ->
  Ss_graph.Graph.t ->
  inputs:(int -> 'i) ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t
(** The legitimate terminal configuration directly: every node at
    height [B] with cell [i] equal to the synchronous history's round
    [i] (clamped beyond [T]), status [C].  The starting point of
    adaptivity experiments, which corrupt [k] of its nodes and measure
    the recovery. *)

module Entry : sig
  include
    Ss_core.Registry.TRANSFORMER
      with type 's state = 's Ss_core.Trans_state.t

  include Ss_core.Registry.RUN with type 's state := 's state
end
(** The adaptive transformer behind the registry interface, with its
    {!Ss_core.Registry.RUN} layer ([run], the [run_naive] reference
    twin over {!algorithm_uncached}, [measure]): finite bounds only;
    delta-style [move_bits] (new cell for [RX], new height for [RS],
    label only for [CO]); terminal legitimacy = all heights [B] +
    correct simulation contents. *)

val transformer : Ss_core.Registry.entry
(** {!Entry} as a registry entry; entered into the table by
    [Ss_expt.Catalog]. *)
