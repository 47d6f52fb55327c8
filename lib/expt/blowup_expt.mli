(** Reproduction of §7 / Figure 1: rollback's exponential moves versus
    the transformer's polynomial moves on the very same instance.

    For each [k] we run (a) the rollback compiler under the validated
    adversarial schedule [Γ_k] from Figure 1's initial configuration,
    and (b) the paper's transformer (greedy, same bound [B]) started
    from the same list contents, measured worst-case over the daemon
    portfolio.  The rollback column doubles with [k]; the transformer
    column stays polynomial — the paper's headline separation. *)

val rows : max_k:int -> seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** The comparison table for [k = 1 .. max_k], the transformer column
    worst over the portfolios of [seeds].  The generator is unused:
    [Γ_k] is one fixed schedule on one fixed configuration. *)

val transformer_on_fig1 :
  k:int -> daemon:Ss_sim.Daemon.t -> int * bool
(** Moves and termination flag of the transformer started from
    Figure 1's list contents on [G_k] (greedy, [B = bound_for k]).
    Exposed for tests. *)
