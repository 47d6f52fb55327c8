(** Hand-crafted FASS baselines versus the transformer.

    The paper's motivating contrast (§1.2): algorithms that are fast
    in rounds tend to pay exponentially in moves, and the move-optimal
    ones pay [Ω(n)] rounds.  This table measures the hand-crafted
    "min+1" BFS baseline against the transformed BFS construction on
    the same instances — both from adversarial starts (all estimates
    zero: every node believes it neighbors the root) and under the
    adversary portfolio — plus Dijkstra's token ring as a
    non-silent reference point. *)

val bfs_rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** naive min+1 BFS vs transformed BFS: worst moves and rounds. *)

val dijkstra_rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** Dijkstra's token ring: convergence steps/moves to the first
    legitimate configuration over ring sizes, worst over [seeds].  The
    generator is unused: each seed's start and portfolio come from
    [Rng.create (seed * 17)]. *)
