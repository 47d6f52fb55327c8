(** Reproduction of the §5 instances: leader election, BFS spanning
    tree, and Cole–Vishkin ring 3-coloring.

    Each experiment checks the paper's two claims per instance: the
    complexity shape (rounds tracking [O(D)] — or [O(log* n)] for the
    coloring — and moves staying well inside the polynomial envelope)
    and the problem specification itself, verified on the terminal
    configuration of every run. *)

val leader_rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** §5.1: lazy-mode leader election; rounds vs [D], moves vs [n³],
    memory vs [B log n], and the elected-leader specification. *)

val bfs_rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** §5.2: lazy-mode BFS spanning tree on rooted networks; rounds vs
    [D], moves vs [n³], and the BFS-tree specification. *)

val cv_rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** §5.3: greedy-mode Cole–Vishkin on oriented rings with
    [B = Θ(log* n)]; rounds vs [B] (independent of [n]), moves vs
    [n²B], and the proper-3-coloring specification. *)

val shortest_path_rows :
  seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** The shortest-path construction mentioned in §1 (Bellman–Ford
    input): correctness and complexity of the transformed version. *)
