(** Reproduction of Table 1: the transformer's complexity envelope.

    The paper's Table 1 states worst-case bounds; we measure actual
    worst cases over the daemon portfolio and random corruptions and
    print them next to the bound formulas evaluated on the instance,
    so the {e shape} claims can be checked row by row:

    - lazy: moves within [O(min(n³+nT, n²B))], rounds within [O(D+T)];
    - greedy: rounds within [O(B)] and growing linearly with [B];
    - error recovery: rounds within [O(min(D,B))], moves within
      [O(min(n³, n²B))];
    - space: at most [O(B·S)] bits per node.

    Every run is also checked to end in a legitimate terminal
    configuration (the correctness side of the theorem).  Each table
    takes the worst over [seeds] corruption seeds. *)

val lazy_rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** Lazy-mode sweep of leader election over the standard workloads. *)

val greedy_rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** Greedy-mode sweep with controlled [T] (the clock algorithm) and
    growing [B], plus greedy leader election. *)

val recovery_rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** Error-recovery sweep: recovery rounds against [min(D, B)]
    including the counterintuitive [B < D] regime. *)

val space_rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** Space sweep: measured per-node bits against [B·S]. *)
