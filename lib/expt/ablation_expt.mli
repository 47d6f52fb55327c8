(** Ablation experiments on the transformer's rule set (DESIGN.md
    design-choice index).

    For each variant — the full transformer, {!Ss_core.Ablation.without_rp}
    and {!Ss_core.Ablation.with_eager_clear} — the table reports, over
    many random corruptions and the daemon portfolio: how many runs
    terminated, how many terminal configurations were legitimate, and
    the worst-case moves and rounds.  The no-RP column demonstrates
    that error propagation is needed for {e correctness} (stuck
    illegitimate terminal configurations), not merely for speed; the
    eager-RC column prices the freeze discipline. *)

val rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** The ablation comparison on leader election over a topology mix. *)
