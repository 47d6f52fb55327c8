(** The space/locality trade-off behind Table 1's space row.

    The transformer multiplies the input algorithm's space [S] by the
    bound [B].  For the generic LOCAL simulation ({!Ss_algos.Local_views})
    [S] itself is [Θ(Δ^r)] — so this experiment shows, on one concrete
    family, both halves of the paper's §1.3 discussion: any LOCAL
    problem becomes fully-polynomial in time, and the memory bill is
    the product of the view size and the simulation depth.  The rows
    sweep the radius on a fixed topology and report measured [S]
    (max view bits), the transformed space footprint, and the [B·S]
    bound, with legitimacy checked under the portfolio. *)

val rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** The sweep, worst over [seeds].  The generator is unused: the
    inputs are the fixed map [p ↦ 13p mod 31], so only the corruption
    seeds vary between runs. *)
