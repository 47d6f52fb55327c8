(** The three-way transformer comparison: every registered transformer
    on every LCL workload on every graph family, measured.

    Each (algorithm, graph) workload is instantiated {e once} — same
    ids, same synchronous ground-truth history, same greedy/[Finite B]
    parameters (with [B] the measured synchronous time) — and handed
    to every transformer through {!Ss_core.Registry.measure}: clean
    configuration, every node corrupted, the dirty-set engine under a
    distributed random daemon, per-move energy accounting through the
    transformer's own [move_bits] hook, and terminal legitimacy against
    the instance's ground truth; the row then checks the workload's
    output specification on the run's outputs.

    The table is worst-over-seeds per cell ({!Measure.worst}); an
    illegitimate terminal configuration reads "NO" in the "ok" column,
    which makes [fasst transformers] exit 1.  Ring-only workloads on
    non-ring graphs render as "n/a" rows, keeping the full cross
    product visible.  Byte-identical output for any [-j] (DESIGN.md
    §11). *)

val headers : string list

val rows :
  ?transformers:Ss_core.Registry.entry list ->
  ?algos:string list ->
  ?graphs:(string * Ss_graph.Graph.t) list ->
  seeds:int list ->
  Ss_prelude.Rng.t ->
  Ss_prelude.Table.t
(** [rows ~seeds rng] runs the grid on the shared {!Ss_par.Par} pool.
    Defaults: all registered transformers; the algorithms [leader],
    [bfs], [cv], [mis], [matching] and [coloring]; the graphs
    [ring:24], [torus:4x6] and [random4:16]. *)
