(** Global inspection of transformer configurations: roots, heights,
    legitimacy.

    These are omniscient checks used by experiments and tests — not
    available to the nodes themselves. *)

val roots :
  ('s, 'i) Transformer.params ->
  ('s Trans_state.t, 'i) Ss_sim.Config.t ->
  int list
(** Nodes currently satisfying [root(p)], in increasing order.  The
    paper proves this set can only shrink along any execution. *)

val has_root :
  ('s, 'i) Transformer.params ->
  ('s Trans_state.t, 'i) Ss_sim.Config.t ->
  bool
(** Whether some root remains — [false] marks the end of the error
    recovery phase (§4). *)

val heights : ('s Trans_state.t, 'i) Ss_sim.Config.t -> int array
(** Per-node list heights. *)

val error_count : ('s Trans_state.t, 'i) Ss_sim.Config.t -> int
(** Number of nodes with status [E]. *)

val max_cliff : ('s Trans_state.t, 'i) Ss_sim.Config.t -> int
(** Largest height difference across an edge (a {e cliff} is a
    difference [>= 2], §4.3). *)

val space_bits :
  ('s, 'i) Transformer.params ->
  ('s Trans_state.t, 'i) Ss_sim.Config.t ->
  int
(** Maximum over nodes of the memory footprint in bits: the sizes of
    all cells plus [init] plus one status bit — the measured
    counterpart of Table 1's [O(B·S)]. *)

val simulates_history :
  ('s, 'i) Transformer.params ->
  ('s, 'i) Ss_sync.Sync_runner.history ->
  ('s Trans_state.t, 'i) Ss_sim.Config.t ->
  bool
(** Every node's cell [i] equals [st_p^i] (rounds beyond [T] clamp to
    the fixpoint) for all [i <= h], and every status is [C]. *)

val mis_legitimate : Ss_graph.Graph.t -> in_set:(int -> bool) -> bool
(** The flagged set is a {e maximal independent set}: no edge has both
    endpoints in the set, and every node outside it has a neighbor
    inside. *)

val matching_legitimate :
  Ss_graph.Graph.t -> partner:(int -> int option) -> bool
(** [partner p] is the node matched to [p] ([None] when unmatched).
    Checks a {e maximal matching}: partners are mutual, distinct and
    adjacent, and no edge joins two unmatched nodes. *)

val coloring_legitimate :
  Ss_graph.Graph.t -> max_colors:int -> color:(int -> int) -> bool
(** Every node's color lies in [[0, max_colors)] (negative = uncolored
    = illegitimate) and no edge is monochromatic — for the greedy
    algorithm, call with [max_colors = Δ + 1]. *)

val legitimate_terminal :
  ('s, 'i) Transformer.params ->
  ('s, 'i) Ss_sync.Sync_runner.history ->
  ('s Trans_state.t, 'i) Ss_sim.Config.t ->
  (unit, string) result
(** Full terminal-configuration check (§4.1): no enabled node, no
    root, all heights equal, correct simulation contents.  Terminality
    is judged by {!Transformer.algorithm_uncached}, independent of the
    watermark memo.  Returns a diagnostic on failure. *)
