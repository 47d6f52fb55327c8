(** The §7 exponential-move witness for the rollback compiler.

    The input algorithm is {!Ss_algos.Min_flood} with every input set
    to 1; the topology is {!Ss_graph.Gk} and the initial configuration
    is Figure 1's: node [p] holds the list [ī(p)] (ones strictly below
    position [i(p)], zeroes after), where [i(p) = d(p, c_k)] for
    [a]-nodes and [d(p, c_k) + 1] otherwise.

    The recursive schedule [Γ_k] activates one node per step:
    [Γ_1 = a1] and

    [Γ_{i+1} = Γ_i · b_{i+1} · bottom(G_i) · a_1 … a_i ·
               a_{i+1} · b_{i+1} · bottom(G_i) · Γ_i]

    Its net effect is to raise every [a]-node's index by one, and
    [|Γ_{i+1}| > 2 |Γ_i|], so the rollback compiler executes
    exponentially many moves before stabilizing.  Every activation is
    validated by the engine: the schedule is a real execution, not an
    estimate. *)

val bound_for : int -> int
(** A sufficient rollback list length [B] for [G_k]'s Figure 1
    configuration ([3k + 2]). *)

val initial_config :
  k:int -> (int Rollback.state, int) Ss_sim.Config.t
(** Figure 1's initial configuration on [G_k] (with [B = bound_for k]). *)

val gamma : int -> int list
(** [gamma k] is the schedule [Γ_k] as single-node activations. *)

val gamma_length : int -> int
(** Closed recursion [|Γ_1| = 1], [|Γ_{i+1}| = 2|Γ_i| + 7i + 3] —
    checked against [List.length (gamma k)] in the tests. *)

type result = {
  k : int;
  n : int;  (** [5k]. *)
  schedule_moves : int;  (** Moves during [Γ_k] (= its length). *)
  total_moves : int;  (** Moves until the rollback stabilizes. *)
  total_rounds : int;
  stabilized : bool;  (** Reached the all-ones legitimate lists. *)
}

val run : k:int -> unit -> result
(** Execute [Γ_k] (validated activation by activation), then finish
    the execution under the synchronous daemon (within 50,000,000
    steps in all) and check the terminal lists are correct.
    @raise Ss_sim.Engine.Invalid_selection if the schedule is not a
    legal execution (this would falsify the reproduction). *)
