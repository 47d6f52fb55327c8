(** The hand-crafted "min + 1" self-stabilizing BFS distance algorithm
    — the round-fast / move-heavy family the paper contrasts against
    (§1.2, §5.2; Dolev's BFS and the Huang–Chen construction are of
    this shape, and [26] proves exponential move complexity for
    them).

    Every non-root node keeps a distance estimate and greedily sets it
    to [1 + min] of its neighbors' estimates whenever they disagree;
    the root pins [0].  Estimates are clamped to a bound [dmax]
    (bounded memory, as in the atomic-state variants studied by [26]).
    It stabilizes to exact BFS distances in [O(n)] rounds, but under
    sequential daemons a node may recompute its distance many times as
    underestimates crawl up — the pathology the transformer's freezing
    avoids.  The comparison experiment measures moves of this baseline
    against the transformed BFS on the same instances. *)

type state = int
(** Distance estimate in [0..dmax]. *)

type input = { is_root : bool; dmax : int }

val algo : (state, input) Ss_sim.Algorithm.t
(** The atomic-state algorithm ("min+1" rule, root pinned). *)

val inputs : Ss_graph.Graph.t -> root:int -> ?dmax:int -> unit -> int -> input
(** [dmax] defaults to [n]. *)

val spec_holds : Ss_graph.Graph.t -> root:int -> final:state array -> bool
(** Estimates equal exact hop distances. *)

val adversarial_run : (state, input) Ss_sim.Config.t -> int * bool
(** A sequential adversary tailored to this algorithm: always activate
    the enabled node whose {e new} estimate would be smallest (ties by
    id), so underestimates crawl upward by minimal increments — the
    §1.2 pathology.  Returns [(moves, terminated)]; it gives up
    (unterminated) after 10,000,000 steps.  On a rooted path
    from an all-zero start this forces [Θ(n²)] moves where the
    transformed BFS spends [O(n·T)]. *)
