(** Dijkstra's seminal K-state token ring (the paper's reference [27]
    — the origin of self-stabilization), as an atomic-state algorithm.

    A unidirectional ring of [n] machines, machine 0 distinguished.
    Each machine holds a counter in [0..K-1] and reads its
    predecessor:

    - machine 0 is {e privileged} when its value equals its
      predecessor's; firing increments its value mod [K];
    - any other machine is privileged when its value differs from its
      predecessor's; firing copies the predecessor's value.

    For [K >= n] the system self-stabilizes, from any configuration
    and under any daemon, to configurations with exactly one
    privilege, which then circulates forever (mutual exclusion).  The
    algorithm is {e not} silent — it is the classic example of what
    the transformer's silent output is not, and serves as a
    hand-crafted baseline in the comparison experiments. *)

type state = int
(** Counter value in [0..K-1]. *)

type input = { index : int; n : int; k : int }
(** Position on the ring, ring size, counter modulus. *)

val algo : (state, input) Ss_sim.Algorithm.t
(** The atomic-state algorithm.  Nodes must be arranged on
    {!Ss_graph.Builders.cycle} (port 1 = predecessor). *)

val inputs : n:int -> ?k:int -> unit -> int -> input
(** Inputs for an [n]-ring; [k] defaults to [n + 1].
    @raise Invalid_argument if [k < n]. *)

val privileged : (state, input) Ss_sim.Config.t -> int list
(** Machines currently holding a privilege (= enabled nodes). *)

val legitimate : (state, input) Ss_sim.Config.t -> bool
(** Exactly one privilege. *)

val run_to_legitimacy :
  Ss_sim.Daemon.t ->
  (state, input) Ss_sim.Config.t ->
  (int * int * (state, input) Ss_sim.Config.t) option
(** Drive the system until the first legitimate configuration; returns
    [(steps, moves, config)] or [None] after 1,000,000 steps.  (The
    algorithm never terminates, so {!Ss_sim.Engine.run} alone would
    not stop.) *)

val closure_holds :
  ?steps:int ->
  Ss_sim.Daemon.t ->
  (state, input) Ss_sim.Config.t ->
  bool
(** From a legitimate configuration, every configuration along
    [steps] further steps (default 200) remains legitimate — the
    closure half of self-stabilization. *)
