(** The campaign layer's single source of truth: which transformers,
    workload algorithms and graph families exist.

    Loading this module registers the out-of-core transformers
    ([Ss_rollback], [Ss_adaptive]) into {!Ss_core.Registry} — the §3
    system registers itself there.  [fasst list], [fasst run],
    [fasst transformers], the sim grid and the bench archives all
    enumerate through this module, so nothing downstream keeps a
    hand-maintained string list. *)

val transformers : unit -> Ss_core.Registry.entry list
(** All registered transformers, in registration order
    ([trans; rollback; adaptive]). *)

val transformer_names : unit -> string list

val find_transformer : string -> Ss_core.Registry.entry
(** @raise Failure with the known names on an unknown name. *)

type algo_inst =
  | Inst : {
      sync : ('s, 'i) Ss_sync.Sync_algo.t;
      inputs : int -> 'i;
      spec : 's array -> bool;
          (** Output specification over the final simulated states. *)
      codec : 's Ss_core.Cellpack.codec option;
          (** Packed-arena layout, when one exists. *)
    }
      -> algo_inst
(** One workload algorithm instantiated on one graph.  The existential
    keeps per-algorithm state/input types out of campaign plumbing;
    unpack it where the types are needed. *)

type algo = {
  algo_name : string;  (** CLI name ([fasst run -a], [fasst list]). *)
  algo_doc : string;
  ring_only : bool;
      (** Requires a ring ({!is_ring}); {!validate_topology} rejects
          anything else. *)
  in_sim_grid : bool;
      (** Member of the default chaos-mode sim grid
          ({!Sim_expt.algo_names}). *)
  instantiate : Ss_prelude.Rng.t -> Ss_graph.Graph.t -> algo_inst;
      (** Draw inputs (ids, weights) from the given stream. *)
}

val algorithms : algo list
(** Every workload, in rendering order. *)

val algo_names : unit -> string list

val sim_algo_names : unit -> string list
(** The [in_sim_grid] subset. *)

val find_algo : string -> algo
(** @raise Failure with the known names on an unknown name. *)

val is_ring : Ss_graph.Graph.t -> bool
(** [n = m] and every degree is 2 (the builders only make connected
    graphs, so this characterizes the cycle). *)

val validate_topology : algo -> Ss_graph.Graph.t -> (unit, string) result
(** [Error] when a ring-only algorithm meets a non-ring graph. *)

val topology_syntax : unit -> string list
(** One [family:ARGS] usage string per graph family, for help texts
    and [fasst list]. *)

val check_topology : string -> (unit, string) result
(** [Ok ()] when a CLI topology spec names a known family and its
    arguments are integers of the family's shape ([ring:N],
    [torus:RxC]); [Error] with a message otherwise.  Builds nothing
    and draws nothing: a builder may still reject out-of-range sizes. *)

val parse_topology : Ss_prelude.Rng.t -> string -> Ss_graph.Graph.t
(** Parse a CLI topology spec ([ring:16], [torus:4x6], [gk:3], …).
    The rng feeds the random families.
    @raise Failure on an unknown family or malformed dimensions
    (the {!check_topology} message). *)
