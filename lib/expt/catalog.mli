(** The campaign layer's single source of truth: which transformers,
    workload algorithms and graph families exist, and how a workload
    instance is built.

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

val instantiate : string -> Ss_prelude.Rng.t -> Ss_graph.Graph.t -> algo_inst
(** [instantiate name] is [(find_algo name).instantiate].
    @raise Failure on an unknown name. *)

(** {1 Workload instances} *)

type bound =
  | Fixed of Ss_core.Predicates.bound
      (** Given up front; a finite [B] cuts the ground truth at [B]
          rounds ({!Ss_sync.Sync_runner.run}'s [stop_after]). *)
  | Of_t of (int -> int)
      (** [B = f T], from the full ground truth's measured time [T]. *)

type policy = { mode : Ss_core.Predicates.mode; bound : bound }
(** How an instance's transformer parameters follow from its
    synchronous execution. *)

val lazy_infinite : policy
(** Lazy mode, [B = ∞]. *)

val greedy_t : policy
(** Greedy mode, [B = max 1 T]: the uniform policy of the transformer
    and sim grids. *)

type instance =
  | Instance : {
      sc : ('s, 'i) Ss_verify.Stabilization.scenario;
          (** The transformer parameters, graph and inputs. *)
      spec : 's array -> bool;
      hist : ('s, 'i) Ss_sync.Sync_runner.history;
          (** The synchronous ground truth, run once; every run of the
              instance checks its terminal configuration against it. *)
      codec : 's Ss_core.Cellpack.codec option;
    }
      -> instance
(** One algorithm instantiated on one graph under a {!policy}: the
    unit every experiment section and [fasst run] measure.  A
    corrupted start is
    [Ss_verify.Stabilization.corrupted_start rng ~max_height sc]. *)

val instance : policy -> algo_inst -> Ss_graph.Graph.t -> instance
(** [instance policy inst g]: run the synchronous ground truth of
    [inst] on [g] once and set the mode and bound from [policy].  The
    clock, Cole–Vishkin and locality rows pass a literal {!Inst}. *)

val max_height : instance -> int
(** The corruption ceiling of the experiment sections: [B] under a
    finite bound, [T + 4] under [B = ∞]. *)

val is_ring : Ss_graph.Graph.t -> bool
(** [n = m] and every degree is 2 (the builders only make connected
    graphs, so this characterizes the cycle). *)

val validate_topology : algo -> Ss_graph.Graph.t -> (unit, string) result
(** [Error] when a ring-only algorithm meets a non-ring graph. *)

val topology_syntax : unit -> string list
(** One [family:ARGS] usage string per graph family, for help texts
    and [fasst list]. *)

val check_topology : string -> (unit, string) result
(** [Ok ()] when a CLI topology spec names a known family, its
    arguments are integers of the family's shape ([ring:N],
    [torus:RxC]), and each is at least the family's minimum (the
    smallest size its builder accepts: [ring:3], [torus:3x3],
    [random4:8], ...); [Error] with a message otherwise.  Builds
    nothing and draws nothing. *)

val parse_topology : Ss_prelude.Rng.t -> string -> Ss_graph.Graph.t
(** Parse a CLI topology spec ([ring:16], [torus:4x6], [gk:3], …).
    The rng feeds the random families.
    @raise Failure on an unknown family, malformed dimensions or a
    size below the family's minimum (the {!check_topology} message). *)
