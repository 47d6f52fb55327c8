module Config = Ss_sim.Config
module Engine = Ss_sim.Engine
module Graph = Ss_graph.Graph
module Sync_runner = Ss_sync.Sync_runner
module Rng = Ss_prelude.Rng
module P = Predicates

module type TRANSFORMER = sig
  val name : string
  val doc : string

  type 's state

  val supports : ('s, 'i) P.params -> (unit, string) result
  val algorithm : ('s, 'i) P.params -> ('s state, 'i) Ss_sim.Algorithm.t

  val reference_algorithm :
    ('s, 'i) P.params -> ('s state, 'i) Ss_sim.Algorithm.t

  val clean_config :
    ('s, 'i) P.params ->
    Graph.t ->
    inputs:(int -> 'i) ->
    ('s state, 'i) Config.t

  val packed_start :
    (('s, 'i) P.params ->
    codec:'s Cellpack.codec ->
    Graph.t ->
    inputs:(int -> 'i) ->
    ('s state, 'i) Config.t)
    option

  val corrupt_state :
    Rng.t -> max_height:int -> ('s, 'i) P.params -> 'i -> 's state -> 's state

  val outputs : ('s state, 'i) Config.t -> 's array
  val space_bits : ('s, 'i) P.params -> ('s state, 'i) Config.t -> int
  val move_bits : ('s, 'i) P.params -> rule:string -> 's state -> int

  val legitimate_terminal :
    ('s, 'i) P.params ->
    ('s, 'i) Sync_runner.history ->
    ('s state, 'i) Config.t ->
    (unit, string) result

  val has_root : (('s, 'i) P.params -> ('s state, 'i) Config.t -> bool) option
end

type entry = (module TRANSFORMER)

(* Registration order is rendering order; an assoc list keeps it. *)
let table : (string * entry) list ref = ref []

let name (module T : TRANSFORMER) = T.name
let doc (module T : TRANSFORMER) = T.doc
let supports (module T : TRANSFORMER) params = T.supports params
let packs (module T : TRANSFORMER) = Option.is_some T.packed_start
let tracks_recovery (module T : TRANSFORMER) = Option.is_some T.has_root

let register entry =
  let n = name entry in
  if List.mem_assoc n !table then
    invalid_arg ("Registry.register: duplicate transformer: " ^ n);
  table := !table @ [ (n, entry) ]

let find n = List.assoc_opt n !table
let all () = List.map snd !table

let find_exn n =
  match find n with
  | Some e -> e
  | None ->
      failwith
        (Printf.sprintf "unknown transformer: %s (known: %s)" n
           (String.concat ", " (List.map fst !table)))

(* ------------------------------------------------------------------ *)
(* Generic runs                                                         *)
(* ------------------------------------------------------------------ *)

type 's summary = {
  moves : int;
  steps : int;
  rounds : int;
  terminated : bool;
  outcome : Ss_report.Budget.outcome;
  recovery_moves : int;
  recovery_rounds : int;
  legitimate : bool;
  space_bits : int;
  moves_per_rule : (string * int) list;
  outputs : 's array;
}

module type RUN = sig
  type 's state

  val run :
    ?budget:Ss_report.Budget.t ->
    ?now:(unit -> float) ->
    ?chaos:('s state, 'i) Engine.chaos ->
    ?self_check:bool ->
    ?sharded:bool ->
    ?sinks:('s state, 'i) Engine.observer list ->
    ('s, 'i) P.params ->
    Ss_sim.Daemon.t ->
    ('s state, 'i) Config.t ->
    ('s state, 'i) Engine.stats

  val run_naive :
    ?budget:Ss_report.Budget.t ->
    ?now:(unit -> float) ->
    ?sinks:('s state, 'i) Engine.observer list ->
    ('s, 'i) P.params ->
    Ss_sim.Daemon.t ->
    ('s state, 'i) Config.t ->
    ('s state, 'i) Engine.stats

  val start_config :
    ?codec:'s Cellpack.codec ->
    ('s, 'i) P.params ->
    Graph.t ->
    inputs:(int -> 'i) ->
    ('s state, 'i) Config.t

  val measure :
    ?budget:Ss_report.Budget.t ->
    ?sharded:bool ->
    ?track_recovery:bool ->
    ?sinks:('s state, 'i) Engine.observer list ->
    ?hist:('s, 'i) Sync_runner.history ->
    ('s, 'i) P.params ->
    daemon:Ss_sim.Daemon.t ->
    start:('s state, 'i) Config.t ->
    's summary
end

(* Above this population the per-step root scan of recovery tracking
   (O(n·deg) per step) dominates the run itself; big-n runs track
   totals only unless the caller insists. *)
let track_recovery_threshold = 65_536

module Make (T : TRANSFORMER) = struct
  let run ?budget ?now ?chaos ?(self_check = false) ?(sharded = false)
      ?(sinks = []) p daemon config =
    let algo = T.algorithm p in
    let sinks =
      if not self_check then sinks
      else
        (* The production predicates (caches included) are validated the
           way the dirty-set scheduler is: a sink re-derives the enabled
           set with the reference twin and compares. *)
        sinks
        @ [
            Engine.divergence_sink
              ~checked:("cached", Config.enabled_nodes algo)
              ~reference:
                ("uncached", Config.enabled_nodes (T.reference_algorithm p));
          ]
    in
    Engine.run ?budget ?now ?chaos ~self_check ~sharded ~sinks algo daemon
      config

  let run_naive ?budget ?now ?sinks p daemon config =
    Engine.run_naive ?budget ?now ?sinks (T.reference_algorithm p) daemon
      config

  let start_config ?codec p g ~inputs =
    match (codec, p.P.bound, T.packed_start) with
    | Some codec, P.Finite _, Some packed -> packed p ~codec g ~inputs
    | _ -> T.clean_config p g ~inputs

  let measure ?budget ?sharded ?track_recovery ?(sinks = []) ?hist p ~daemon
      ~start =
    (* Recovery ends at the first root-free configuration, for good:
       the hook's transformer never creates a root (§4).  No sink when
       tracking is off, so an untracked run is the bare engine loop. *)
    let recovery_moves = ref (-1) and recovery_rounds = ref (-1) in
    let sinks =
      match T.has_root with
      | Some has_root
        when Option.value track_recovery
               ~default:(Config.n start < track_recovery_threshold) ->
          let moves = ref 0 in
          sinks
          @ [
              (fun ~step:_ ~rounds ~moved config ->
                moves := !moves + List.length moved;
                if !recovery_moves < 0 && not (has_root p config) then begin
                  recovery_moves := !moves;
                  recovery_rounds := rounds
                end);
            ]
      | _ -> sinks
    in
    let stats = run ?budget ?sharded ~sinks p daemon start in
    (* Under a finite bound only rounds 0..B of the ground truth are
       ever consulted (heights never exceed B), so the history can be
       cut there — O(B·n) memory instead of O(T·n) at n = 10^6. *)
    let hist =
      match hist with
      | Some h -> h
      | None ->
          let stop_after =
            match p.P.bound with P.Finite b -> Some b | P.Infinite -> None
          in
          Sync_runner.run ?stop_after p.P.sync start.Config.graph
            ~inputs:(Config.input start)
    in
    let final = stats.Engine.final in
    {
      moves = stats.Engine.moves;
      steps = stats.Engine.steps;
      rounds = stats.Engine.rounds;
      terminated = stats.Engine.terminated;
      outcome = stats.Engine.outcome;
      recovery_moves = !recovery_moves;
      recovery_rounds = !recovery_rounds;
      legitimate =
        stats.Engine.terminated && T.legitimate_terminal p hist final = Ok ();
      space_bits = T.space_bits p final;
      moves_per_rule = stats.Engine.moves_per_rule;
      outputs = T.outputs final;
    }
end

(* ------------------------------------------------------------------ *)
(* The §3 transformer                                                   *)
(* ------------------------------------------------------------------ *)

module Trans_hooks = struct
  include Transformer

  let name = "trans"

  let doc =
    "paper §3 Trans(AlgI): error broadcast (RR), DAG truncation (RP), \
     feedback (RC), simulation (RU)"

  type 's state = 's Trans_state.t

  let supports _ = Ok ()
  let reference_algorithm = algorithm_uncached
  let space_bits = Checker.space_bits

  (* §6's delta encoding of a move, priced by {!Transformer}'s one
     definition — the transformer grid and Ss_energy's cost model both
     read it. *)
  let move_bits p ~rule st =
    if rule = ru then ru_delta_bits p (Trans_state.top st)
    else if rule = rp then rp_delta_bits p
    else label_bits

  let legitimate_terminal = Checker.legitimate_terminal
  let packed_start = Some packed_config
  let has_root = Some Checker.has_root
end

module Trans = struct
  include Trans_hooks
  include Make (Trans_hooks)
end

let () = register (module Trans)

(* ------------------------------------------------------------------ *)
(* First-class measured runs                                            *)
(* ------------------------------------------------------------------ *)

let measure (type s i) (entry : entry) ?budget ?p ?hist ?codec ?sharded ~rng
    ~daemon ~max_height (params : (s, i) P.params) graph ~inputs =
  let module T = (val entry) in
  let module R = Make (T) in
  (match T.supports params with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Registry.measure: %s: %s" T.name e));
  let start =
    Ss_sim.Fault.corrupt rng ?p
      (fun rng input st -> T.corrupt_state rng ~max_height params input st)
      (R.start_config ?codec params graph ~inputs)
  in
  let energy = ref 0 in
  let energy_sink ~step:_ ~rounds:_ ~moved after =
    List.iter
      (fun (v, rule) ->
        energy :=
          !energy
          + Graph.degree graph v
            * T.move_bits params ~rule (Config.state after v))
      moved
  in
  let summary =
    R.measure ?budget ?sharded ~sinks:[ energy_sink ] ?hist params ~daemon
      ~start
  in
  (summary, !energy)
