module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Sync_runner = Ss_sync.Sync_runner
module Registry = Ss_core.Registry
module Transformer = Registry.Trans
module Checker = Ss_core.Checker
module Rng = Ss_prelude.Rng

type ('s, 'i) scenario = {
  params : ('s, 'i) Transformer.params;
  graph : Ss_graph.Graph.t;
  inputs : int -> 'i;
}

type 's report = {
  moves : int;
  steps : int;
  rounds : int;
  terminated : bool;
  outcome : Ss_report.Budget.outcome;
  recovery_moves : int;
  recovery_rounds : int;
  space_bits : int;
  moves_per_rule : (string * int) list;
  legitimate : bool;
  outputs : 's array;
}

let history ?rounds sc =
  Sync_runner.run ?stop_after:rounds sc.params.Transformer.sync sc.graph
    ~inputs:sc.inputs

let clean_start ?codec sc =
  match (codec, sc.params.Transformer.bound) with
  | Some codec, Ss_core.Predicates.Finite _ ->
      Transformer.packed_config sc.params ~codec sc.graph ~inputs:sc.inputs
  | _ -> Transformer.clean_config sc.params sc.graph ~inputs:sc.inputs

let corrupted_start rng ?p ?codec ~max_height sc =
  Transformer.corrupt rng ?p ~max_height sc.params (clean_start ?codec sc)

(* Above this population the per-step root scan of recovery tracking
   (O(n·deg) per step) dominates the run itself; big-n campaigns track
   totals only unless the caller insists. *)
let track_recovery_threshold = 65_536

(* The recovery sink: the phase ends at the first configuration
   without a root.  Roots cannot be created (paper §4), so once none
   remains the recovery phase is over for good.  No sink at all when
   tracking is off, so an untracked run is the bare engine loop. *)
let recovery_sink ?track_recovery params start =
  let track_recovery =
    match track_recovery with
    | Some b -> b
    | None -> Config.n start < track_recovery_threshold
  in
  let recovery_moves = ref (-1) in
  let recovery_rounds = ref (-1) in
  let moves_so_far = ref 0 in
  let sink ~step:_ ~rounds ~moved config =
    moves_so_far := !moves_so_far + List.length moved;
    if !recovery_moves < 0 && not (Checker.has_root params config) then begin
      recovery_moves := !moves_so_far;
      recovery_rounds := rounds
    end
  in
  ( (if track_recovery then [ sink ] else []),
    fun () -> (!recovery_moves, !recovery_rounds) )

let run ?track_recovery ?budget ?(sharded = false) sc ~daemon ~start =
  let sinks, recovery = recovery_sink ?track_recovery sc.params start in
  let r =
    Transformer.measure ?budget ~sharded ~sinks sc.params ~daemon ~start
  in
  let recovery_moves, recovery_rounds = recovery () in
  {
    moves = r.Registry.moves;
    steps = r.Registry.steps;
    rounds = r.Registry.rounds;
    terminated = r.Registry.terminated;
    outcome = r.Registry.outcome;
    recovery_moves;
    recovery_rounds;
    space_bits = r.Registry.space_bits;
    moves_per_rule = r.Registry.moves_per_rule;
    legitimate = r.Registry.legitimate;
    outputs = r.Registry.outputs;
  }

let daemon_portfolio rng =
  [
    ("synchronous", Daemon.synchronous);
    ("async-dense", Daemon.distributed_random (Rng.split rng) ~p:0.75);
    ("async-medium", Daemon.distributed_random (Rng.split rng) ~p:0.5);
    ("async-sparse", Daemon.distributed_random (Rng.split rng) ~p:0.15);
    ("central-random", Daemon.central_random (Rng.split rng));
    ("central-min", Daemon.central_min);
    ("round-robin", Daemon.round_robin ());
  ]
