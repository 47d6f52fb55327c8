module Daemon = Ss_sim.Daemon
module Sync_runner = Ss_sync.Sync_runner
module Registry = Ss_core.Registry
module Transformer = Registry.Trans
module Rng = Ss_prelude.Rng

type ('s, 'i) scenario = {
  params : ('s, 'i) Transformer.params;
  graph : Ss_graph.Graph.t;
  inputs : int -> 'i;
}

type 's report = 's Registry.summary = {
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

let history ?rounds sc =
  Sync_runner.run ?stop_after:rounds sc.params.Transformer.sync sc.graph
    ~inputs:sc.inputs

let clean_start ?codec sc =
  Transformer.start_config ?codec sc.params sc.graph ~inputs:sc.inputs

let corrupted_start rng ?p ?codec ~max_height sc =
  Transformer.corrupt rng ?p ~max_height sc.params (clean_start ?codec sc)

let run ?track_recovery ?budget ?sharded ?hist sc =
  Transformer.measure ?track_recovery ?budget ?sharded ?hist sc.params

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
