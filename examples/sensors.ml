(* A sensor field that keeps healing itself.

   Scenario: 40 sensors with random connectivity elect a coordinator
   (the minimum id) and build a BFS tree towards it for data
   collection — the composed Leader_bfs synchronous algorithm, made
   self-stabilizing by the transformer.  We then simulate life in the
   field: three successive bursts of memory corruption (cosmic rays,
   reboots, whatever), each followed by asynchronous re-convergence.
   After every burst we report recovery time, total work, and the §6
   message bill under both encodings.

   Run with: dune exec examples/sensors.exe *)

module G = Ss_graph
module Sim = Ss_sim
module Core = Ss_core
module Trans = Ss_core.Registry.Trans
module Lbfs = Ss_algos.Leader_bfs
module Leader = Ss_algos.Leader_election
module Energy = Ss_energy.Energy
module P = Ss_core.Predicates

let () =
  let rng = Ss_prelude.Rng.create 31337 in
  let n = 40 in
  let graph = G.Builders.random_connected rng ~n ~extra_edges:(n / 2) in
  let ids = Leader.random_ids rng graph in
  let inputs = Lbfs.inputs ~ids graph in
  Printf.printf "sensor field: %d nodes, %d links, diameter %d\n" n
    (G.Graph.m graph)
    (G.Properties.diameter graph);

  let params = Trans.params ~bound:(P.Finite 24) Lbfs.algo in
  let history = Ss_sync.Sync_runner.run Lbfs.algo graph ~inputs in
  Printf.printf "synchronous leader+BFS terminates in T = %d rounds\n\n"
    history.Ss_sync.Sync_runner.t;

  let config = ref (Trans.clean_config params graph ~inputs) in
  for burst = 1 to 3 do
    (* Fault burst: 60% of the sensors are hit. *)
    config := Trans.corrupt rng ~p:0.6 ~max_height:20 params !config;
    Printf.printf "burst %d: %d sensors in error status, max cliff %d\n" burst
      (Core.Checker.error_count !config)
      (Core.Checker.max_cliff !config);

    let daemon = Sim.Daemon.distributed_random rng ~p:0.35 in
    let meter, cost = Energy.sink params graph in
    let stats = Trans.run ~sinks:[ meter ] params daemon !config in
    let cost = cost stats in
    config := stats.Sim.Engine.final;

    let outputs = Trans.outputs !config in
    let ok = Lbfs.spec_holds graph ~inputs ~final:outputs in
    Printf.printf
      "  re-converged: %d moves, %d rounds; coordinator %d, tree valid: %b\n"
      stats.Sim.Engine.moves stats.Sim.Engine.rounds outputs.(0).Lbfs.ldr ok;
    Printf.printf
      "  message bill: %d msgs; %d bits full-state vs %d bits delta (%.1fx \
       saved)\n"
      cost.Energy.messages cost.Energy.bits_full_state cost.Energy.bits_delta
      (float_of_int cost.Energy.bits_full_state
      /. float_of_int (max 1 cost.Energy.bits_delta));
    (match
       Core.Checker.legitimate_terminal params history !config
     with
    | Ok () -> print_endline "  state is legitimate and silent again."
    | Error e -> Printf.printf "  UNEXPECTED: %s\n" e);
    print_newline ()
  done;
  print_endline
    "the field survived three fault bursts with zero operator intervention."
