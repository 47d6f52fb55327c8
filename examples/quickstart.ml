(* Quickstart: make a synchronous algorithm self-stabilizing in five
   lines.

   We take the classic synchronous leader election (flood the minimum
   identifier, §5.1 of the paper), feed it to the transformer in lazy
   mode, smash the configuration with transient faults, and let an
   unfair asynchronous daemon run the network: the system converges to
   a legitimate configuration electing the right leader, silently.

   Run with: dune exec examples/quickstart.exe *)

module G = Ss_graph
module Sim = Ss_sim
module Core = Ss_core
module Trans = Ss_core.Registry.Trans
module Leader = Ss_algos.Leader_election

let () =
  let rng = Ss_prelude.Rng.create 2024 in

  (* 1. A network: a ring of 10 nodes with random unique identifiers. *)
  let graph = G.Builders.cycle 10 in
  let inputs = Leader.random_ids rng graph in
  Printf.printf "network: ring of %d nodes, ids:" (G.Graph.n graph);
  G.Graph.iter_nodes graph (fun p -> Printf.printf " %d" (inputs p));
  print_newline ();

  (* 2. The transformer: lazy mode, no bound needed (B = +inf). *)
  let params = Trans.params Leader.algo in

  (* 3. Transient faults: every node's simulation state is scrambled. *)
  let start =
    Trans.corrupt rng ~max_height:12 params
      (Trans.clean_config params graph ~inputs)
  in
  Printf.printf "faults injected: heights %s, %d node(s) in error status\n"
    (String.concat ","
       (Array.to_list
          (Array.map string_of_int (Core.Checker.heights start))))
    (Core.Checker.error_count start);

  (* 4. A fully asynchronous adversary: random nonempty subsets. *)
  let daemon = Sim.Daemon.distributed_random rng ~p:0.4 in
  let stats = Trans.run params daemon start in

  (* 5. The verdict. *)
  Printf.printf "converged in %d moves / %d rounds (%d steps)\n"
    stats.Sim.Engine.moves stats.Sim.Engine.rounds stats.Sim.Engine.steps;
  List.iter
    (fun (rule, count) -> Printf.printf "  rule %s fired %d times\n" rule count)
    stats.Sim.Engine.moves_per_rule;
  let outputs = Trans.outputs stats.Sim.Engine.final in
  let elected = outputs.(0) in
  Printf.printf "every node designates leader %d: %b\n" elected
    (Leader.spec_holds graph ~inputs ~final:outputs);
  let history = Ss_sync.Sync_runner.run Leader.algo graph ~inputs in
  match Core.Checker.legitimate_terminal params history stats.Sim.Engine.final with
  | Ok () -> print_endline "terminal configuration is legitimate and silent."
  | Error e -> Printf.printf "UNEXPECTED: %s\n" e
