(* "The LOCAL model becomes a tool to provide upper bounds" (§8).

   Implication (1) of the paper (§1.3): every problem solvable in the
   LOCAL model admits a fully-polynomial fully asynchronous silent
   self-stabilizing solution — because a radius-r LOCAL algorithm is
   just a function of each node's radius-r view, and view collection
   is a terminating synchronous algorithm the transformer can harden.

   This example runs the generic pipeline on a small data-center-ish
   topology: collect radius-r views, then answer three different LOCAL
   queries from the SAME converged state — no per-problem protocol
   design, no per-problem proof:

     1. the minimum identifier within distance r (local leader),
     2. the number of walks of length <= r around each node (a local
        density estimate),
     3. whether the node's id is a local minimum among its r-ball.

   Run with: dune exec examples/local_model.exe *)

module G = Ss_graph
module Sim = Ss_sim
module Trans = Ss_core.Registry.Trans
module Lv = Ss_algos.Local_views
module Util = Ss_prelude.Util

let () =
  let rng = Ss_prelude.Rng.create 4242 in
  let graph = G.Builders.grid ~rows:3 ~cols:5 in
  let ids = Ss_algos.Leader_election.random_ids rng graph in
  let radius = 3 in

  let views =
    Lv.algo ~equal:Int.equal
      ~input_bits:(fun v -> 1 + Util.bit_width (abs v))
      ~random_input:(fun rng -> Ss_prelude.Rng.int rng 512)
      ~pp:Format.pp_print_int
  in
  let inputs p = { Lv.self_input = ids p; radius } in
  let params = Trans.params views in

  Printf.printf "3x5 grid, radius-%d view collection (T = %d rounds)\n" radius
    radius;

  (* Corrupt every node's collected views, then self-stabilize. *)
  let start =
    Trans.corrupt rng ~max_height:(radius + 3) params
      (Trans.clean_config params graph ~inputs)
  in
  let stats =
    Trans.run params (Sim.Daemon.distributed_random rng ~p:0.5) start
  in
  Printf.printf "converged in %d moves / %d rounds\n\n" stats.Sim.Engine.moves
    stats.Sim.Engine.rounds;

  let final = Trans.outputs stats.Sim.Engine.final in
  Printf.printf "%-6s %-6s %-12s %-12s %-10s\n" "node" "id" "min-in-ball"
    "ball-walks" "local-min?";
  G.Graph.iter_nodes graph (fun p ->
      let view = final.(p) in
      let local_leader = Lv.min_in_ball view Fun.id in
      let walks = Lv.tree_size view in
      Printf.printf "%-6d %-6d %-12d %-12d %-10b\n" p (ids p) local_leader walks
        (local_leader = ids p));

  (* Sanity: the collected views are exactly the graph unfolding. *)
  let all_exact =
    G.Graph.fold_nodes graph ~init:true ~f:(fun acc p ->
        acc
        && Lv.equal_tree Int.equal final.(p)
             (Lv.expected_view graph ~inputs:ids ~radius p))
  in
  Printf.printf "\nviews match the direct graph unfolding: %b\n" all_exact;
  print_endline
    "one converged state, three LOCAL queries answered — and the next fault\n\
     burst would be absorbed the same way."
