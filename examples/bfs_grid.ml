(* Self-stabilizing BFS spanning tree on a mesh (paper §5.2).

   A 5x7 grid models a switch fabric rooted at its top-left corner.
   The synchronous BFS construction terminates in ecc(root) rounds;
   the transformer makes it tolerate arbitrary corruption of the
   routing state.  We corrupt everything, converge under a sequential
   unfair daemon, print the distance field and parent directions, and
   emit the tree in DOT for visual inspection.

   Run with: dune exec examples/bfs_grid.exe *)

module G = Ss_graph
module Sim = Ss_sim
module Trans = Ss_core.Registry.Trans
module Bfs = Ss_algos.Bfs_tree

let rows = 5
let cols = 7
let root = 0

let () =
  let rng = Ss_prelude.Rng.create 7 in
  let graph = G.Builders.grid ~rows ~cols in
  let inputs = Bfs.inputs graph ~root in
  let params = Trans.params Bfs.algo in

  let start =
    Trans.corrupt rng ~max_height:15 params
      (Trans.clean_config params graph ~inputs)
  in
  (* central-min is deterministic and unfair: it starves high-id nodes
     whenever it can — the transformer does not care. *)
  let stats = Trans.run params Sim.Daemon.central_min start in
  Printf.printf "%dx%d grid, root %d: converged in %d moves / %d rounds\n\n"
    rows cols root stats.Sim.Engine.moves stats.Sim.Engine.rounds;

  let final = Trans.outputs stats.Sim.Engine.final in
  let dist = G.Properties.bfs_distances graph root in

  (* Parent direction arrows, row by row. *)
  let arrow p =
    if p = root then " * "
    else
      match Bfs.parent_node graph p final.(p) with
      | None -> " ? "
      | Some q ->
          if q = p - 1 then " <-"
          else if q = p + 1 then " ->"
          else if q < p then " ^ "
          else " v "
  in
  print_endline "parent directions (* = root):";
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      print_string (arrow ((r * cols) + c))
    done;
    print_newline ()
  done;
  print_newline ();
  print_endline "hop distances:";
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      Printf.printf "%3d" dist.((r * cols) + c)
    done;
    print_newline ()
  done;
  print_newline ();

  Printf.printf "BFS specification holds: %b\n"
    (Bfs.spec_holds graph ~root ~final);

  (* DOT export: tree edges solid, mesh edges dashed. *)
  let parent p = Bfs.parent_node graph p final.(p) in
  let dot = G.Dot.of_tree graph ~parent ~name:"bfs_grid" in
  let oc = open_out "bfs_grid.dot" in
  output_string oc dot;
  close_out oc;
  print_endline "tree written to bfs_grid.dot (render with: dot -Tpng)"
