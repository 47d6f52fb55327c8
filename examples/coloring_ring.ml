(* Self-stabilizing Cole–Vishkin 3-coloring of an oriented ring
   (paper §5.3).

   A token ring of 48 stations needs a 3-coloring for TDMA slot
   assignment.  The synchronous Cole–Vishkin algorithm colors it in
   Θ(log* n) rounds; fed to the transformer in GREEDY mode with
   B = T = schedule_length, the self-stabilizing version converges in
   O(B) = O(log* n) rounds — sublinear in the ring's diameter, the
   regime where greedy mode shines.

   Run with: dune exec examples/coloring_ring.exe *)

module G = Ss_graph
module Sim = Ss_sim
module Trans = Ss_core.Registry.Trans
module Cv = Ss_algos.Cole_vishkin
module P = Ss_core.Predicates

let n = 48
let width = 12 (* 12-bit station identifiers *)

let () =
  let rng = Ss_prelude.Rng.create 99 in
  let graph = G.Builders.cycle n in
  let ids = Cv.random_ring_ids rng ~n ~width in
  let inputs = Cv.inputs ~ids ~width graph in

  let t = Cv.schedule_length width in
  Printf.printf
    "ring of %d stations, %d-bit ids: synchronous schedule T = %d rounds \
     (log* of the id space, plus shift-down)\n"
    n width t;

  (* Greedy mode with B = T: simulate exactly T rounds, eagerly. *)
  let params = Trans.params ~mode:P.Greedy ~bound:(P.Finite t) Cv.algo in
  let start =
    Trans.corrupt rng ~max_height:t params
      (Trans.clean_config params graph ~inputs)
  in
  let stats =
    Trans.run params (Sim.Daemon.distributed_random rng ~p:0.6) start
  in
  Printf.printf
    "converged in %d rounds (ring diameter is %d — note rounds << D) and %d \
     moves\n"
    stats.Sim.Engine.rounds
    (G.Properties.diameter graph)
    stats.Sim.Engine.moves;

  let final = Trans.outputs stats.Sim.Engine.final in
  print_string "colors: ";
  Array.iter (fun s -> print_string (string_of_int s.Cv.color)) final;
  print_newline ();
  Printf.printf "proper 3-coloring: %b\n" (Cv.spec_holds graph ~final);

  (* Show the slot assignment quality: class sizes. *)
  let count c =
    Array.fold_left (fun acc s -> if s.Cv.color = c then acc + 1 else acc) 0 final
  in
  Printf.printf "slot classes: 0 -> %d stations, 1 -> %d, 2 -> %d\n" (count 0)
    (count 1) (count 2)
