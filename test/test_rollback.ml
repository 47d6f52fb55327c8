(* Tests for the rollback-compiler baseline and the §7 exponential
   blow-up construction (Figure 1 + the Γ_k schedule). *)

module Graph = Ss_graph.Graph
module Builders = Ss_graph.Builders
module Gk = Ss_graph.Gk
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Sync_runner = Ss_sync.Sync_runner
module Min_flood = Ss_algos.Min_flood
module Leader = Ss_algos.Leader_election
module Rollback = Ss_rollback.Rollback
module Blowup = Ss_rollback.Blowup
module Rng = Ss_prelude.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The shared corruption loop with the compiler's own fault model. *)
let corrupt rng sync ~bound config =
  let params =
    Ss_core.Registry.Trans.params ~bound:(Ss_core.Predicates.Finite bound) sync
  in
  Ss_sim.Fault.corrupt rng
    (fun rng input st ->
      Rollback.Entry.corrupt_state rng ~max_height:bound params input st)
    config

(* ------------------------------------------------------------------ *)
(* Rollback compiler basics                                             *)
(* ------------------------------------------------------------------ *)

let test_state_accessors () =
  let st = { Rollback.init = 5; cells = [| 4; 3 |] } in
  check_int "height" 2 (Rollback.height st);
  check_int "cell 0" 5 (Rollback.cell st 0);
  check_int "cell 2" 3 (Rollback.cell st 2);
  check "out of range" true
    (try
       ignore (Rollback.cell st 3);
       false
     with Invalid_argument _ -> true)

let test_bound_validated () =
  check "bound >= 1 required" true
    (try
       ignore (Rollback.algorithm Min_flood.algo ~bound:0);
       false
     with Invalid_argument _ -> true)

let test_clean_run_simulates () =
  let g = Builders.path 4 in
  let inputs p = [| 9; 9; 2; 9 |].(p) in
  let bound = 6 in
  let algo = Rollback.algorithm Min_flood.algo ~bound in
  let stats =
    Engine.run algo Daemon.synchronous
      (Rollback.clean_config Min_flood.algo ~bound g ~inputs)
  in
  check "terminated" true stats.Engine.terminated;
  let hist = Sync_runner.run Min_flood.algo g ~inputs in
  check "simulates history" true
    (Rollback.simulates_history Min_flood.algo hist stats.Engine.final)

let test_rollback_is_self_stabilizing () =
  (* Exponential in the worst case, but still correct: corrupted cells
     are repaired under any daemon. *)
  let rng = Rng.create 42 in
  for seed = 1 to 15 do
    let rng' = Rng.create seed in
    let n = 3 + Rng.int rng' 6 in
    let g = Builders.random_connected rng' ~n ~extra_edges:2 in
    let inputs = Leader.random_ids rng' g in
    let bound = n + 2 in
    let algo = Rollback.algorithm Leader.algo ~bound in
    let start =
      corrupt (Rng.split rng) Leader.algo ~bound
        (Rollback.clean_config Leader.algo ~bound g ~inputs)
    in
    let daemon =
      match seed mod 3 with
      | 0 -> Daemon.synchronous
      | 1 -> Daemon.distributed_random (Rng.split rng) ~p:0.5
      | _ -> Daemon.central_random (Rng.split rng)
    in
    let stats =
      Engine.run ~budget:(Ss_report.Budget.v ~steps:1_000_000 ()) algo daemon
        start
    in
    check "terminated" true stats.Engine.terminated;
    let hist = Sync_runner.run Leader.algo g ~inputs in
    check "repaired" true
      (Rollback.simulates_history Leader.algo hist stats.Engine.final)
  done

let test_corrupt_preserves_shape () =
  let g = Builders.cycle 5 in
  let bound = 4 in
  let clean = Rollback.clean_config Min_flood.algo ~bound g ~inputs:(fun p -> p) in
  let rng = Rng.create 3 in
  let c = corrupt rng Min_flood.algo ~bound clean in
  Graph.iter_nodes g (fun p ->
      let st = Config.state c p in
      check_int "init preserved" p st.Rollback.init;
      check_int "length fixed" bound (Rollback.height st))

let test_fix_is_one_move () =
  (* A single activation corrects every faulty cell at once. *)
  let g = Builders.path 2 in
  let bound = 3 in
  let inputs p = [| 4; 7 |].(p) in
  let algo = Rollback.algorithm Min_flood.algo ~bound in
  (* Node 0's list is garbage everywhere. *)
  let start =
    Rollback.config_of_cells g ~inputs ~init:inputs
      ~cells:(fun p _ -> if p = 0 then 99 else 7)
      ~bound
  in
  let after, moved = Engine.step algo start [ 0 ] in
  check_int "one move" 1 (List.length moved);
  let st = Config.state after 0 in
  (* Every cell is recomputed from the pre-step closed neighborhood. *)
  check_int "cell 1 fixed" 4 (Rollback.cell st 1);
  (* Cells 2 and 3 are recomputed from the PRE-step values (own stale
     99s vs the neighbor's 7s): min is 7, not yet 4 — the cascade takes
     further activations, which is exactly what Γ_k exploits. *)
  check_int "cell 2 from stale deps" 7 (Rollback.cell st 2);
  check_int "cell 3 from stale deps" 7 (Rollback.cell st 3)

(* ------------------------------------------------------------------ *)
(* The Γ_k schedule (§7)                                                *)
(* ------------------------------------------------------------------ *)

let test_gamma_length_formula () =
  for k = 1 to 8 do
    check_int
      (Printf.sprintf "closed form, k=%d" k)
      (Blowup.gamma_length k)
      (List.length (Blowup.gamma k))
  done

let test_gamma_more_than_doubles () =
  for k = 1 to 9 do
    check
      (Printf.sprintf "|Gamma_%d| > 2|Gamma_%d|" (k + 1) k)
      true
      (Blowup.gamma_length (k + 1) > 2 * Blowup.gamma_length k)
  done

let test_gamma_1_and_2 () =
  (* Γ_1 = a1; Γ_2 as written in §7. *)
  let nd role i = Gk.node ~k:2 role i in
  Alcotest.(check (list int)) "Gamma_1" [ nd Gk.A 1 ] (Blowup.gamma 1);
  Alcotest.(check (list int)) "Gamma_2"
    [
      nd Gk.A 1; nd Gk.B 2; nd Gk.C 1; nd Gk.D 1; nd Gk.E 1; nd Gk.A 1;
      nd Gk.A 2; nd Gk.B 2; nd Gk.C 1; nd Gk.D 1; nd Gk.E 1; nd Gk.A 1;
    ]
    (Blowup.gamma 2)

let test_initial_config_matches_figure_1 () =
  let k = 3 in
  let config = Blowup.initial_config ~k in
  let g = config.Config.graph in
  check_int "graph is G_3" 15 (Graph.n g);
  Graph.iter_nodes g (fun p ->
      let st = Config.state config p in
      let index = Gk.fig1_index ~k p in
      check_int "list length is B" (Blowup.bound_for k) (Rollback.height st);
      for i = 1 to Rollback.height st do
        check_int
          (Printf.sprintf "node %d cell %d" p i)
          (if i < index then 1 else 0)
          (Rollback.cell st i)
      done)

let test_gamma_is_a_legal_execution () =
  (* The engine validates every scripted activation; an exception here
     would falsify the §7 reproduction. *)
  for k = 1 to 6 do
    let r = Blowup.run ~k () in
    check (Printf.sprintf "k=%d stabilizes" k) true r.Blowup.stabilized;
    check_int
      (Printf.sprintf "k=%d schedule executed in full" k)
      (Blowup.gamma_length k)
      r.Blowup.schedule_moves;
    check
      (Printf.sprintf "k=%d total >= schedule" k)
      true
      (r.Blowup.total_moves >= r.Blowup.schedule_moves)
  done

let test_gamma_effect_raises_a_indices () =
  (* The net effect of Γ_k is to raise every a-node's index by one and
     leave every other node unchanged. *)
  let k = 3 in
  let config = Blowup.initial_config ~k in
  let algo = Rollback.algorithm Min_flood.algo ~bound:(Blowup.bound_for k) in
  let final =
    List.fold_left
      (fun c p -> fst (Engine.step algo c [ p ]))
      config (Blowup.gamma k)
  in
  let index_of st =
    let rec go i =
      if i > Rollback.height st then i
      else if Rollback.cell st i = 1 then go (i + 1)
      else i
    in
    go 1
  in
  Graph.iter_nodes config.Config.graph (fun p ->
      let before = index_of (Config.state config p) in
      let after = index_of (Config.state final p) in
      match Gk.role_of p with
      | Gk.A -> check_int (Printf.sprintf "a-node %d up by one" p) (before + 1) after
      | Gk.B | Gk.C | Gk.D | Gk.E ->
          check_int (Printf.sprintf "node %d unchanged" p) before after)

let test_blowup_exponential_growth () =
  (* Total stabilization moves more than double with each k — the
     exponential-energy theorem made measurable. *)
  let totals =
    List.map (fun k -> (Blowup.run ~k ()).Blowup.total_moves) [ 4; 5; 6; 7; 8 ]
  in
  let rec ratios = function
    | a :: b :: rest ->
        check "growth factor > 1.6" true
          (float_of_int b /. float_of_int a > 1.6);
        ratios (b :: rest)
    | _ -> ()
  in
  ratios totals

let test_transformer_polynomial_on_fig1 () =
  (* The transformer on the same initial contents stays polynomial:
     its move count grows roughly linearly in n, so the ratio
     rollback/transformer must exceed 2 for k >= 8. *)
  let moves k =
    let m, ok =
      Ss_expt.Blowup_expt.transformer_on_fig1 ~k ~daemon:Ss_sim.Daemon.central_min
    in
    check (Printf.sprintf "transformer terminates, k=%d" k) true ok;
    m
  in
  let m4 = moves 4 and m8 = moves 8 in
  (* Linear-ish growth: doubling k far less than quadruples moves. *)
  check "polynomial growth" true (m8 < 4 * m4);
  let rollback8 = (Blowup.run ~k:8 ()).Blowup.total_moves in
  check "rollback loses at k=8" true (rollback8 > 2 * m8)

let () =
  Alcotest.run "rollback"
    [
      ( "compiler",
        [
          Alcotest.test_case "state accessors" `Quick test_state_accessors;
          Alcotest.test_case "bound validated" `Quick test_bound_validated;
          Alcotest.test_case "clean run simulates" `Quick test_clean_run_simulates;
          Alcotest.test_case "self-stabilizing" `Quick
            test_rollback_is_self_stabilizing;
          Alcotest.test_case "corrupt preserves shape" `Quick
            test_corrupt_preserves_shape;
          Alcotest.test_case "fix is one move" `Quick test_fix_is_one_move;
        ] );
      ( "gamma",
        [
          Alcotest.test_case "length formula" `Quick test_gamma_length_formula;
          Alcotest.test_case "more than doubles" `Quick
            test_gamma_more_than_doubles;
          Alcotest.test_case "Gamma_1 and Gamma_2" `Quick test_gamma_1_and_2;
          Alcotest.test_case "Figure 1 configuration" `Quick
            test_initial_config_matches_figure_1;
          Alcotest.test_case "legal execution" `Quick
            test_gamma_is_a_legal_execution;
          Alcotest.test_case "raises a-indices by one" `Quick
            test_gamma_effect_raises_a_indices;
        ] );
      ( "separation",
        [
          Alcotest.test_case "exponential growth" `Quick
            test_blowup_exponential_growth;
          Alcotest.test_case "transformer stays polynomial" `Quick
            test_transformer_polynomial_on_fig1;
        ] );
    ]
