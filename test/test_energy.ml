(* Tests for the §6 message/energy cost model. *)

module Builders = Ss_graph.Builders
module Graph = Ss_graph.Graph
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module Energy = Ss_energy.Energy
module Min_flood = Ss_algos.Min_flood
module Leader = Ss_algos.Leader_election
module Rng = Ss_prelude.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* One metered run: the energy sink on the transformer's run. *)
let measure ?proof ?heartbeat_period params daemon config =
  let sink, cost =
    Energy.sink ?proof ?heartbeat_period params config.Ss_sim.Config.graph
  in
  let stats = Transformer.run ~sinks:[ sink ] params daemon config in
  (stats, cost stats)

let test_height_bits () =
  let height_bits = Ss_core.Transformer.height_bits in
  check_int "finite bound" 4 (height_bits (P.Finite 10));
  check_int "tight power of two" 4 (height_bits (P.Finite 8));
  check_int "infinite bound word" 32 (height_bits P.Infinite)

let test_state_proof_discriminates () =
  let p1 = Energy.state_proof ~nonce:1L "state-a" in
  let p2 = Energy.state_proof ~nonce:1L "state-b" in
  let p3 = Energy.state_proof ~nonce:2L "state-a" in
  check "different states differ" true (p1 <> p2);
  check "different nonces differ" true (p1 <> p3);
  check "deterministic" true (p1 = Energy.state_proof ~nonce:1L "state-a")

(* A deterministic clean run on a ring: every node has degree 2, so the
   message count must be exactly 2 * moves. *)
let ring_setup () =
  let g = Builders.cycle 6 in
  let inputs p = [| 5; 9; 8; 7; 6; 9 |].(p) in
  let params = Transformer.params ~bound:(P.Finite 8) Min_flood.algo in
  (g, inputs, params)

let test_messages_are_degree_weighted_moves () =
  let g, inputs, params = ring_setup () in
  let stats, cost =
    measure params Daemon.synchronous
      (Transformer.clean_config params g ~inputs)
  in
  check "terminated" true cost.Energy.terminated;
  check_int "moves agree with engine" stats.Engine.moves cost.Energy.moves;
  check_int "messages = 2 * moves on a ring" (2 * stats.Engine.moves)
    cost.Energy.messages

let test_delta_cheaper_than_full_state () =
  let g, inputs, params = ring_setup () in
  let _stats, cost =
    measure params Daemon.synchronous
      (Transformer.clean_config params g ~inputs)
  in
  check "delta <= full" true
    (cost.Energy.bits_delta <= cost.Energy.bits_full_state);
  check "both positive" true
    (cost.Energy.bits_delta > 0 && cost.Energy.bits_full_state > 0)

let test_full_state_grows_with_height () =
  (* On a clean lazy run every move is an RU whose full-state cost
     grows with the list: total full-state bits must exceed
     messages * (cost of a one-cell state), while delta stays linear. *)
  let g, inputs, params = ring_setup () in
  let _stats, cost =
    measure params Daemon.synchronous
      (Transformer.clean_config params g ~inputs)
  in
  (* Delta messages on RU carry 2 + S bits with S <= 5 here; full-state
     messages carry the whole list.  The ratio must exceed 1.5 on this
     workload (T = 3). *)
  check "meaningful compression" true
    (float_of_int cost.Energy.bits_full_state
     /. float_of_int cost.Energy.bits_delta
    > 1.5)

let test_heartbeats_accounting () =
  let g, inputs, params = ring_setup () in
  let sum_deg = 2 * Graph.n g in
  let _stats, cost =
    measure ~heartbeat_period:1
      ~proof:{ Energy.proof_bits = 64; nonce_bits = 64 }
      params Daemon.synchronous
      (Transformer.clean_config params g ~inputs)
  in
  check_int "one heartbeat wave per round" (cost.Energy.rounds * sum_deg)
    cost.Energy.heartbeat_messages;
  check_int "heartbeat bits" (cost.Energy.heartbeat_messages * 128)
    cost.Energy.heartbeat_bits;
  check_int "matches the shared default proof cost"
    (Energy.proof_message_bits Energy.default_proof_cost)
    128

let test_heartbeat_period_scales () =
  let g, inputs, params = ring_setup () in
  let run period =
    let _stats, cost =
      measure ~heartbeat_period:period params Daemon.synchronous
        (Transformer.clean_config params g ~inputs)
    in
    cost.Energy.heartbeat_messages
  in
  check "longer period, fewer proofs" true (run 1 >= run 2 && run 2 >= run 4)

let test_corrupted_run_costs_more_than_clean () =
  let g = Builders.cycle 12 in
  let rng = Rng.create 8 in
  let inputs = Leader.random_ids rng g in
  let params = Transformer.params ~bound:(P.Finite 10) Leader.algo in
  let clean = Transformer.clean_config params g ~inputs in
  let _s1, clean_cost = measure params Daemon.synchronous clean in
  let corrupted = Transformer.corrupt rng ~max_height:10 params clean in
  let _s2, bad_cost = measure params Daemon.synchronous corrupted in
  check "recovery costs messages" true
    (bad_cost.Energy.messages >= clean_cost.Energy.messages)

let test_rule_payloads () =
  (* RR and RC messages are 2 bits; RP adds the height; RU adds a
     state.  Exercise a run that contains all four rules and check the
     totals decompose consistently. *)
  let g = Builders.cycle 8 in
  let rng = Rng.create 21 in
  let inputs = Leader.random_ids rng g in
  let params = Transformer.params ~bound:(P.Finite 12) Leader.algo in
  let corrupted =
    Transformer.corrupt rng ~max_height:12 params
      (Transformer.clean_config params g ~inputs)
  in
  let stats, cost = measure params Daemon.synchronous corrupted in
  (* Lower bound: every message carries at least the 2 label bits.
     Upper bound: 2 + max(S_bound, height_bits) per message with
     S_bound = 17 bits (ids < 16n = 128 here). *)
  check "delta lower bound" true
    (cost.Energy.bits_delta >= 2 * cost.Energy.messages);
  check "delta upper bound" true
    (cost.Energy.bits_delta <= cost.Energy.messages * (2 + 32));
  check "terminated" true stats.Engine.terminated

let () =
  Alcotest.run "energy"
    [
      ( "model",
        [
          Alcotest.test_case "height bits" `Quick test_height_bits;
          Alcotest.test_case "state proof" `Quick test_state_proof_discriminates;
          Alcotest.test_case "messages = degree-weighted moves" `Quick
            test_messages_are_degree_weighted_moves;
          Alcotest.test_case "delta cheaper" `Quick
            test_delta_cheaper_than_full_state;
          Alcotest.test_case "compression ratio" `Quick
            test_full_state_grows_with_height;
          Alcotest.test_case "heartbeat accounting" `Quick
            test_heartbeats_accounting;
          Alcotest.test_case "heartbeat period" `Quick test_heartbeat_period_scales;
          Alcotest.test_case "recovery costs more" `Quick
            test_corrupted_run_costs_more_than_clean;
          Alcotest.test_case "rule payloads" `Quick test_rule_payloads;
        ] );
    ]
