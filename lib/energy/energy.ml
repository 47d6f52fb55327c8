module Graph = Ss_graph.Graph
module Config = Ss_sim.Config
module Engine = Ss_sim.Engine
module Util = Ss_prelude.Util
module Transformer = Ss_core.Registry.Trans

type cost = {
  moves : int;
  messages : int;
  bits_full_state : int;
  bits_delta : int;
  heartbeat_messages : int;
  heartbeat_bits : int;
  rounds : int;
  terminated : bool;
}

type proof_cost = { proof_bits : int; nonce_bits : int }

let default_proof_cost = { proof_bits = 64; nonce_bits = 64 }
let proof_message_bits pc = pc.proof_bits + pc.nonce_bits
let request_message_bits = 2

let proof_of_digest ~nonce d = Int64.logxor d (Int64.mul nonce 0x9E3779B97F4A7C15L)
let state_proof ~nonce s = proof_of_digest ~nonce (Util.fnv1a64 s)

let sink ?(proof = default_proof_cost) ?(heartbeat_period = 16) params g =
  let messages = ref 0 in
  let bits_full = ref 0 in
  let bits_delta = ref 0 in
  let last_heartbeat_round = ref 0 in
  let heartbeat_messages = ref 0 in
  let sum_degrees =
    Graph.fold_nodes g ~init:0 ~f:(fun acc p -> acc + Graph.degree g p)
  in
  let observe ~step:_ ~rounds ~moved after =
    List.iter
      (fun (p, rule) ->
        let deg = Graph.degree g p in
        let st = Config.state after p in
        messages := !messages + deg;
        bits_full :=
          !bits_full
          + (deg * Transformer.full_state_bits params.Transformer.sync st);
        bits_delta :=
          !bits_delta + (deg * Transformer.move_bits params ~rule st))
      moved;
    (* Periodic proofs: every [heartbeat_period] completed rounds each
       node sends one proof on each incident channel. *)
    while rounds - !last_heartbeat_round >= heartbeat_period do
      last_heartbeat_round := !last_heartbeat_round + heartbeat_period;
      heartbeat_messages := !heartbeat_messages + sum_degrees
    done
  in
  let cost (stats : _ Engine.stats) =
    {
      moves = stats.Engine.moves;
      messages = !messages;
      bits_full_state = !bits_full;
      bits_delta = !bits_delta;
      heartbeat_messages = !heartbeat_messages;
      heartbeat_bits = !heartbeat_messages * proof_message_bits proof;
      rounds = stats.Engine.rounds;
      terminated = stats.Engine.terminated;
    }
  in
  (observe, cost)
