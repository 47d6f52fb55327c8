(** The message/energy cost model of paper §6.

    The atomic-state model has no messages, but an implementation in a
    message-passing system makes each moving node inform its neighbors
    of its state change, and makes all nodes periodically exchange
    {e proofs} of their states (a salted hash plus its nonce) to detect
    transient faults.  §6 argues that:

    - the number of algorithm messages is governed by the {e move}
      count (each move triggers [deg(p)] messages);
    - sending whole states costs [O(B·S)] bits per message, while
      {e delta encoding} (2 bits of rule label, plus [O(log B)] bits
      for [RP]'s new height or [O(S)] bits for [RU]'s new cell) brings
      each message down to [O(S + log B)];
    - proof heartbeats are small and can be rare.

    This module measures all three quantities over actual simulator
    executions of the transformer. *)

type cost = {
  moves : int;  (** Total moves of the execution. *)
  messages : int;  (** Algorithm messages: [Σ deg(p)] over moves. *)
  bits_full_state : int;
      (** Total bits if every message carries the sender's whole
          transformed state
          ([Ss_core.Transformer.full_state_bits]). *)
  bits_delta : int;
      (** Total bits under §6's delta encoding: 2 bits of rule label
          plus the rule's payload. *)
  heartbeat_messages : int;
      (** Proof messages: one per node per neighbor every
          [heartbeat_period] completed rounds. *)
  heartbeat_bits : int;  (** [heartbeat_messages * (proof_bits + nonce_bits)]. *)
  rounds : int;
  terminated : bool;
}

type proof_cost = { proof_bits : int; nonce_bits : int }
(** Wire cost of one proof message: hash bits plus wave-nonce bits.
    The single source of truth shared by {!sink} (the analytical
    §6 cost model) and [Ss_msgnet.Msgnet.run] (the executable
    message-network realization), so the two entry points can never
    drift apart on what a proof costs. *)

val default_proof_cost : proof_cost
(** [{ proof_bits = 64; nonce_bits = 64 }] — a 64-bit salted hash plus
    a 64-bit wave nonce, 128 bits per proof message in total. *)

val proof_message_bits : proof_cost -> int
(** [proof_bits + nonce_bits]: total bits of one proof message. *)

val request_message_bits : int
(** Bits of a repair [Request] message (a bare 2-bit message tag). *)

val proof_of_digest : nonce:int64 -> int64 -> int64
(** [proof_of_digest ~nonce d] salts a nonce-free state digest [d]
    with the wave nonce: the §6 proof sent on the wire.  The digest
    comes from either implementation of [Ss_msgnet.Proof]. *)

val state_proof : nonce:int64 -> string -> int64
(** The §6 proof of a (serialized) state:
    [proof_of_digest ~nonce (Util.fnv1a64 s)].  Exposed so tests can
    check that proofs discriminate distinct states. *)

val sink :
  ?proof:proof_cost ->
  ?heartbeat_period:int ->
  ('s, 'i) Ss_core.Predicates.params ->
  Ss_graph.Graph.t ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Engine.observer
  * (('s Ss_core.Trans_state.t, 'i) Ss_sim.Engine.stats -> cost)
(** [sink params g] is a message-cost meter for a transformer run on
    [g]: attach the observer to [Ss_core.Registry.Trans.run ~sinks],
    then apply the second component to the run's stats.  Delta bits
    come from [Ss_core.Registry.Trans.move_bits] (defaults:
    [proof = default_proof_cost], [heartbeat_period = 16] rounds). *)
