(** Reproduction of the §6 message/energy accounting.

    Compares, over real executions of the transformed leader election,
    the total traffic under the naive full-state encoding
    ([O(B·S)] bits per message) against §6's delta encoding
    ([O(S + log B)] bits per message), plus the proof-heartbeat
    overhead.  The per-message compression ratio should track
    [B·S / (S + log B)]. *)

val rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** Sweep ring sizes and bounds; one row per configuration with
    moves, messages, full-state bits, delta bits, the measured ratio
    and the predicted ratio. *)
