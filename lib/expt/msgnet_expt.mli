(** End-to-end §6 experiment: the transformer over real (simulated)
    message passing.

    Unlike {!Energy_expt}, which accounts costs over an atomic-state
    trace, this table runs the actual protocol of {!Ss_msgnet.Msgnet}:
    mirrors, FIFO channels, heartbeat proofs, repair round-trips.  For
    each network size and encoding it reports the work (rule
    executions, deliveries), the traffic split (update / proof /
    repair bits) and whether verified quiescence with a legitimate
    outcome was reached. *)

val rows : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t
(** Leader election over rings and random graphs, both encodings;
    each row is the worst over [seeds]. *)
