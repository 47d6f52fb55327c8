(* Metric names and units, as BENCHMARK.json declares them.  The
   `--quick` smoke checks the two stay in step. *)

(* What a user of either plane sees, reported by every workload. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("recovery_s", "s");
    ("peak_rss_mb", "MiB");
    ("moves", "count");
  ]

(* The end-to-end times are scaled by the box's speed (see Probe); the
   wall time and the probe behind them are printed beside them. *)
let unscaled = [ ("recovery_wall_s", "s"); ("probe_s", "s") ]

(* Exact counts of one plane, or of one workload, and the failure
   share.  They are printed and compared, but a metric BENCHMARK.json
   bounds must be reported by every workload and be non-zero, so these
   stay out of it. *)
let plane_counts =
  [
    ("steps", "count");
    ("rounds", "count");
    ("recovery_rounds", "count");
    ("space_bits", "bits");
    ("deliveries", "count");
    ("wire_bits_per_node", "bits");
    ("fail_rate", "ratio");
  ]

(* Layers that do not run in a workload read 0 there. *)
let per_layer =
  [
    ("graph.build_s", "s");
    ("core.start_s", "s");
    ("sync.history_s", "s");
    ("checker.legit_s", "s");
    ("engine.run_s", "s");
    ("engine.steps", "count");
    ("engine.rounds", "count");
    ("engine.recovery_rounds", "count");
    ("engine.moves_per_s", "1/s");
    ("engine.step_p50_us", "us");
    ("engine.step_p99_us", "us");
    ("engine.self_s", "s");
    ("daemon.select_s", "s");
    ("observer.s", "s");
    ("guard.calls", "count");
    ("guard.self_s", "s");
    ("guard.rr_s", "s");
    ("guard.rp_s", "s");
    ("guard.rc_s", "s");
    ("guard.ru_s", "s");
    ("guard.calls_per_move", "ratio");
    ("guard.cache_hits", "count");
    ("action.calls", "count");
    ("action.self_s", "s");
    ("algo.step_calls", "count");
    ("algo.step_s", "s");
    ("algo.steps_per_guard", "ratio");
    ("cellpack.pack_calls", "count");
    ("cellpack.unpack_calls", "count");
    ("core.space_bits", "bits");
    ("msgnet.run_s", "s");
    ("msgnet.init_s", "s");
    ("msgnet.pick_s", "s");
    ("msgnet.update_n", "count");
    ("msgnet.update_s", "s");
    ("msgnet.proof_n", "count");
    ("msgnet.proof_s", "s");
    ("msgnet.request_n", "count");
    ("msgnet.request_s", "s");
    ("msgnet.full_copy_n", "count");
    ("msgnet.full_copy_s", "s");
    ("msgnet.wave_n", "count");
    ("msgnet.wave_s", "s");
    ("msgnet.drained_n", "count");
    ("msgnet.drained_s", "s");
    ("msgnet.chaos_n", "count");
    ("msgnet.chaos_s", "s");
    ("msgnet.event_p50_us", "us");
    ("msgnet.event_p99_us", "us");
    ("msgnet.deliveries", "count");
    ("msgnet.deliveries_per_s", "1/s");
    ("msgnet.stale_proof_n", "count");
    ("msgnet.request_per_proof", "ratio");
    ("msgnet.wire_bits_per_node", "bits");
    ("msgnet.update_bits_per_node", "bits");
    ("msgnet.proof_bits_per_node", "bits");
    ("msgnet.repair_bits_per_node", "bits");
    ("msgnet.peak_queued_bits_per_node", "bits");
    ("msgnet.mirror_bytes_per_node", "B");
    ("gc.minor_words_per_event", "words");
    ("gc.major_words", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "ratio");
  ]

let unit_of name =
  List.assoc_opt name (end_to_end @ unscaled @ plane_counts @ per_layer)
  |> Option.value ~default:""

(* Quartiles as Python's [statistics.quantiles (n=4)] computes them
   (the default "exclusive" method), so the suite's spreads match any
   script that recomputes them from the raw values. *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Metrics.quartiles: no values"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = min (ld - 1) (max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    let median =
      if ld mod 2 = 1 then d.(ld / 2) else (d.((ld / 2) - 1) +. d.(ld / 2)) /. 2.
    in
    (q 1, median, q 3)
  end
