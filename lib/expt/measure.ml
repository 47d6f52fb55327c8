module Stabilization = Ss_verify.Stabilization
module Rng = Ss_prelude.Rng

type agg = {
  runs : int;
  max_moves : int;
  max_rounds : int;
  max_recovery_moves : int;
  max_recovery_rounds : int;
  max_space_bits : int;
  all_legitimate : bool;
  all_spec : bool;
}

let empty =
  {
    runs = 0;
    max_moves = 0;
    max_rounds = 0;
    max_recovery_moves = 0;
    max_recovery_rounds = 0;
    max_space_bits = 0;
    all_legitimate = true;
    all_spec = true;
  }

let absorb ~spec agg (r : _ Stabilization.report) =
  {
    runs = agg.runs + 1;
    max_moves = max agg.max_moves r.Stabilization.moves;
    max_rounds = max agg.max_rounds r.Stabilization.rounds;
    max_recovery_moves = max agg.max_recovery_moves r.Stabilization.recovery_moves;
    max_recovery_rounds =
      max agg.max_recovery_rounds r.Stabilization.recovery_rounds;
    max_space_bits = max agg.max_space_bits r.Stabilization.space_bits;
    all_legitimate = agg.all_legitimate && r.Stabilization.legitimate;
    all_spec = agg.all_spec && spec r.Stabilization.outputs;
  }

let worst_case ?(spec = fun _ -> true) ~seeds ~max_height sc =
  (* Fan the (seed × daemon) replicas out over the shared domain pool.
     All parent-stream consumption — portfolio construction and the
     per-replica [Rng.split] — happens here, sequentially, in the
     historical order; each replica then only draws from its own
     pre-split generator and constructs its own start configuration,
     daemon and (inside {!Stabilization.run}) algorithm.  The fold
     over reports is in replica order and every [absorb] component is
     commutative-associative with [empty] as identity, so the
     aggregate is byte-identical to the sequential one for any job
     count. *)
  let replicas =
    List.concat_map
      (fun seed ->
        let rng = Rng.create seed in
        Rng.split_per rng (Stabilization.daemon_portfolio rng))
      seeds
  in
  let reports =
    Ss_par.Par.map
      (fun ((_name, daemon), rng) ->
        let start = Stabilization.corrupted_start rng ~max_height sc in
        Stabilization.run sc ~daemon ~start)
      replicas
  in
  List.fold_left (absorb ~spec) empty reports
