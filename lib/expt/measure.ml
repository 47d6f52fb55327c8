module Stabilization = Ss_verify.Stabilization
module Rng = Ss_prelude.Rng
module Table = Ss_prelude.Table
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module Sync_runner = Ss_sync.Sync_runner

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

type instance = { t : int; bound : int; state_bits : int; agg : agg }

let instance ?greedy ~seeds (Catalog.Inst { sync; inputs; spec; codec = _ })
    graph =
  let hist = Sync_runner.run sync graph ~inputs in
  let t = hist.Sync_runner.t in
  let mode, bound, b, max_height =
    match greedy with
    | None -> (P.Lazy, P.Infinite, 0, t + 4)
    | Some f ->
        let b = f (max 1 t) in
        (P.Greedy, P.Finite b, b, b)
  in
  let params = Transformer.params ~mode ~bound sync in
  {
    t;
    bound = b;
    state_bits = Sync_runner.max_state_bits sync hist;
    agg =
      worst_case ~spec ~seeds ~max_height
        { Stabilization.params; graph; inputs };
  }

let table headers rows =
  let table = Table.create headers in
  List.iter (Table.add table) (Ss_par.Par.map (fun row -> row ()) rows);
  table

let worst_cell a b =
  match (a, b) with
  | Table.I x, Table.I y -> Table.I (max x y)
  | Table.S "NO", Table.S _ | Table.S _, Table.S "NO" -> Table.S "NO"
  | Table.S x, Table.S y when String.equal x y -> a
  | _ ->
      invalid_arg
        (Printf.sprintf "Measure.worst: cells %S and %S differ"
           (Table.cell_text a) (Table.cell_text b))

let worst = function
  | [] -> invalid_arg "Measure.worst: no rows"
  | first :: rest ->
      List.fold_left
        (fun acc row ->
          if List.compare_lengths acc row <> 0 then
            invalid_arg "Measure.worst: rows of different lengths";
          List.map2 worst_cell acc row)
        first rest

let ok_cell b = Table.S (if b then "yes" else "NO")
let ok table = not (List.exists (List.mem (Table.S "NO")) (Table.rows table))
