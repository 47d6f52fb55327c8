module Stabilization = Ss_verify.Stabilization
module Rng = Ss_prelude.Rng
module Table = Ss_prelude.Table

let replicas ~seeds run =
  (* Fan the (seed × daemon) replicas out over the shared domain pool.
     All parent-stream consumption — portfolio construction and the
     per-replica [Rng.split] — happens here, sequentially, in the
     historical order; each replica then only draws from its own
     pre-split generator and constructs its own start configuration,
     daemon and algorithm, so the results, in replica order, are the
     same for any job count. *)
  Ss_par.Par.map
    (fun ((_name, daemon), rng) -> run rng daemon)
    (List.concat_map
       (fun seed ->
         let rng = Rng.create seed in
         Rng.split_per rng (Stabilization.daemon_portfolio rng))
       seeds)

let worst_case ~seeds ~max_height ~hist sc =
  replicas ~seeds (fun rng daemon ->
      Stabilization.run ~hist sc ~daemon
        ~start:(Stabilization.corrupted_start rng ~max_height sc))

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
