module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module Gk = Ss_graph.Gk
module Config = Ss_sim.Config
module Engine = Ss_sim.Engine
module Budget = Ss_report.Budget
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module St = Ss_core.Trans_state
module Blowup = Ss_rollback.Blowup
module Min_flood = Ss_algos.Min_flood
module Stabilization = Ss_verify.Stabilization

let fig1_transformer_config ~k =
  let g = Gk.make k in
  let b = Blowup.bound_for k in
  Config.make g
    ~inputs:(fun _ -> 1)
    ~states:(fun p ->
      let index = Gk.fig1_index ~k p in
      St.make ~init:1 ~status:St.C
        ~cells:(Array.init b (fun idx -> if idx + 1 < index then 1 else 0)))

let transformer_on_fig1 ~k ~daemon =
  let params =
    Transformer.params ~mode:P.Greedy
      ~bound:(P.Finite (Blowup.bound_for k))
      Min_flood.algo
  in
  let stats =
    Transformer.run ~budget:(Budget.v ~steps:20_000_000 ()) params daemon
      (fig1_transformer_config ~k)
  in
  (stats.Engine.moves, stats.Engine.terminated)

let rows ?(max_k = 9) ?(seeds = [ 1 ]) () =
  let table =
    Table.create
      [
        "k"; "n"; "B"; "|Gamma_k|"; "rollback-moves"; "trans-moves";
        "ratio"; "ok";
      ]
  in
  (* One pool task per k; each task owns its configs, daemons and
     generators outright ([Rng.create seed] only). *)
  List.iter (Table.add_row table)
    (Ss_par.Par.map
       (fun k ->
         let r = Blowup.run ~k () in
         let trans_moves, trans_ok =
           List.fold_left
             (fun (worst, ok) seed ->
               let rng = Rng.create seed in
               List.fold_left
                 (fun (worst, ok) (_name, daemon) ->
                   let m, t = transformer_on_fig1 ~k ~daemon in
                   (max worst m, ok && t))
                 (worst, ok)
                 (Stabilization.daemon_portfolio rng))
             (0, true) seeds
         in
         [
           string_of_int k;
           string_of_int r.Blowup.n;
           string_of_int (Blowup.bound_for k);
           string_of_int r.Blowup.schedule_moves;
           string_of_int r.Blowup.total_moves;
           string_of_int trans_moves;
           Printf.sprintf "%.1f"
             (float_of_int r.Blowup.total_moves
             /. float_of_int (max 1 trans_moves));
           (if r.Blowup.stabilized && trans_ok then "yes" else "NO");
         ])
       (List.init max_k (fun i -> i + 1)));
  table
