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

let rows ~max_k ~seeds _ =
  (* One row per k; each owns its configs, daemons and generators
     outright ([Rng.create seed] only). *)
  Measure.table
    [
      "k"; "n"; "B"; "|Gamma_k|"; "rollback-moves"; "trans-moves"; "ratio";
      "ok";
    ]
    (List.init max_k (fun i () ->
         let k = i + 1 in
         let r = Blowup.run ~k () in
         (* The worst transformer run over the seeds' portfolios; the
            ratio column is read off its moves. *)
         match
           Measure.worst
             (List.concat_map
                (fun seed ->
                  List.map
                    (fun (_name, daemon) ->
                      let m, t = transformer_on_fig1 ~k ~daemon in
                      [ Table.I m; Measure.ok_cell (r.Blowup.stabilized && t) ])
                    (Stabilization.daemon_portfolio (Rng.create seed)))
                seeds)
         with
         | [ Table.I trans_moves; ok ] ->
             [
               Table.I k;
               Table.I r.Blowup.n;
               Table.I (Blowup.bound_for k);
               Table.I r.Blowup.schedule_moves;
               Table.I r.Blowup.total_moves;
               Table.I trans_moves;
               Table.S
                 (Printf.sprintf "%.1f"
                    (float_of_int r.Blowup.total_moves
                    /. float_of_int (max 1 trans_moves)));
               ok;
             ]
         | _ -> assert false))
