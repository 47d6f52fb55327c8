module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module G = Ss_graph
module Config = Ss_sim.Config
module Engine = Ss_sim.Engine
module Stabilization = Ss_verify.Stabilization
module Naive = Ss_baselines.Naive_bfs
module Dijkstra = Ss_baselines.Dijkstra_ring

(* Moves and spec verdict of every naive min+1 run over the seeds'
   portfolios, each from the adversarial start where every non-root
   estimate is 0 — the classic underestimate flood. *)
let naive_runs g ~root seeds =
  let inputs = Naive.inputs g ~root () in
  List.concat_map
    (fun seed ->
      List.map
        (fun (_name, daemon) ->
          let start = Config.make g ~inputs ~states:(fun _ -> 0) in
          let stats =
            Engine.run
              ~budget:(Ss_report.Budget.v ~steps:5_000_000 ())
              Naive.algo daemon start
          in
          ( stats.Engine.moves,
            stats.Engine.terminated
            && Naive.spec_holds g ~root ~final:stats.Engine.final.Config.states
          ))
        (Stabilization.daemon_portfolio (Rng.create (seed * 31))))
    seeds

let bfs_rows ~seeds rng =
  let workloads =
    [
      ("path", G.Builders.path 24);
      ("lollipop", G.Builders.lollipop ~clique:8 ~tail:16);
      ("grid", G.Builders.grid ~rows:4 ~cols:6);
      ("random", G.Builders.random_connected (Rng.split rng) ~n:24 ~extra_edges:12);
    ]
  in
  Measure.table
    [
      "graph"; "n"; "D"; "naive-moves"; "naive-adv-moves"; "trans-moves";
      "trans-rounds"; "ok";
    ]
    (List.map
       (fun (name, g) () ->
         let root = 0 in
         let adv_moves, adv_ok =
           Naive.adversarial_run
             (Config.make g
                ~inputs:(Naive.inputs g ~root ())
                ~states:(fun _ -> 0))
         in
         let n = G.Graph.n g and d = G.Properties.diameter g in
         (* Transformed BFS (root 0) draws no inputs.  One fold over the
            naive and the transformed runs: each kind reads 0 in the
            other's move columns. *)
         let inst =
           Catalog.instance Catalog.lazy_infinite
             (Catalog.instantiate "bfs" rng g)
             g
         in
         let max_height = Catalog.max_height inst in
         let (Catalog.Instance { sc; spec; hist; _ }) = inst in
         let row naive_moves trans_moves trans_rounds ok =
           [
             Table.S name;
             Table.I n;
             Table.I d;
             Table.I naive_moves;
             Table.I adv_moves;
             Table.I trans_moves;
             Table.I trans_rounds;
             Measure.ok_cell (ok && adv_ok);
           ]
         in
         Measure.worst
           (List.map
              (fun (moves, ok) -> row moves 0 0 ok)
              (naive_runs g ~root seeds)
           @ List.map
               (fun (r : _ Stabilization.report) ->
                 row 0 r.moves r.rounds (r.legitimate && spec r.outputs))
               (Measure.worst_case ~seeds ~max_height ~hist sc)))
       workloads)

let dijkstra_rows ~seeds _ =
  Measure.table
    [ "n"; "K"; "steps-to-legit"; "moves-to-legit"; "closure" ]
    (List.map
       (fun n () ->
         (* Self-contained row: every draw comes from the per-seed
            generators. *)
         let g = G.Builders.cycle n in
         let inputs = Dijkstra.inputs ~n () in
         Measure.worst
           (List.concat_map
              (fun seed ->
                let seed_rng = Rng.create (seed * 17) in
                let start =
                  Config.make g ~inputs ~states:(fun _ ->
                      Rng.int seed_rng (n + 1))
                in
                List.map
                  (fun (_name, daemon) ->
                    let steps, moves, closure =
                      match Dijkstra.run_to_legitimacy daemon start with
                      | Some (steps, moves, legit_config) ->
                          ( steps,
                            moves,
                            Dijkstra.closure_holds
                              (Ss_sim.Daemon.central_random
                                 (Rng.split seed_rng))
                              legit_config )
                      | None -> (0, 0, false)
                    in
                    [
                      Table.I n;
                      Table.I (n + 1);
                      Table.I steps;
                      Table.I moves;
                      Measure.ok_cell closure;
                    ])
                  (Stabilization.daemon_portfolio seed_rng))
              seeds))
       [ 5; 9; 17; 33 ])
