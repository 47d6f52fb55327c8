module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util
module G = Ss_graph
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module Stabilization = Ss_verify.Stabilization
module Cv = Ss_algos.Cole_vishkin

(* Lazy mode with the algorithm's specification checked on every run. *)
let measure algo ~seeds rng (w : Workloads.t) =
  Measure.instance ~seeds
    (Catalog.instantiate algo rng w.Workloads.graph)
    w.Workloads.graph

let rounds_rows algo ~seeds workloads =
  Measure.table
    [ "family"; "n"; "D"; "rounds"; "D+T"; "moves"; "n^3"; "spec"; "legit" ]
    (List.map
       (fun ((w : Workloads.t), rng) () ->
         let m = measure algo ~seeds rng w in
         let agg = m.Measure.agg and n = w.Workloads.n in
         [
           Table.S w.Workloads.family;
           Table.I n;
           Table.I w.Workloads.diameter;
           Table.I agg.Measure.max_rounds;
           Table.I (w.Workloads.diameter + m.Measure.t);
           Table.I agg.Measure.max_moves;
           Table.I (n * n * n);
           Measure.ok_cell agg.Measure.all_spec;
           Measure.ok_cell agg.Measure.all_legitimate;
         ])
       workloads)

let leader_rows ~seeds rng =
  rounds_rows "leader" ~seeds
    (Rng.split_per rng (Workloads.diameter_sweep () @ Workloads.standard rng))

(* BFS draws no inputs: every row reads the parent generator, unused. *)
let bfs_rows ~seeds rng =
  rounds_rows "bfs" ~seeds
    (List.map (fun w -> (w, rng)) (Workloads.standard rng))

let cv_rows ~seeds rng =
  Measure.table
    [
      "n"; "width"; "log*n"; "T"; "B"; "rounds"; "moves"; "n^2*B"; "spec";
      "legit";
    ]
    (List.map
       (fun ((n, width), rng) () ->
         let g = G.Builders.cycle n in
         let ids = Cv.random_ring_ids rng ~n ~width in
         let inputs = Cv.inputs ~ids ~width g in
         let t = Cv.schedule_length width in
         let b = t in
         let sc =
           {
             Stabilization.params =
               Transformer.params ~mode:P.Greedy ~bound:(P.Finite b) Cv.algo;
             graph = g;
             inputs;
           }
         in
         let spec final = Cv.spec_holds g ~final in
         let agg = Measure.worst_case ~seeds ~max_height:b ~spec sc in
         [
           Table.I n;
           Table.I width;
           Table.I (Util.log_star n);
           Table.I t;
           Table.I b;
           Table.I agg.Measure.max_rounds;
           Table.I agg.Measure.max_moves;
           Table.I (n * n * b);
           Measure.ok_cell agg.Measure.all_spec;
           Measure.ok_cell agg.Measure.all_legitimate;
         ])
       (Rng.split_per rng [ (8, 6); (16, 8); (64, 10); (128, 16); (256, 16) ]))

let shortest_path_rows ~seeds rng =
  Measure.table
    [ "family"; "n"; "D"; "T"; "rounds"; "moves"; "spec"; "legit" ]
    (List.map
       (fun ((w : Workloads.t), rng) () ->
         let m = measure "sp" ~seeds rng w in
         let agg = m.Measure.agg in
         [
           Table.S w.Workloads.family;
           Table.I w.Workloads.n;
           Table.I w.Workloads.diameter;
           Table.I m.Measure.t;
           Table.I agg.Measure.max_rounds;
           Table.I agg.Measure.max_moves;
           Measure.ok_cell agg.Measure.all_spec;
           Measure.ok_cell agg.Measure.all_legitimate;
         ])
       (Rng.split_per rng
          [
            Workloads.make "path" (G.Builders.path 16);
            Workloads.make "cycle" (G.Builders.cycle 16);
            Workloads.make "grid" (G.Builders.grid ~rows:4 ~cols:4);
            Workloads.make "random"
              (G.Builders.random_connected (Rng.split rng) ~n:20 ~extra_edges:12);
          ]))
