module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util
module G = Ss_graph
module P = Ss_core.Predicates
module Stabilization = Ss_verify.Stabilization
module Sync_runner = Ss_sync.Sync_runner
module Cv = Ss_algos.Cole_vishkin

(* Lazy mode; every row checks the algorithm's specification on
   every run. *)
let measure algo rng (w : Workloads.t) =
  Catalog.instance Catalog.lazy_infinite
    (Catalog.instantiate algo rng w.Workloads.graph)
    w.Workloads.graph

let rounds_rows algo ~seeds workloads =
  Measure.table
    [ "family"; "n"; "D"; "rounds"; "D+T"; "moves"; "n^3"; "spec"; "legit" ]
    (List.map
       (fun ((w : Workloads.t), rng) () ->
         let inst = measure algo rng w in
         let max_height = Catalog.max_height inst in
         let (Catalog.Instance { sc; spec; hist; _ }) = inst in
         let n = w.Workloads.n in
         Measure.worst
           (List.map
              (fun (r : _ Stabilization.report) ->
                [
                  Table.S w.Workloads.family;
                  Table.I n;
                  Table.I w.Workloads.diameter;
                  Table.I r.rounds;
                  Table.I (w.Workloads.diameter + hist.Sync_runner.t);
                  Table.I r.moves;
                  Table.I (n * n * n);
                  Measure.ok_cell (spec r.outputs);
                  Measure.ok_cell r.legitimate;
                ])
              (Measure.worst_case ~seeds ~max_height ~hist sc)))
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
         let t = Cv.schedule_length width in
         let b = t in
         let (Catalog.Instance { sc; spec; hist; _ }) =
           Catalog.instance
             { Catalog.mode = P.Greedy; bound = Catalog.Fixed (P.Finite b) }
             (Catalog.Inst
                {
                  sync = Cv.algo;
                  inputs = Cv.inputs ~ids ~width g;
                  spec = (fun final -> Cv.spec_holds g ~final);
                  codec = None;
                })
             g
         in
         Measure.worst
           (List.map
              (fun (r : _ Stabilization.report) ->
                [
                  Table.I n;
                  Table.I width;
                  Table.I (Util.log_star n);
                  Table.I t;
                  Table.I b;
                  Table.I r.rounds;
                  Table.I r.moves;
                  Table.I (n * n * b);
                  Measure.ok_cell (spec r.outputs);
                  Measure.ok_cell r.legitimate;
                ])
              (Measure.worst_case ~seeds ~max_height:b ~hist sc)))
       (Rng.split_per rng [ (8, 6); (16, 8); (64, 10); (128, 16); (256, 16) ]))

let shortest_path_rows ~seeds rng =
  Measure.table
    [ "family"; "n"; "D"; "T"; "rounds"; "moves"; "spec"; "legit" ]
    (List.map
       (fun ((w : Workloads.t), rng) () ->
         let inst = measure "sp" rng w in
         let max_height = Catalog.max_height inst in
         let (Catalog.Instance { sc; spec; hist; _ }) = inst in
         Measure.worst
           (List.map
              (fun (r : _ Stabilization.report) ->
                [
                  Table.S w.Workloads.family;
                  Table.I w.Workloads.n;
                  Table.I w.Workloads.diameter;
                  Table.I hist.Sync_runner.t;
                  Table.I r.rounds;
                  Table.I r.moves;
                  Measure.ok_cell (spec r.outputs);
                  Measure.ok_cell r.legitimate;
                ])
              (Measure.worst_case ~seeds ~max_height ~hist sc)))
       (Rng.split_per rng
          [
            Workloads.make "path" (G.Builders.path 16);
            Workloads.make "cycle" (G.Builders.cycle 16);
            Workloads.make "grid" (G.Builders.grid ~rows:4 ~cols:4);
            Workloads.make "random"
              (G.Builders.random_connected (Rng.split rng) ~n:20 ~extra_edges:12);
          ]))
