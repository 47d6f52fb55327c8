module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module G = Ss_graph
module Sim = Ss_sim
module P = Ss_core.Predicates
module Registry = Ss_core.Registry

let headers =
  [
    "transformer"; "algo"; "graph"; "n"; "B"; "moves"; "rounds"; "steps";
    "energy-bits"; "space-bits"; "ok";
  ]

let default_algos = [ "leader"; "bfs"; "cv"; "mis"; "matching"; "coloring" ]

let default_graphs rng =
  [
    ("ring:24", G.Builders.cycle 24);
    ("torus:4x6", G.Builders.torus ~rows:4 ~cols:6);
    ("random4:16", G.Builders.random4 (Rng.split rng) 16);
  ]

(* One grid row: a transformer on an instantiated workload, worst
   over the seeds.  The workload (inputs, ground-truth history,
   greedy/Finite-B params) is built once per (algo, graph) and shared
   by every transformer, so the comparison is apples-to-apples. *)
let cell_row ~seeds algo
    (Catalog.Instance { sc = { params; graph; inputs }; spec; hist; _ })
    graph_name entry () =
  let b = P.bound_to_int params.P.bound in
  Measure.worst
    (List.map
       (fun seed ->
         (* Every draw comes from streams derived from the seed ints
            alone — byte-identical grids for any -j (DESIGN.md §11). *)
         let seed_rng = Rng.create ((seed * 7919) + 97) in
         let daemon =
           Sim.Daemon.distributed_random (Rng.split seed_rng) ~p:0.5
         in
         let (r : _ Registry.summary), energy_bits =
           Registry.measure entry ~hist ~rng:(Rng.split seed_rng) ~daemon
             ~max_height:b params graph ~inputs
         in
         [
           Table.S (Registry.name entry);
           Table.S algo;
           Table.S graph_name;
           Table.I (G.Graph.n graph);
           Table.I b;
           Table.I r.moves;
           Table.I r.rounds;
           Table.I r.steps;
           Table.I energy_bits;
           Table.I r.space_bits;
           Measure.ok_cell (r.terminated && r.legitimate && spec r.outputs);
         ])
       seeds)

(* A ring-only algorithm on a non-ring graph renders as an "n/a" row
   rather than being dropped, so the grid shape is the full cross
   product. *)
let unfit_row algo graph_name entry () =
  [ Table.S (Registry.name entry); Table.S algo; Table.S graph_name ]
  @ List.init 7 (fun _ -> Table.S "-")
  @ [ Table.S "n/a" ]

let rows ?transformers ?(algos = default_algos) ?graphs ~seeds rng =
  let transformers =
    match transformers with Some ts -> ts | None -> Catalog.transformers ()
  in
  let graphs =
    match graphs with Some gs -> gs | None -> default_graphs (Rng.split rng)
  in
  (* Workloads are instantiated sequentially, outside the pool, so the
     id/weight draws are independent of -j. *)
  let workloads =
    List.concat_map
      (fun algo ->
        let a = Catalog.find_algo algo in
        List.map
          (fun (graph_name, graph) ->
            match Catalog.validate_topology a graph with
            | Error _ -> unfit_row algo graph_name
            | Ok () ->
                cell_row ~seeds algo
                  (Catalog.instance Catalog.greedy_t
                     (a.instantiate (Rng.split rng) graph)
                     graph)
                  graph_name)
          graphs)
      algos
  in
  Measure.table headers
    (List.concat_map
       (fun entry -> List.map (fun row -> row entry) workloads)
       transformers)
