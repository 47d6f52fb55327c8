module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module Stabilization = Ss_verify.Stabilization
module Toy = Ss_algos.Toy

(* Leader election on a workload, its ids drawn from [rng]. *)
let leader ?greedy ~seeds rng (w : Workloads.t) =
  Measure.instance ?greedy ~seeds
    (Catalog.instantiate "leader" rng w.Workloads.graph)
    w.Workloads.graph

(* The clock algorithm with exact [T = k] under greedy [B = b]. *)
let clock ~seeds g ~k ~b =
  Measure.worst_case ~seeds ~max_height:b
    {
      Stabilization.params =
        Transformer.params ~mode:P.Greedy ~bound:(P.Finite b) Toy.clock;
      graph = g;
      inputs = (fun _ -> k);
    }

let lazy_rows ~seeds rng =
  Measure.table
    [ "family"; "n"; "D"; "T"; "moves"; "n^3+nT"; "rounds"; "D+T"; "legit" ]
    (List.map
       (fun ((w : Workloads.t), rng) () ->
         let m = leader ~seeds rng w in
         let n = w.Workloads.n and t = m.Measure.t in
         [
           Table.S w.Workloads.family;
           Table.I n;
           Table.I w.Workloads.diameter;
           Table.I t;
           Table.I m.Measure.agg.Measure.max_moves;
           Table.I ((n * n * n) + (n * t));
           Table.I m.Measure.agg.Measure.max_rounds;
           Table.I (w.Workloads.diameter + t);
           Measure.ok_cell m.Measure.agg.Measure.all_legitimate;
         ])
       (Rng.split_per rng (Workloads.standard rng)))

let greedy_rows ~seeds rng =
  (* Clock with exact T, growing B: rounds must scale with B. *)
  let clock_row n k b () =
    let agg = clock ~seeds (Ss_graph.Builders.cycle n) ~k ~b in
    [
      Table.S (Printf.sprintf "clock(T=%d)" k);
      Table.I n;
      Table.I k;
      Table.I b;
      Table.I agg.Measure.max_moves;
      Table.I ((n * n * n) + (n * b));
      Table.I agg.Measure.max_rounds;
      Measure.ok_cell agg.Measure.all_legitimate;
    ]
  in
  (* Greedy leader election with B a small multiple of T. *)
  let leader_row ((w : Workloads.t), rng) () =
    let m = leader ~greedy:(fun t -> 2 * t) ~seeds rng w in
    let n = w.Workloads.n and b = m.Measure.bound in
    [
      Table.S ("leader/" ^ w.Workloads.family);
      Table.I n;
      Table.I (max 1 m.Measure.t);
      Table.I b;
      Table.I m.Measure.agg.Measure.max_moves;
      Table.I ((n * n * n) + (n * b));
      Table.I m.Measure.agg.Measure.max_rounds;
      Measure.ok_cell m.Measure.agg.Measure.all_legitimate;
    ]
  in
  Measure.table
    [ "workload"; "n"; "T"; "B"; "moves"; "n^3+nB"; "rounds"; "legit" ]
    (List.map (fun b -> clock_row 16 8 b) [ 8; 16; 32; 64 ]
    @ List.map leader_row (Rng.split_per rng (Workloads.rings [ 8; 16; 32 ])))

let recovery_rows ~seeds rng =
  (* Lazy leader election, B = +inf: recovery within O(D). *)
  let leader_row ((w : Workloads.t), rng) () =
    let agg = (leader ~seeds rng w).Measure.agg in
    let n = w.Workloads.n in
    [
      Table.S ("leader/" ^ w.Workloads.family);
      Table.I n;
      Table.I w.Workloads.diameter;
      Table.S "inf";
      Table.I agg.Measure.max_recovery_rounds;
      Table.I w.Workloads.diameter;
      Table.I agg.Measure.max_recovery_moves;
      Table.I (n * n * n);
    ]
  in
  (* The B < D regime: a short clock on a long path — recovery is
     bounded by B, not by the (large) diameter. *)
  let clock_row n () =
    let b = 4 and d = n - 1 in
    let agg = clock ~seeds (Ss_graph.Builders.path n) ~k:b ~b in
    [
      Table.S (Printf.sprintf "clock(B=%d)/path" b);
      Table.I n;
      Table.I d;
      Table.I b;
      Table.I agg.Measure.max_recovery_rounds;
      Table.I (min d b);
      Table.I agg.Measure.max_recovery_moves;
      Table.I (min (n * n * n) (n * n * b));
    ]
  in
  Measure.table
    [
      "workload"; "n"; "D"; "B"; "recov-rounds"; "min(D,B)"; "recov-moves";
      "min(n^3,n^2B)";
    ]
    (List.map leader_row (Rng.split_per rng (Workloads.diameter_sweep ()))
    @ List.map clock_row [ 16; 32; 64 ])

let space_rows ~seeds rng =
  Measure.table
    [ "workload"; "n"; "B"; "S"; "B*S"; "space-bits"; "legit" ]
    (List.map
       (fun ((w : Workloads.t), rng) () ->
         let m = leader ~greedy:(fun t -> t + 2) ~seeds rng w in
         let b = m.Measure.bound and s = m.Measure.state_bits in
         [
           Table.S ("leader/" ^ w.Workloads.family);
           Table.I w.Workloads.n;
           Table.I b;
           Table.I s;
           Table.I (b * s);
           Table.I m.Measure.agg.Measure.max_space_bits;
           Measure.ok_cell m.Measure.agg.Measure.all_legitimate;
         ])
       (Rng.split_per rng
          (Workloads.standard rng |> List.filteri (fun i _ -> i mod 3 = 0))))
