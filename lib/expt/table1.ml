module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module P = Ss_core.Predicates
module Stabilization = Ss_verify.Stabilization
module Sync_runner = Ss_sync.Sync_runner
module Toy = Ss_algos.Toy

let greedy f =
  { Catalog.mode = P.Greedy; bound = Catalog.Of_t (fun t -> f (max 1 t)) }

(* Leader election on a workload, its ids drawn from [rng]. *)
let leader policy rng (w : Workloads.t) =
  Catalog.instance policy
    (Catalog.instantiate "leader" rng w.Workloads.graph)
    w.Workloads.graph

(* The clock algorithm with exact [T = k] under greedy [B = b]. *)
let clock g ~k ~b =
  Catalog.instance
    { Catalog.mode = P.Greedy; bound = Catalog.Fixed (P.Finite b) }
    (Catalog.Inst
       {
         sync = Toy.clock;
         inputs = (fun _ -> k);
         spec = (fun _ -> true);
         codec = None;
       })
    g

let lazy_rows ~seeds rng =
  Measure.table
    [ "family"; "n"; "D"; "T"; "moves"; "n^3+nT"; "rounds"; "D+T"; "legit" ]
    (List.map
       (fun ((w : Workloads.t), rng) () ->
         let inst = leader Catalog.lazy_infinite rng w in
         let max_height = Catalog.max_height inst in
         let (Catalog.Instance { sc; hist; _ }) = inst in
         let n = w.Workloads.n and t = hist.Sync_runner.t in
         Measure.worst
           (List.map
              (fun (r : _ Stabilization.report) ->
                [
                  Table.S w.Workloads.family;
                  Table.I n;
                  Table.I w.Workloads.diameter;
                  Table.I t;
                  Table.I r.moves;
                  Table.I ((n * n * n) + (n * t));
                  Table.I r.rounds;
                  Table.I (w.Workloads.diameter + t);
                  Measure.ok_cell r.legitimate;
                ])
              (Measure.worst_case ~seeds ~max_height ~hist sc)))
       (Rng.split_per rng (Workloads.standard rng)))

let greedy_rows ~seeds rng =
  let row label n t (Catalog.Instance { sc; hist; _ }) =
    let b = P.bound_to_int sc.params.P.bound in
    Measure.worst
      (List.map
         (fun (r : _ Stabilization.report) ->
           [
             Table.S label;
             Table.I n;
             Table.I t;
             Table.I b;
             Table.I r.moves;
             Table.I ((n * n * n) + (n * b));
             Table.I r.rounds;
             Measure.ok_cell r.legitimate;
           ])
         (Measure.worst_case ~seeds ~max_height:b ~hist sc))
  in
  (* Clock with exact T, growing B: rounds must scale with B. *)
  let clock_row n k b () =
    row (Printf.sprintf "clock(T=%d)" k) n k
      (clock (Ss_graph.Builders.cycle n) ~k ~b)
  in
  (* Greedy leader election with B a small multiple of T. *)
  let leader_row ((w : Workloads.t), rng) () =
    let inst = leader (greedy (fun t -> 2 * t)) rng w in
    let (Catalog.Instance { hist; _ }) = inst in
    row ("leader/" ^ w.Workloads.family) w.Workloads.n
      (max 1 hist.Sync_runner.t) inst
  in
  Measure.table
    [ "workload"; "n"; "T"; "B"; "moves"; "n^3+nB"; "rounds"; "legit" ]
    (List.map (fun b -> clock_row 16 8 b) [ 8; 16; 32; 64 ]
    @ List.map leader_row (Rng.split_per rng (Workloads.rings [ 8; 16; 32 ])))

let recovery_rows ~seeds rng =
  let row label n d b bound_rounds bound_moves inst =
    let max_height = Catalog.max_height inst in
    let (Catalog.Instance { sc; hist; _ }) = inst in
    Measure.worst
      (List.map
         (fun (r : _ Stabilization.report) ->
           [
             Table.S label;
             Table.I n;
             Table.I d;
             b;
             Table.I r.recovery_rounds;
             Table.I bound_rounds;
             Table.I r.recovery_moves;
             Table.I bound_moves;
           ])
         (Measure.worst_case ~seeds ~max_height ~hist sc))
  in
  (* Lazy leader election, B = +inf: recovery within O(D). *)
  let leader_row ((w : Workloads.t), rng) () =
    let n = w.Workloads.n and d = w.Workloads.diameter in
    row ("leader/" ^ w.Workloads.family) n d (Table.S "inf") d (n * n * n)
      (leader Catalog.lazy_infinite rng w)
  in
  (* The B < D regime: a short clock on a long path — recovery is
     bounded by B, not by the (large) diameter. *)
  let clock_row n () =
    let b = 4 and d = n - 1 in
    row (Printf.sprintf "clock(B=%d)/path" b) n d (Table.I b) (min d b)
      (min (n * n * n) (n * n * b))
      (clock (Ss_graph.Builders.path n) ~k:b ~b)
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
         let (Catalog.Instance { sc; hist; _ }) =
           leader (greedy (fun t -> t + 2)) rng w
         in
         let b = P.bound_to_int sc.params.P.bound
         and s = Sync_runner.max_state_bits sc.params.P.sync hist in
         Measure.worst
           (List.map
              (fun (r : _ Stabilization.report) ->
                [
                  Table.S ("leader/" ^ w.Workloads.family);
                  Table.I w.Workloads.n;
                  Table.I b;
                  Table.I s;
                  Table.I (b * s);
                  Table.I r.space_bits;
                  Measure.ok_cell r.legitimate;
                ])
              (Measure.worst_case ~seeds ~max_height:b ~hist sc)))
       (Rng.split_per rng
          (Workloads.standard rng |> List.filteri (fun i _ -> i mod 3 = 0))))
