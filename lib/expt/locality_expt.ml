module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util
module G = Ss_graph
module Stabilization = Ss_verify.Stabilization
module Sync_runner = Ss_sync.Sync_runner
module Lv = Ss_algos.Local_views

let int_views =
  Lv.algo ~equal:Int.equal
    ~input_bits:(fun v -> 1 + Util.bit_width (abs v))
    ~random_input:(fun rng -> Rng.int rng 64)
    ~pp:Format.pp_print_int

let rows ~seeds _ =
  let workloads =
    [ ("ring", G.Builders.cycle 10); ("grid", G.Builders.grid ~rows:3 ~cols:4) ]
  in
  (* (workload × radius) rows over the fixed inputs p -> 13p mod 31. *)
  Measure.table
    [
      "graph"; "n"; "radius"; "T"; "S(view-bits)"; "B*S"; "space-bits";
      "moves"; "rounds"; "legit";
    ]
    (List.concat_map
       (fun (name, g) ->
         List.map
           (fun radius () ->
             let base p = (p * 13) mod 31 in
             let (Catalog.Instance { sc; hist; _ }) =
               Catalog.instance Catalog.lazy_infinite
                 (Catalog.Inst
                    {
                      sync = int_views;
                      inputs = (fun p -> { Lv.self_input = base p; radius });
                      spec = (fun _ -> true);
                      codec = None;
                    })
                 g
             in
             let t = hist.Sync_runner.t in
             let s = Sync_runner.max_state_bits sc.params.sync hist in
             Measure.worst
               (List.map
                  (fun (r : _ Stabilization.report) ->
                    [
                      Table.S name;
                      Table.I (G.Graph.n g);
                      Table.I radius;
                      Table.I t;
                      Table.I s;
                      Table.I ((t + 2) * s);
                      Table.I r.space_bits;
                      Table.I r.moves;
                      Table.I r.rounds;
                      Measure.ok_cell r.legitimate;
                    ])
                  (Measure.worst_case ~seeds ~max_height:(t + 2) ~hist sc)))
           [ 1; 2; 3; 4 ])
       workloads)
