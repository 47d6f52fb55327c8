module Sync_algo = Ss_sync.Sync_algo
module Graph = Ss_graph.Graph
module Util = Ss_prelude.Util

type state = int
type input = int

let algo =
  {
    Sync_algo.sync_name = "min-flood";
    equal = Int.equal;
    init = (fun v -> v);
    step = (fun _input self neighbors -> Util.fold_min self neighbors);
    random_state = (fun rng _ -> Ss_prelude.Rng.int_in rng (-1024) 1024);
    state_bits = (fun s -> 1 + Util.bit_width (abs s));
    pp_state = Format.pp_print_int;
  }

let codec = Ss_core.Cellpack.int_codec

let inputs_of_values values p = values.(p)

let spec_holds g ~inputs ~final =
  let global_min =
    Graph.fold_nodes g ~init:max_int ~f:(fun acc p -> min acc (inputs p))
  in
  Array.for_all (fun s -> s = global_min) final
