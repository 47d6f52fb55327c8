module Sync_algo = Ss_sync.Sync_algo
module Graph = Ss_graph.Graph
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util

type state = int
type input = int

let algo =
  {
    Sync_algo.sync_name = "leader-election";
    equal = Int.equal;
    init = (fun id -> id);
    step = (fun _id self neighbors -> Util.fold_min self neighbors);
    random_state = (fun rng _ -> Rng.int rng 65536);
    state_bits = (fun s -> 1 + Util.bit_width (abs s));
    pp_state = Format.pp_print_int;
  }

let codec = Ss_core.Cellpack.int_codec

let sequential_ids _g p = p

let random_ids rng g =
  let n = Graph.n g in
  let pool = Array.init (16 * n) (fun i -> i) in
  Rng.shuffle rng pool;
  let ids = Array.sub pool 0 n in
  fun p -> ids.(p)

let spec_holds g ~inputs ~final =
  let leader =
    Graph.fold_nodes g ~init:max_int ~f:(fun acc p -> min acc (inputs p))
  in
  Array.for_all (fun s -> s = leader) final
