module Sync_algo = Ss_sync.Sync_algo
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util

let bits s = 1 + Util.bit_width (abs s)

let constant =
  {
    Sync_algo.sync_name = "constant";
    equal = Int.equal;
    init = (fun v -> v);
    step = (fun _ self _ -> self);
    random_state = (fun rng _ -> Rng.int rng 256);
    state_bits = bits;
    pp_state = Format.pp_print_int;
  }

let clock =
  {
    Sync_algo.sync_name = "clock";
    equal = Int.equal;
    init = (fun _k -> 0);
    step = (fun k self _ -> if self < k then self + 1 else self);
    random_state = (fun rng k -> Rng.int rng (max 1 (2 * k)));
    state_bits = bits;
    pp_state = Format.pp_print_int;
  }

let max_flood =
  {
    Sync_algo.sync_name = "max-flood";
    equal = Int.equal;
    init = (fun v -> v);
    step = (fun _ self neighbors -> Util.fold_max self neighbors);
    random_state = (fun rng _ -> Rng.int_in rng (-1024) 1024);
    state_bits = bits;
    pp_state = Format.pp_print_int;
  }
