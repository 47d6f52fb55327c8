module Algorithm = Ss_sim.Algorithm
module Config = Ss_sim.Config
module Sync_algo = Ss_sync.Sync_algo
module Sync_runner = Ss_sync.Sync_runner
module Util = Ss_prelude.Util
module Rng = Ss_prelude.Rng
module P = Ss_core.Predicates

type 's state = { init : 's; cells : 's array }

let height st = Array.length st.cells

let cell st i =
  if i = 0 then st.init
  else if i >= 1 && i <= height st then st.cells.(i - 1)
  else invalid_arg "Rollback.cell"

let equal eq a b = eq a.init b.init && Util.array_equal eq a.cells b.cells
let fix = "FIX"

let recompute sync (v : ('s state, 'i) Algorithm.view) =
  let self = v.Algorithm.self in
  let b = height self in
  let cells =
    Array.init b (fun idx ->
        let i = idx + 1 in
        sync.Sync_algo.step v.Algorithm.input
          (cell self (i - 1))
          (Array.map (fun nb -> cell nb (i - 1)) v.Algorithm.neighbors))
  in
  { self with cells }

let algorithm sync ~bound =
  if bound < 1 then invalid_arg "Rollback.algorithm: bound must be >= 1";
  let eq = equal sync.Sync_algo.equal in
  {
    Algorithm.algo_name =
      Printf.sprintf "rollback(%s,B=%d)" sync.Sync_algo.sync_name bound;
    equal = eq;
    rules =
      [
        {
          Algorithm.rule_name = fix;
          guard = (fun v -> not (eq v.Algorithm.self (recompute sync v)));
          action = (fun v -> recompute sync v);
        };
      ];
    pp_state =
      (fun ppf st ->
        Format.fprintf ppf "[%a]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
             sync.Sync_algo.pp_state)
          (Array.to_list st.cells));
    store = Algorithm.immutable;
  }

let clean_config sync ~bound g ~inputs =
  Config.make g ~inputs ~states:(fun p ->
      let init = sync.Sync_algo.init (inputs p) in
      { init; cells = Array.make bound init })

let config_of_cells g ~inputs ~init ~cells ~bound =
  Config.make g ~inputs ~states:(fun p ->
      { init = init p; cells = Array.init bound (fun idx -> cells p (idx + 1)) })

let simulates_history sync history config =
  let eq = sync.Sync_algo.equal in
  let ok p =
    let st = Config.state config p in
    eq st.init (Sync_runner.state_at history ~round:0 ~node:p)
    &&
    let rec go i =
      i > height st
      || (eq (cell st i) (Sync_runner.state_at history ~round:i ~node:p)
         && go (i + 1))
    in
    go 1
  in
  let rec go p = p >= Config.n config || (ok p && go (p + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Registry entry                                                       *)
(* ------------------------------------------------------------------ *)

let bound_of (p : ('s, 'i) P.params) =
  match p.P.bound with
  | P.Finite b -> b
  | P.Infinite -> invalid_arg "Rollback: requires a finite bound"

module Entry = struct
  let name = "rollback"

  let doc =
    "§7 rollback compiler (Awerbuch-Varghese): fixed-length lists, one FIX \
     rule recomputing every cell; exponential moves in the worst case"

  type nonrec 's state = 's state

  let supports (p : ('s, 'i) P.params) =
    match p.P.bound with
    | P.Finite _ -> Ok ()
    | P.Infinite -> Error "the rollback compiler requires a finite bound B"

  let algorithm p = algorithm p.P.sync ~bound:(bound_of p)
  let reference_algorithm = algorithm

  let clean_config p g ~inputs =
    clean_config p.P.sync ~bound:(bound_of p) g ~inputs

  (* Fixed-length lists of any state: no packed arena layout. *)
  let packed_start = None

  (* The fault model: scramble each cell with probability 1/2 (lengths
     are fixed, [init] is read-only), always redrawing one more cell so
     a hit node is actually hit. *)
  let corrupt_state rng ~max_height:_ (p : ('s, 'i) P.params) input st =
    let b = height st in
    let cells =
      Array.map
        (fun c ->
          if Rng.bool rng then p.P.sync.Sync_algo.random_state rng input
          else c)
        st.cells
    in
    if b > 0 then begin
      let i = Rng.int rng b in
      cells.(i) <- p.P.sync.Sync_algo.random_state rng input
    end;
    { st with cells }

  let outputs config =
    Array.map (fun st -> cell st (height st)) config.Config.states

  let state_bits (p : ('s, 'i) P.params) st =
    let bits = p.P.sync.Sync_algo.state_bits in
    bits st.init + Array.fold_left (fun acc c -> acc + bits c) 0 st.cells

  let space_bits p config =
    Array.fold_left
      (fun acc st -> max acc (state_bits p st))
      0 config.Config.states

  (* No delta encoding is available: a FIX move may rewrite any subset
     of the cells, so announcing it broadcasts the whole list — the
     §7 half of the paper's energy argument. *)
  let move_bits p ~rule:_ st = state_bits p st

  let legitimate_terminal p hist config =
    if not (Config.is_terminal (algorithm p) config) then
      Error "configuration is not terminal"
    else if not (simulates_history p.P.sync hist config) then
      Error "terminal lists do not match the synchronous history"
    else Ok ()

  (* No recovery phase: FIX has no roots, so nothing marks a
     configuration from which the run is known to be recovered. *)
  let has_root = None
end

let transformer : Ss_core.Registry.entry = (module Entry)
