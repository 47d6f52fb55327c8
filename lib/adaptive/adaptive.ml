module Algorithm = Ss_sim.Algorithm
module Config = Ss_sim.Config
module Sync_algo = Ss_sync.Sync_algo
module Sync_runner = Ss_sync.Sync_runner
module Util = Ss_prelude.Util
module St = Ss_core.Trans_state
module P = Ss_core.Predicates
module Checker = Ss_core.Checker
module T = Ss_core.Transformer

let rs = "RS"
let rx = "RX"
let co = "CO"

let bound_of (p : ('s, 'i) P.params) =
  match p.P.bound with
  | P.Finite b -> b
  | P.Infinite -> invalid_arg "Adaptive: requires a finite bound"

(* RS: the node detects a refuted checkable cell and truncates its
   list just below the first one.  Unlike the §3 error broadcast
   ([RR] wipes the whole list and recruits the neighborhood into an
   error DAG), the damage stays where the fault is: cells below the
   refuted one were just verified against the current neighbor cells
   and survive. *)
let truncation_height p (v : ('s, 'i) P.view) =
  let i = P.first_bad p v ~base:0 ~top:(P.top_checkable v) in
  i - 1

let rule_rs ~algo_err p =
  {
    Algorithm.rule_name = rs;
    guard = (fun v -> algo_err p v);
    action =
      (fun v -> St.truncate v.Algorithm.self (truncation_height p v));
  }

(* RX: extend when no refuted cell exists, the list is not full, and
   every dependency for the next cell is present.  There is no upper
   neighbor-height window (§3's [updatable] requires [nb <= h+1]):
   after a point truncation the neighbors may tower arbitrarily high
   above the repaired node, and waiting for them would deadlock. *)
let rule_rx ~algo_hat p =
  let b = bound_of p in
  {
    Algorithm.rule_name = rx;
    guard =
      (fun v ->
        let h = St.height v.Algorithm.self in
        h < b && P.min_neighbor_height v >= h);
    action =
      (fun v ->
        let self = v.Algorithm.self in
        St.extend self (algo_hat p v (St.height self)));
  }

(* CO: a node still flagged [E] by a transient fault clears the flag
   once its simulation is complete.  The adaptive rules never set [E]
   themselves — the status is carried only so the transformer shares
   {!Trans_state} (and the packed backend) with the §3 system. *)
let rule_co p =
  let b = bound_of p in
  {
    Algorithm.rule_name = co;
    guard = (fun v -> St.in_error v.Algorithm.self && St.height v.Algorithm.self = b);
    action = (fun v -> St.with_status v.Algorithm.self St.C);
  }

let algorithm_gen ~algo_err ~algo_hat p =
  let b = bound_of p in
  {
    Algorithm.algo_name =
      Printf.sprintf "adaptive(%s,B=%d)" p.P.sync.Sync_algo.sync_name b;
    equal = St.equal p.P.sync.Sync_algo.equal;
    rules = [ rule_rs ~algo_err p; rule_rx ~algo_hat p; rule_co p ];
    pp_state = St.pp p.P.sync.Sync_algo.pp_state;
    store = Algorithm.in_place ~copy:St.copy ~assign:St.assign;
  }

(* Same per-(instantiation × domain) watermark-cache discipline as
   {!Ss_core.Transformer.algorithm}. *)
let algorithm p =
  ignore (bound_of p);
  let algo_err, algo_hat = P.per_domain_cached () in
  algorithm_gen ~algo_err ~algo_hat p

let algorithm_uncached p =
  ignore (bound_of p);
  algorithm_gen ~algo_err:P.algo_err ~algo_hat:P.algo_hat p

(* The state space is exactly the §3 transformer's, so configurations,
   the packed backend and the fault model are shared. *)
let clean_config = T.clean_config
let packed_config = T.packed_config
let corrupt = T.corrupt

let converged_config p hist g ~inputs =
  let b = bound_of p in
  Config.make g ~inputs ~states:(fun node ->
      let init = p.P.sync.Sync_algo.init (inputs node) in
      St.make ~init ~status:St.C
        ~cells:
          (Array.init b (fun i ->
               Sync_runner.state_at hist ~round:(i + 1) ~node)))

(* ------------------------------------------------------------------ *)
(* Registry entry                                                       *)
(* ------------------------------------------------------------------ *)

module Hooks = struct
  let name = "adaptive"

  let doc =
    "fully adaptive transformer (Bitton-Emek-Izumi-Kutten, arXiv \
     2105.09756): point truncation (RS) instead of error broadcast; \
     recovery work scales with the number of corrupted nodes"

  type 's state = 's St.t

  let supports (p : ('s, 'i) P.params) =
    match p.P.bound with
    | P.Finite _ -> Ok ()
    | P.Infinite -> Error "the adaptive transformer requires a finite bound B"

  let algorithm = algorithm
  let reference_algorithm = algorithm_uncached
  let clean_config = clean_config
  let corrupt_state = T.corrupt_state
  let outputs = T.outputs
  let space_bits = Checker.space_bits

  (* Delta encoding in the §6 style: a move announces its rule label
     plus what changed — the new cell for [RX], the new height for
     [RS] (truncation points anywhere below [B]), nothing extra for
     [CO]. *)
  let move_bits p ~rule st =
    let label = 2 in
    if rule = rx then label + p.P.sync.Sync_algo.state_bits (St.top st)
    else if rule = rs then label + Util.bit_width (bound_of p)
    else label

  let legitimate_terminal p hist config =
    let b = bound_of p in
    if not (Config.is_terminal (algorithm p) config) then
      Error "configuration is not terminal"
    else if
      not
        (Array.for_all
           (fun st -> St.height st = b)
           config.Config.states)
    then Error "some terminal height differs from B"
    else if not (Checker.simulates_history p hist config) then
      Error "terminal lists do not match the synchronous history"
    else Ok ()
end

module Entry = struct
  include Hooks
  include Ss_core.Registry.Make (Hooks)
end

let transformer : Ss_core.Registry.entry = (module Entry)
