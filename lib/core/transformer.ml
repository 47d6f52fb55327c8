module Algorithm = Ss_sim.Algorithm
module Config = Ss_sim.Config
module Sync_algo = Ss_sync.Sync_algo
module Rng = Ss_prelude.Rng
module St = Trans_state
module P = Predicates

type ('s, 'i) params = ('s, 'i) P.params = {
  sync : ('s, 'i) Sync_algo.t;
  mode : P.mode;
  bound : P.bound;
}

let params ?(mode = P.Lazy) ?(bound = P.Infinite) sync =
  (match (mode, bound) with
  | P.Greedy, P.Infinite ->
      invalid_arg "Transformer.params: greedy mode requires a finite bound"
  | _, P.Finite b when b <= 0 ->
      invalid_arg "Transformer.params: the bound must be positive"
  | _ -> ());
  { sync; mode; bound }

let rr = "RR"
let rp = "RP"
let rc = "RC"
let ru = "RU"

let height_bits = function
  | P.Finite b -> Ss_prelude.Util.bit_width b
  | P.Infinite -> 32

let full_state_bits sync st =
  let bits = sync.Sync_algo.state_bits in
  1 (* status *) + bits (St.init st)
  + St.fold_cells (fun acc c -> acc + bits c) 0 st

let label_bits = 2
let rp_delta_bits p = label_bits + height_bits p.P.bound
let ru_delta_bits p cell = label_bits + p.P.sync.Sync_algo.state_bits cell

let rule_rr ~algo_err p =
  {
    Algorithm.rule_name = rr;
    guard =
      (fun v ->
        let self = v.Algorithm.self in
        (St.height self > 0 || not (St.in_error self))
        && (algo_err p v || P.dep_err p v));
    action = (fun v -> St.wipe v.Algorithm.self);
  }

let rule_rp p =
  {
    Algorithm.rule_name = rp;
    guard = (fun v -> P.err_prop_min p v > 0);
    action =
      (fun v ->
        match P.err_prop_index p v with
        | Some i -> St.with_status (St.truncate v.Algorithm.self i) St.E
        | None -> assert false);
  }

let rule_rc p =
  {
    Algorithm.rule_name = rc;
    guard = (fun v -> P.can_clear_e p v);
    action = (fun v -> St.with_status v.Algorithm.self St.C);
  }

let rule_ru ~algo_hat p =
  {
    Algorithm.rule_name = ru;
    guard = (fun v -> P.updatable_with ~algo_hat p v);
    action =
      (fun v ->
        let self = v.Algorithm.self in
        St.extend self (algo_hat p v (St.height self)));
  }

let algorithm_gen ~algo_err ~algo_hat p =
  {
    Algorithm.algo_name =
      Printf.sprintf "trans(%s,%s,B=%s)" p.sync.Sync_algo.sync_name
        (match p.mode with P.Lazy -> "lazy" | P.Greedy -> "greedy")
        (match p.bound with P.Infinite -> "inf" | P.Finite b -> string_of_int b);
    equal = St.equal p.sync.Sync_algo.equal;
    rules =
      [ rule_rr ~algo_err p; rule_rp p; rule_rc p; rule_ru ~algo_hat p ];
    pp_state = St.pp p.sync.Sync_algo.pp_state;
  }

(* One watermark cache per (algorithm instantiation × domain): the
   cache is a plain mutable array, so sharded runs — whose guard
   sweeps execute on the Ss_par pool's domains — get a lazily created
   private instance through Domain.DLS instead of racing on one
   table.  The cache is a pure memo (it never changes results), so
   per-domain instances cannot affect the execution.  DLS slots are
   never freed: a domain keeps the cache of every instantiation it
   evaluated for the life of the process (DESIGN.md §10 gives the
   size).  The same cache lends [RU] its dependency scratch. *)
let algorithm p =
  let key = Domain.DLS.new_key P.make_cache in
  let algo_hat p v i = P.algo_hat_cached (Domain.DLS.get key) p v i in
  algorithm_gen
    ~algo_err:(fun p v -> P.algo_err_cached (Domain.DLS.get key) p v)
    ~algo_hat p

let with_algo_err ~algo_err p = algorithm_gen ~algo_err ~algo_hat:P.algo_hat p

let algorithm_uncached p = with_algo_err ~algo_err:P.algo_err p

let clean_config p g ~inputs =
  Config.make g ~inputs ~states:(fun node ->
      St.clean (p.sync.Sync_algo.init (inputs node)))

let packed_config p ~codec g ~inputs =
  let cap =
    match p.bound with
    | P.Finite b -> b
    | P.Infinite ->
        invalid_arg "Transformer.packed_config: requires a finite bound"
  in
  (* One arena for the whole population: n slots of B cells each.
     Heights never exceed a finite B (RU's guard, and [corrupt] caps
     at B), so the slabs can never overflow. *)
  let arena = Cellpack.arena ~codec ~n:(Ss_graph.Graph.n g) ~cap in
  Config.make g ~inputs ~states:(fun node ->
      St.packed_clean arena ~node ~init:(p.sync.Sync_algo.init (inputs node)))

let corrupt_state rng ~max_height params input (st : 's St.t) =
  let cap = min max_height (P.bound_to_int params.bound) in
  let random_cells len =
    Array.init len (fun _ -> params.sync.Sync_algo.random_state rng input)
  in
  let random_status () = if Rng.bool rng then St.C else St.E in
  let flip_status () =
    St.with_status st (if St.in_error st then St.C else St.E)
  in
  let h = St.height st in
  match Rng.int rng 5 with
  | 0 ->
      (* Full scramble: fresh status, height and contents
         (backend-preserving: packed states are rewritten in their
         slab). *)
      St.rebuild st ~status:(random_status ())
        ~cells:(random_cells (Rng.int rng (cap + 1)))
  | 1 ->
      (* Truncation. *)
      if h = 0 then St.with_status st (random_status ())
      else St.truncate st (Rng.int rng h)
  | 2 ->
      (* Garbage extension: always at least one cell; a full list has
         no room, so degrade to a status flip rather than a no-op. *)
      if cap <= h then flip_status ()
      else
        let extra = 1 + Rng.int rng (cap - h) in
        St.rebuild st ~status:(St.status st)
          ~cells:(Array.append (St.cells st) (random_cells extra))
  | 3 ->
      (* Single-cell flip; an empty list with no capacity degrades to
         a status flip rather than a no-op. *)
      if h = 0 then
        if cap = 0 then flip_status ()
        else St.extend st (params.sync.Sync_algo.random_state rng input)
      else begin
        let i = Rng.int rng h in
        let cells = St.cells st in
        cells.(i) <- params.sync.Sync_algo.random_state rng input;
        St.rebuild st ~status:(St.status st) ~cells
      end
  | _ -> flip_status ()

let corrupt rng ?p ~max_height params config =
  Ss_sim.Fault.corrupt rng ?p
    (fun rng input st -> corrupt_state rng ~max_height params input st)
    config

let outputs config = Array.map St.top config.Config.states
