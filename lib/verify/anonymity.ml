module Algorithm = Ss_sim.Algorithm
module Sync_algo = Ss_sync.Sync_algo
module Rng = Ss_prelude.Rng

let random_neighbors rng gen_state max_degree =
  Array.init (Rng.int rng (max_degree + 1)) (fun _ -> gen_state rng)

let shuffled rng a =
  let b = Array.copy a in
  Rng.shuffle rng b;
  b

let sync_step_port_invariant ~rng ~trials algo ~gen_input ~gen_state ~max_degree =
  let rec go t =
    t >= trials
    ||
    let input = gen_input rng in
    let self = gen_state rng in
    let nbrs = random_neighbors rng gen_state max_degree in
    let a = algo.Sync_algo.step input self nbrs in
    let b = algo.Sync_algo.step input self (shuffled rng nbrs) in
    algo.Sync_algo.equal a b && go (t + 1)
  in
  go 0

let sync_step_multiset_invariant ~rng ~trials algo ~gen_input ~gen_state
    ~max_degree =
  let rec go t =
    t >= trials
    ||
    let input = gen_input rng in
    let self = gen_state rng in
    let nbrs = random_neighbors rng gen_state max_degree in
    if Array.length nbrs = 0 then go (t + 1)
    else begin
      let dup = nbrs.(Rng.int rng (Array.length nbrs)) in
      let a = algo.Sync_algo.step input self nbrs in
      let b = algo.Sync_algo.step input self (Array.append nbrs [| dup |]) in
      algo.Sync_algo.equal a b && go (t + 1)
    end
  in
  go 0

let rules_port_invariant ~rng ~trials algo ~gen_input ~gen_state ~max_degree =
  let outcome view =
    match Algorithm.enabled_rule algo view with
    | None -> None
    | Some rule -> Some (rule.Algorithm.rule_name, rule.Algorithm.action view)
  in
  let same a b =
    match (a, b) with
    | None, None -> true
    | Some (ra, sa), Some (rb, sb) -> ra = rb && algo.Algorithm.equal sa sb
    | None, Some _ | Some _, None -> false
  in
  let rec go t =
    t >= trials
    ||
    let input = gen_input rng in
    let self = gen_state rng in
    let nbrs = random_neighbors rng gen_state max_degree in
    let va = { Algorithm.input; self; neighbors = nbrs; node = 0 } in
    let vb = { va with neighbors = shuffled rng nbrs } in
    same (outcome va) (outcome vb) && go (t + 1)
  in
  go 0
