module Gk = Ss_graph.Gk
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Budget = Ss_report.Budget
module Min_flood = Ss_algos.Min_flood

let bound_for k = (3 * k) + 2

let initial_config ~k =
  let g = Gk.make k in
  let bound = bound_for k in
  let index = Array.init (Ss_graph.Graph.n g) (fun v -> Gk.fig1_index ~k v) in
  Rollback.config_of_cells g
    ~inputs:(fun _ -> 1)
    ~init:(fun _ -> 1)
    ~cells:(fun p i -> if i < index.(p) then 1 else 0)
    ~bound

let rec gamma_parts k =
  if k = 1 then [ Gk.node ~k:1 Gk.A 1 ]
  else begin
    let i = k - 1 in
    let prev = gamma_parts i in
    let bottom = Gk.bottom_path ~k:i i in
    let a_nodes = List.init i (fun j -> Gk.node ~k:i Gk.A (j + 1)) in
    prev
    @ [ Gk.node ~k Gk.B k ]
    @ bottom @ a_nodes
    @ [ Gk.node ~k Gk.A k; Gk.node ~k Gk.B k ]
    @ bottom @ prev
  end

let gamma k =
  if k < 1 then invalid_arg "Blowup.gamma";
  gamma_parts k

let gamma_length k =
  let rec go i acc = if i >= k then acc else go (i + 1) ((2 * acc) + (7 * i) + 3) in
  go 1 1

type result = {
  k : int;
  n : int;
  schedule_moves : int;
  total_moves : int;
  total_rounds : int;
  stabilized : bool;
}

let run ~k () =
  let config = initial_config ~k in
  let algo = Rollback.algorithm Min_flood.algo ~bound:(bound_for k) in
  let schedule = List.map (fun p -> [ p ]) (gamma k) in
  let schedule_moves = List.length schedule in
  let daemon = Daemon.scripted ~fallback:Daemon.synchronous schedule in
  let stats =
    Engine.run ~budget:(Budget.v ~steps:50_000_000 ()) algo daemon config
  in
  let all_ones =
    Array.for_all
      (fun st -> Array.for_all (fun c -> c = 1) st.Rollback.cells)
      stats.Engine.final.Config.states
  in
  {
    k;
    n = 5 * k;
    schedule_moves;
    total_moves = stats.Engine.moves;
    total_rounds = stats.Engine.rounds;
    stabilized = stats.Engine.terminated && all_ones;
  }
