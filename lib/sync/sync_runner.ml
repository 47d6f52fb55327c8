module Graph = Ss_graph.Graph
module Budget = Ss_report.Budget
module Run_report = Ss_report.Run_report

type ('s, 'i) history = {
  graph : Graph.t;
  inputs : 'i array;
  states_by_round : 's array array;
  t : int;
}

type 's sink = round:int -> changed:int list -> 's array -> unit

exception Did_not_terminate of string

(* The fixpoint iteration is dirty-set incremental: [step] reads only
   the closed neighborhood, so a node can change in a round only if a
   node of its closed neighborhood changed in the previous round.
   Recomputing exactly those nodes yields the same row sequence as
   recomputing all of them (skipped nodes provably keep their state),
   while convergence tails touch only the still-active region. *)
let run ?(budget = Budget.unlimited) ?stop_after ?(sinks = []) algo g
    ~inputs =
  let n = Graph.n g in
  let stopped round =
    match stop_after with Some s -> round >= s | None -> false
  in
  let max_rounds = Option.value budget.Budget.steps ~default:((4 * n) + 64) in
  let deadline = Budget.deadline_check budget in
  let emit =
    match sinks with
    | [] -> fun ~round:_ ~changed:_ _ -> ()
    | sinks ->
        fun ~round ~changed row ->
          List.iter (fun s -> s ~round ~changed row) sinks
  in
  let give_up what round =
    raise
      (Did_not_terminate
         (Printf.sprintf "%s did not reach a fixpoint within %s (%d rounds)"
            algo.Sync_algo.sync_name what round))
  in
  let inputs = Array.init n inputs in
  let row0 = Array.init n (fun p -> algo.Sync_algo.init inputs.(p)) in
  let stamp = Array.make n (-1) in
  let dirty_of changed ~epoch =
    let acc = ref [] in
    let touch p =
      if stamp.(p) <> epoch then begin
        stamp.(p) <- epoch;
        acc := p :: !acc
      end
    in
    List.iter
      (fun p ->
        touch p;
        Array.iter touch (Graph.neighbors g p))
      changed;
    !acc
  in
  let rec go rows current dirty round =
    if stopped round then (List.rev rows, round)
    else begin
    if round > max_rounds then
      give_up (Printf.sprintf "the %d-round budget" max_rounds) round;
    if deadline () then give_up "the wall-clock deadline" round;
    let next = Array.copy current in
    let changed = ref [] in
    List.iter
      (fun p ->
        let neighbors =
          Array.map (fun q -> current.(q)) (Graph.neighbors g p)
        in
        let s' = algo.Sync_algo.step inputs.(p) current.(p) neighbors in
        if not (algo.Sync_algo.equal current.(p) s') then begin
          next.(p) <- s';
          changed := p :: !changed
        end)
      dirty;
    match !changed with
    | [] -> (List.rev rows, round)
    | changed ->
        emit ~round:(round + 1) ~changed next;
        go (next :: rows) next (dirty_of changed ~epoch:round) (round + 1)
    end
  in
  emit ~round:0 ~changed:(List.init n Fun.id) row0;
  let rows, t = go [ row0 ] row0 (List.init n Fun.id) 0 in
  { graph = g; inputs; states_by_round = Array.of_list rows; t }

let state_at h ~round ~node =
  let r = min round h.t in
  h.states_by_round.(r).(node)

let final h = h.states_by_round.(h.t)
let execution_time h = h.t

let max_state_bits algo h =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun acc s -> max acc (algo.Sync_algo.state_bits s)) acc row)
    0 h.states_by_round

let report ?(label = "sync-run") ?seed ?wall_s h =
  Run_report.v ?seed ?wall_s ~outcome:Budget.Completed label
    (Run_report.Sync { Run_report.sync_rounds = h.t; nodes = Graph.n h.graph })
