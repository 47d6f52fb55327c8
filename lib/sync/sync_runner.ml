module Graph = Ss_graph.Graph
module Budget = Ss_report.Budget

type ('s, 'i) history = {
  graph : Graph.t;
  inputs : 'i array;
  states_by_round : 's array array;
  t : int;
}

exception Did_not_terminate of string

(* The fixpoint iteration is dirty-set incremental: [step] reads only
   the closed neighborhood, so a node can change in a round only if a
   node of its closed neighborhood changed in the previous round.
   Recomputing exactly those nodes yields the same row sequence as
   recomputing all of them (skipped nodes provably keep their state),
   while convergence tails touch only the still-active region.  The
   dirty and changed sets live in two run-owned arrays, and [step]
   reads its neighbours from one buffer per degree ([step] must not
   retain it, see {!Sync_algo.t}), so a round allocates only its
   row. *)
let run ?(budget = Budget.unlimited) ?stop_after algo g ~inputs =
  let n = Graph.n g in
  let stopped round =
    match stop_after with Some s -> round >= s | None -> false
  in
  let max_rounds = Option.value budget.Budget.steps ~default:((4 * n) + 64) in
  let deadline = Budget.deadline budget in
  let give_up what round =
    raise
      (Did_not_terminate
         (Printf.sprintf "%s did not reach a fixpoint within %s (%d rounds)"
            algo.Sync_algo.sync_name what round))
  in
  let inputs = Array.init n inputs in
  let row0 = Array.init n (fun p -> algo.Sync_algo.init inputs.(p)) in
  (* [dirty.(0 .. ndirty-1)]: the nodes to recompute this round, each
     once ([stamp.(p)] is the last round that listed [p]); every node
     in round 0. *)
  let dirty = Array.init n Fun.id and ndirty = ref n in
  let changed = Array.make n 0 and nchanged = ref 0 in
  let stamp = Array.make n 0 in
  let bufs = Ss_prelude.Scratch.create () in
  let touch round p =
    if stamp.(p) <> round then begin
      stamp.(p) <- round;
      dirty.(!ndirty) <- p;
      incr ndirty
    end
  in
  (* Every round copies its n-entry row, which outweighs a clock read,
     so the deadline is polled by force once per round. *)
  let rec go rows current round =
    if stopped round then (List.rev rows, round)
    else begin
      if round > max_rounds then
        give_up (Printf.sprintf "the %d-round budget" max_rounds) round;
      if Budget.poll_now deadline then give_up "the wall-clock deadline" round;
      let next = Array.copy current in
      nchanged := 0;
      for k = 0 to !ndirty - 1 do
        let p = dirty.(k) in
        let deg = Graph.degree g p in
        let neighbors = Ss_prelude.Scratch.get bufs deg current.(p) in
        for i = 0 to deg - 1 do
          neighbors.(i) <- current.(Graph.nbr g p i)
        done;
        let s' = algo.Sync_algo.step inputs.(p) current.(p) neighbors in
        if not (algo.Sync_algo.equal current.(p) s') then begin
          next.(p) <- s';
          changed.(!nchanged) <- p;
          incr nchanged
        end
      done;
      if !nchanged = 0 then (List.rev rows, round)
      else begin
        ndirty := 0;
        for k = 0 to !nchanged - 1 do
          let p = changed.(k) in
          touch (round + 1) p;
          for i = 0 to Graph.degree g p - 1 do
            touch (round + 1) (Graph.nbr g p i)
          done
        done;
        go (next :: rows) next (round + 1)
      end
    end
  in
  let rows, t = go [ row0 ] row0 0 in
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
