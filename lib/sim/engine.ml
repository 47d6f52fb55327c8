module Budget = Ss_report.Budget

exception Invalid_selection of string
exception Divergence of string

type ('s, 'i) stats = {
  final : ('s, 'i) Config.t;
  steps : int;
  moves : int;
  rounds : int;
  terminated : bool;
  outcome : Budget.outcome;
  moves_per_node : int array;
  moves_per_rule : (string * int) list;
}

type ('s, 'i) observer =
  step:int -> rounds:int -> moved:(int * string) list -> ('s, 'i) Config.t -> unit

type ('s, 'i) chaos = {
  plan : Ss_chaos.Fault_plan.t;
  mutate : Ss_prelude.Rng.t -> int -> ('s, 'i) Config.t -> 's;
}

let no_observer ~step:_ ~rounds:_ ~moved:_ _ = ()

let tee = function
  | [] -> no_observer
  | [ o ] -> o
  | os ->
      fun ~step ~rounds ~moved config ->
        List.iter (fun o -> o ~step ~rounds ~moved config) os

let divergence_sink ~checked:(what, actual) ~reference:(against, expected)
    ~step:_ ~rounds:_ ~moved:_ config =
  let a = actual config in
  let e = expected config in
  if a <> e then
    let show l = String.concat "," (List.map string_of_int l) in
    raise
      (Divergence
         (Printf.sprintf "%s enabled set {%s} disagrees with %s {%s}" what
            (show a) against (show e)))

(* One bus for the optional single observer, the sink list, and any
   internal sinks (self-check): everyone sees the same events in the
   same order.  Also says whether anyone listens, so an unobserved run
   can skip building each step's [moved] list. *)
let bus ?observer ?(sinks = []) internal =
  let all =
    (match observer with Some o -> o :: sinks | None -> sinks) @ internal
  in
  (tee all, all <> [])

(* Selection validation, one validator per run.  Duplicates are found
   against a run-owned stamp array — [marks.(p) = !tick] iff [p]
   already appeared in the current selection — so no step builds a
   table, and a singleton selection (every central-daemon step)
   touches no structure at all.  Each node is checked in selection
   order for range, then repetition, then enabledness, so the first
   offending node names the error. *)
let validator n =
  let marks = Array.make n 0 in
  let tick = ref 0 in
  let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid_selection m)) fmt in
  let in_range p = if p < 0 || p >= n then invalid "node %d out of range" p in
  let enabled is_enabled p =
    if not (is_enabled p) then invalid "node %d selected but not enabled" p
  in
  fun ~is_enabled selected ->
    match selected with
    | [] -> invalid "daemon selected no node"
    | [ p ] ->
        in_range p;
        enabled is_enabled p
    | _ ->
        incr tick;
        List.iter
          (fun p ->
            in_range p;
            if marks.(p) = !tick then invalid "node %d selected twice" p;
            marks.(p) <- !tick;
            enabled is_enabled p)
          selected

let validate_selection validate enabled selected =
  let members = Hashtbl.create (max 8 (List.length enabled)) in
  List.iter (fun p -> Hashtbl.replace members p ()) enabled;
  validate ~is_enabled:(Hashtbl.mem members) selected

let rule_of_selected rule_of p =
  match rule_of p with
  | Some rule -> rule
  | None -> assert false (* validated by the caller *)

(* Execute a validated selection on a copy of the states: the path of
   [step] and [run_naive], the reference twins ([run] steps in place,
   below).  [rule_of p] is the enabled rule the selection was
   validated against.  Every action reads the pre-step configuration:
   views are built from [config], whose own array is never written.
   The twins keep the allocating reference view (Config.view, a fresh
   neighbours array per mover); [run] lends borrowed ones. *)
let apply config ~rule_of selected =
  let states = Array.copy config.Config.states in
  let moved =
    List.map
      (fun p ->
        let r = rule_of_selected rule_of p in
        states.(p) <- r.Algorithm.action (Config.view config p);
        (p, r.Algorithm.rule_name))
      selected
  in
  (Config.with_states config states, moved)

let step algo config selected =
  let enabled = Config.enabled_nodes algo config in
  validate_selection (validator (Config.n config)) enabled selected;
  apply config
    ~rule_of:(fun p -> Algorithm.enabled_rule algo (Config.view config p))
    selected

(* Hard move budget: activating a full selection could overshoot
   the move cap by up to n-1 moves (the bound used to be checked only
   between steps), so the final, budget-crossing step executes only a
   prefix of the daemon's selection, in the daemon's order: the list
   prefix for [run_naive], the same prefix copied into the run-owned
   array for [run] ({!copy_selection}). *)
let cap_selection ~budget selected =
  (* Sharing-preserving and stack-safe: [selected] itself when it fits
     (the overwhelmingly common case — checked without measuring the
     full length), else its first [budget] elements.  A synchronous
     selection at n = 10^6 must neither recurse per element nor pay
     O(n) when the budget is effectively unlimited. *)
  if List.compare_length_with selected budget <= 0 then selected
  else begin
    let rec take acc k l =
      match l with
      | x :: tl when k > 0 -> take (x :: acc) (k - 1) tl
      | _ -> List.rev acc
    in
    take [] budget selected
  end

(* The three integer/clock limits of one run, read once from its
   budget: 10,000,000 steps when it sets none, moves unlimited. *)
let limits ?(budget = Budget.unlimited) ?now () =
  ( Option.value budget.Budget.steps ~default:10_000_000,
    Option.value budget.Budget.moves ~default:max_int,
    Budget.deadline_check ?now budget )

(* Shared per-run accounting: per-node and per-rule move counters
   ([note p label] counts one move) and the final stats record.  A
   move's rule is found by scanning the algorithm's handful of labels
   ([String.equal] returns at once on the physically shared label)
   rather than hashing the label on every move; a repeated label
   counts at its first slot. *)
let make_counters algo n =
  let moves_per_node = Array.make n 0 in
  let names = Array.of_list (Algorithm.rule_names algo) in
  let per_rule = Array.make (Array.length names) 0 in
  let slot r =
    let rec go i =
      if i >= Array.length names || String.equal names.(i) r then i
      else go (i + 1)
    in
    go 0
  in
  let note_move p r =
    moves_per_node.(p) <- moves_per_node.(p) + 1;
    let i = slot r in
    if i < Array.length names then per_rule.(i) <- per_rule.(i) + 1
  in
  let finish tracker (final, steps, moves, outcome) =
    {
      final;
      steps;
      moves;
      rounds = Rounds.completed tracker;
      terminated = outcome = Budget.Completed;
      outcome;
      moves_per_node;
      moves_per_rule =
        Array.to_list (Array.map (fun r -> (r, per_rule.(slot r))) names);
    }
  in
  (note_move, finish)

(* The run-owned copy of a validated selection: its first [budget]
   nodes, in the daemon's order, written into [sel] (grown to [n]
   slots the first time a selection has more than one node).  Returns
   the count.  The daemon's list dies young: nothing the run keeps
   points into it. *)
let copy_selection sel ~n ~budget selected =
  let rec fill a i = function
    | p :: rest when i < budget ->
        a.(i) <- p;
        fill a (i + 1) rest
    | _ -> i
  in
  (match selected with
  | _ :: _ :: _ when Array.length !sel < n -> sel := Array.make n 0
  | _ -> ());
  fill !sel 0 selected

let run ?budget ?now ?chaos ?(self_check = false) ?(sharded = false)
    ?observer ?sinks algo daemon config =
  let n = Config.n config in
  let max_steps, max_moves, deadline = limits ?budget ?now () in
  let note_move, finish = make_counters algo n in
  (* The run owns the state handles it writes (see {!Algorithm.store}):
     every start handle is copied once, and every move, corruption and
     synchronous write-back goes through [write], so the caller's
     configuration is never written and no step pays an O(n) copy.
     Sinks borrow the live configuration for the duration of each call
     (see the interface). *)
  let store = algo.Algorithm.store in
  let write = store.Algorithm.write in
  let config =
    Config.with_states config (Array.map store.Algorithm.copy config.Config.states)
  in
  let states = config.Config.states in
  let sched = Sched.create ~parallel:sharded algo config in
  let rule_of = Sched.enabled_rule sched in
  let validate = validator n in
  (* Divergence checking is just another sink on the bus: it reads the
     configuration each event reaches and compares the incrementally
     maintained enabled set against a full naive scan. *)
  let check_sink =
    divergence_sink
      ~checked:("incremental", fun _ -> Sched.enabled sched)
      ~reference:("full scan", Config.enabled_nodes algo)
  in
  let emit, observed =
    bus ?observer ?sinks (if self_check then [ check_sink ] else [])
  in
  (* The movers of the current step ([sel], its first [k] slots) and,
     for a multi-mover step, their new states: [next.(i)] is an owned
     handle that receives the [i]-th mover's new value before any is
     written back, so every action reads the pre-step configuration.
     Both are allocated on the first multi-mover step.  [views] lends
     the actions' neighbour buffers: actions, like guards, must not
     retain the neighbours array (see the interface). *)
  let sel = ref [| 0 |] in
  let next = ref [||] in
  let views = Ss_prelude.Scratch.create () in
  let execute budget selected =
    match selected with
    | [ p ] ->
        (* One mover (every central-daemon step): nothing else reads
           the pre-step state, so write it straight away. *)
        let r = rule_of_selected rule_of p in
        write states p (r.Algorithm.action (Config.borrowed_view views config p));
        note_move p r.Algorithm.rule_name;
        !sel.(0) <- p;
        (1, [ (p, r.Algorithm.rule_name) ])
    | _ ->
        let k = copy_selection sel ~n ~budget selected in
        let sel = !sel in
        if Array.length !next = 0 then
          next := Array.init n (fun _ -> store.Algorithm.copy states.(0));
        let next = !next in
        for i = 0 to k - 1 do
          let p = sel.(i) in
          let r = rule_of_selected rule_of p in
          write next i (r.Algorithm.action (Config.borrowed_view views config p));
          note_move p r.Algorithm.rule_name
        done;
        for i = 0 to k - 1 do
          write states sel.(i) next.(i)
        done;
        let moved =
          if observed then
            List.init k (fun i ->
                (sel.(i), (rule_of_selected rule_of sel.(i)).Algorithm.rule_name))
          else []
        in
        (k, moved)
  in
  let rec loop steps moves tracker =
    (* Scheduled transient corruption, injected before the termination
       check so a fault landing on a quiescent configuration re-starts
       stabilization.  The scheduler is re-synced exactly as for a
       moved node; the next step's bus event (and self-check) sees the
       corrupted configuration. *)
    (match chaos with
    | Some ch when Ss_chaos.Fault_plan.corruption_due ch.plan ~event:steps ->
        let crng = Ss_chaos.Fault_plan.rng ch.plan in
        let v = Ss_prelude.Rng.int crng n in
        write states v (ch.mutate crng v config);
        !sel.(0) <- v;
        Sched.update sched config ~moved:!sel ~count:1
    | _ -> ());
    if Sched.no_enabled sched then (config, steps, moves, Budget.Completed)
    else if moves >= max_moves then
      (config, steps, moves, Budget.Tripped Budget.Moves)
    else if steps >= max_steps then
      (config, steps, moves, Budget.Tripped Budget.Steps)
    else if deadline () then (config, steps, moves, Budget.Tripped Budget.Deadline)
    else begin
      let selected =
        daemon.Daemon.select ~step:steps ~enabled:(Sched.enabled_set sched)
      in
      validate ~is_enabled:(Sched.is_enabled sched) selected;
      let k, moved = execute (max_moves - moves) selected in
      (* The movers are exactly the (capped) selection, in order. *)
      Sched.update sched config ~moved:!sel ~count:k;
      Rounds.note_step_set tracker ~moved:!sel ~count:k
        ~enabled_after:(Sched.enabled_set sched);
      emit ~step:(steps + 1) ~rounds:(Rounds.completed tracker) ~moved config;
      loop (steps + 1) (moves + k) tracker
    end
  in
  let tracker = Rounds.create_set ~enabled:(Sched.enabled_set sched) in
  emit ~step:0 ~rounds:0 ~moved:[] config;
  finish tracker (loop 0 0 tracker)

let run_naive ?budget ?now ?observer ?sinks algo daemon config =
  let max_steps, max_moves, deadline = limits ?budget ?now () in
  let note_move, finish = make_counters algo (Config.n config) in
  let emit, _ = bus ?observer ?sinks [] in
  let validate = validator (Config.n config) in
  let rec loop config steps moves tracker =
    let enabled = Config.enabled_nodes algo config in
    if enabled = [] then (config, steps, moves, Budget.Completed)
    else if moves >= max_moves then
      (config, steps, moves, Budget.Tripped Budget.Moves)
    else if steps >= max_steps then
      (config, steps, moves, Budget.Tripped Budget.Steps)
    else if deadline () then (config, steps, moves, Budget.Tripped Budget.Deadline)
    else begin
      let selected =
        daemon.Daemon.select ~step:steps ~enabled:(Nodeset.of_list enabled)
      in
      validate_selection validate enabled selected;
      let selected = cap_selection ~budget:(max_moves - moves) selected in
      let config', moved =
        apply config
          ~rule_of:(fun p -> Algorithm.enabled_rule algo (Config.view config p))
          selected
      in
      List.iter (fun (p, r) -> note_move p r) moved;
      let enabled_after = Config.enabled_nodes algo config' in
      Rounds.note_step tracker ~moved:(List.map fst moved) ~enabled_after;
      emit ~step:(steps + 1) ~rounds:(Rounds.completed tracker) ~moved config';
      loop config' (steps + 1) (moves + List.length moved) tracker
    end
  in
  let tracker = Rounds.create ~enabled:(Config.enabled_nodes algo config) in
  emit ~step:0 ~rounds:0 ~moved:[] config;
  finish tracker (loop config 0 0 tracker)
