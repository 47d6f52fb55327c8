module Budget = Ss_report.Budget
module Run_report = Ss_report.Run_report

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

(* One bus for the optional single observer, the sink list, and any
   internal sinks (self-check): everyone sees the same events in the
   same order. *)
let bus ?observer ?(sinks = []) internal =
  let user = match observer with Some o -> o :: sinks | None -> sinks in
  tee (user @ internal)

let validate_with config ~is_enabled selected =
  if selected = [] then raise (Invalid_selection "daemon selected no node");
  let seen = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if p < 0 || p >= Config.n config then
        raise (Invalid_selection (Printf.sprintf "node %d out of range" p));
      if Hashtbl.mem seen p then
        raise (Invalid_selection (Printf.sprintf "node %d selected twice" p));
      Hashtbl.add seen p ();
      if not (is_enabled p) then
        raise
          (Invalid_selection (Printf.sprintf "node %d selected but not enabled" p)))
    selected

let validate_selection config enabled selected =
  let members = Hashtbl.create (max 8 (List.length enabled)) in
  List.iter (fun p -> Hashtbl.replace members p ()) enabled;
  validate_with config ~is_enabled:(Hashtbl.mem members) selected

(* Execute a validated selection into [states].  [rule_of p] is the
   enabled rule the selection was validated against; all moves read
   the pre-step configuration: compute every new state ([List.map]
   forces the whole list) before writing any, so [states] may be
   [config]'s own array.  Actions get fresh views (Config.view), never
   the scheduler's reusable buffers, so a returned state may safely
   retain view data. *)
let apply_into config states ~rule_of selected =
  let moves =
    List.map
      (fun p ->
        match rule_of p with
        | Some rule ->
            let view = Config.view config p in
            (p, rule.Algorithm.rule_name, rule.Algorithm.action view)
        | None -> assert false (* validated by the caller *))
      selected
  in
  List.iter (fun (p, _, s) -> states.(p) <- s) moves;
  List.map (fun (p, r, _) -> (p, r)) moves

(* Copying variant: the configuration reached, as a fresh one. *)
let apply config ~rule_of selected =
  let states = Array.copy config.Config.states in
  let moved = apply_into config states ~rule_of selected in
  (Config.with_states config states, moved)

let step algo config selected =
  let enabled = Config.enabled_nodes algo config in
  validate_selection config enabled selected;
  apply config
    ~rule_of:(fun p -> Algorithm.enabled_rule algo (Config.view config p))
    selected

(* Hard move budget: activating a full selection could overshoot
   the move cap by up to n-1 moves (the bound used to be checked only
   between steps), so the final, budget-crossing step executes only a
   prefix of the daemon's selection, in the daemon's order. *)
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

(* The three integer/clock limits of one run, resolved from the unified
   budget plus the historical optional arguments (tightest wins). *)
let limits ?budget ?max_steps ?max_moves ?now () =
  let b = Option.value budget ~default:Budget.unlimited in
  ( Budget.resolve ~default:10_000_000 max_steps b.Budget.steps,
    Budget.resolve ~default:max_int max_moves b.Budget.moves,
    Budget.deadline_check ?now b )

(* Shared per-run accounting: per-node and per-rule move counters and
   the final stats record. *)
let make_counters n =
  let moves_per_node = Array.make n 0 in
  let rule_counts = Hashtbl.create 8 in
  let note_move (p, r) =
    moves_per_node.(p) <- moves_per_node.(p) + 1;
    Hashtbl.replace rule_counts r
      (1 + Option.value ~default:0 (Hashtbl.find_opt rule_counts r))
  in
  let finish algo tracker (final, steps, moves, outcome) =
    {
      final;
      steps;
      moves;
      rounds = Rounds.completed tracker;
      terminated = outcome = Budget.Completed;
      outcome;
      moves_per_node;
      moves_per_rule =
        List.map
          (fun r -> (r, Option.value ~default:0 (Hashtbl.find_opt rule_counts r)))
          (Algorithm.rule_names algo);
    }
  in
  (note_move, finish)

let run ?budget ?max_steps ?max_moves ?now ?chaos ?(self_check = false)
    ?(sharded = false) ?observer ?sinks algo daemon config =
  let max_steps, max_moves, deadline =
    limits ?budget ?max_steps ?max_moves ?now ()
  in
  let note_move, finish = make_counters (Config.n config) in
  let sched = Sched.create ~parallel:sharded algo config in
  (* Divergence checking is just another sink on the bus: it reads the
     configuration each event reaches and compares the incrementally
     maintained enabled set against a full naive scan. *)
  let check_sink ~step:_ ~rounds:_ ~moved:_ config =
    let incr = Sched.enabled sched in
    let naive = Config.enabled_nodes algo config in
    if incr <> naive then
      raise
        (Divergence
           (Printf.sprintf
              "incremental enabled set {%s} disagrees with full scan {%s}"
              (String.concat "," (List.map string_of_int incr))
              (String.concat "," (List.map string_of_int naive))))
  in
  let emit = bus ?observer ?sinks (if self_check then [ check_sink ] else []) in
  (* Step in place on a private copy of the states: the input
     configuration is never mutated, and no step pays an O(n) copy.
     Sinks borrow the live configuration for the duration of each call
     (see the interface). *)
  let config = Config.with_states config (Array.copy config.Config.states) in
  let states = config.Config.states in
  let rec loop steps moves tracker =
    (* Scheduled transient corruption, injected before the termination
       check so a fault landing on a quiescent configuration re-starts
       stabilization.  The scheduler is re-synced exactly as for a
       moved node; the next step's bus event (and self-check) sees the
       corrupted configuration. *)
    (match chaos with
    | Some ch when Ss_chaos.Fault_plan.corruption_due ch.plan ~event:steps ->
        let crng = Ss_chaos.Fault_plan.rng ch.plan in
        let v = Ss_prelude.Rng.int crng (Config.n config) in
        states.(v) <- ch.mutate crng v config;
        Sched.update sched config ~moved:[ v ]
    | _ -> ());
    if Sched.no_enabled sched then (config, steps, moves, Budget.Completed)
    else if moves >= max_moves then
      (config, steps, moves, Budget.Tripped Budget.Moves)
    else if steps >= max_steps then
      (config, steps, moves, Budget.Tripped Budget.Steps)
    else if deadline () then (config, steps, moves, Budget.Tripped Budget.Deadline)
    else begin
      let enabled = Sched.enabled_arr sched in
      let selected = daemon.Daemon.select ~step:steps ~enabled in
      validate_with config ~is_enabled:(Sched.is_enabled sched) selected;
      let selected = cap_selection ~budget:(max_moves - moves) selected in
      let moved =
        apply_into config states ~rule_of:(Sched.enabled_rule sched) selected
      in
      List.iter note_move moved;
      let moved_nodes = List.map fst moved in
      Sched.update sched config ~moved:moved_nodes;
      Rounds.note_step_set tracker ~moved:moved_nodes
        ~enabled_after:(Sched.enabled_set sched);
      emit ~step:(steps + 1) ~rounds:(Rounds.completed tracker) ~moved config;
      loop (steps + 1) (moves + List.length moved) tracker
    end
  in
  let tracker = Rounds.create_set ~enabled:(Sched.enabled_set sched) in
  emit ~step:0 ~rounds:0 ~moved:[] config;
  finish algo tracker (loop 0 0 tracker)

let run_naive ?budget ?max_steps ?max_moves ?now ?observer ?sinks algo daemon
    config =
  let max_steps, max_moves, deadline =
    limits ?budget ?max_steps ?max_moves ?now ()
  in
  let note_move, finish = make_counters (Config.n config) in
  let emit = bus ?observer ?sinks [] in
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
        daemon.Daemon.select ~step:steps ~enabled:(Array.of_list enabled)
      in
      validate_selection config enabled selected;
      let selected = cap_selection ~budget:(max_moves - moves) selected in
      let config', moved =
        apply config
          ~rule_of:(fun p -> Algorithm.enabled_rule algo (Config.view config p))
          selected
      in
      List.iter note_move moved;
      let enabled_after = Config.enabled_nodes algo config' in
      Rounds.note_step tracker ~moved:(List.map fst moved) ~enabled_after;
      emit ~step:(steps + 1) ~rounds:(Rounds.completed tracker) ~moved config';
      loop config' (steps + 1) (moves + List.length moved) tracker
    end
  in
  let tracker = Rounds.create ~enabled:(Config.enabled_nodes algo config) in
  emit ~step:0 ~rounds:0 ~moved:[] config;
  finish algo tracker (loop config 0 0 tracker)

let run_synchronous ?budget ?max_steps ?max_moves algo config =
  run ?budget ?max_steps ?max_moves algo Daemon.synchronous config

let report ?(label = "engine-run") ?seed ?wall_s ?timebase stats =
  Run_report.v ?seed ?wall_s ?timebase ~outcome:stats.outcome label
    (Run_report.Engine
       {
         Run_report.steps = stats.steps;
         moves = stats.moves;
         rounds = stats.rounds;
         moves_per_rule = stats.moves_per_rule;
       })
