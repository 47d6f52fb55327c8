type t = {
  steps : int option;
  moves : int option;
  deliveries : int option;
  deadline_s : float option;
}

let unlimited = { steps = None; moves = None; deliveries = None; deadline_s = None }

let v ?steps ?moves ?deliveries ?deadline_s () =
  { steps; moves; deliveries; deadline_s }

type limit = Steps | Moves | Deliveries | Deadline
type outcome = Completed | Tripped of limit

let resolve ~default legacy budget =
  match (legacy, budget) with
  | None, None -> default
  | Some a, None -> a
  | None, Some b -> b
  | Some a, Some b -> min a b

let now_s =
  (* A deadline must survive NTP steps and machine load, so it is
     measured against CLOCK_MONOTONIC (the bechamel stub, ns since an
     arbitrary origin); [Sys.time] (processor time) undershoots wall
    time arbitrarily on blocked runs and [Unix.gettimeofday] jumps.
    Probe once: a zero reading means the stub has no monotonic source
    on this platform — degrade to wall time. *)
  if Monotonic_clock.now () > 0L then
    fun () -> Int64.to_float (Monotonic_clock.now ()) *. 1e-9
  else Unix.gettimeofday

let deadline_check ?(now = now_s) t =
  match t.deadline_s with
  | None -> fun () -> false
  | Some allowance ->
      let t0 = now () in
      fun () -> now () -. t0 >= allowance

let limit_to_string = function
  | Steps -> "steps"
  | Moves -> "moves"
  | Deliveries -> "deliveries"
  | Deadline -> "deadline"

let outcome_to_string = function
  | Completed -> "completed"
  | Tripped l -> limit_to_string l
