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

(* The poll policy.  A clock read is a serialising vDSO call, so the
   default monotonic clock is read on the first poll and then only once
   [quantum] units of work have been reported since the last read; an
   injected clock is a deterministic function of the run and is read on
   every poll ([every = 0]), so a virtual deadline trips at the same
   index as a per-poll check would. *)
let quantum = 4096

type deadline = {
  read : unit -> float;
  t0 : float;
  allowance : float;
  every : int;  (* work between two reads *)
  mutable due : int;  (* the work count at which the next poll reads *)
}

let deadline ?now t =
  match t.deadline_s with
  | None ->
      (* Never due and never expired, so no poll reads a clock. *)
      {
        read = (fun () -> 0.);
        t0 = 0.;
        allowance = infinity;
        every = 0;
        due = max_int;
      }
  | Some allowance ->
      let read, every =
        match now with Some f -> (f, 0) | None -> (now_s, quantum)
      in
      { read; t0 = read (); allowance; every; due = 0 }

let poll_now d = d.read () -. d.t0 >= d.allowance

let read_at d work =
  d.due <- work + d.every;
  d.read () -. d.t0 >= d.allowance

let[@inline] poll d ~work = work >= d.due && read_at d work

let limit_to_string = function
  | Steps -> "steps"
  | Moves -> "moves"
  | Deliveries -> "deliveries"
  | Deadline -> "deadline"

let outcome_to_string = function
  | Completed -> "completed"
  | Tripped l -> limit_to_string l
