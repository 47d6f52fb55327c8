module Rng = Ss_prelude.Rng

let ppm_scale = 1_000_000

type rates = { drop_ppm : int; reorder_ppm : int; dup_ppm : int }

let no_rates = { drop_ppm = 0; reorder_ppm = 0; dup_ppm = 0 }

let check_ppm what v =
  if v < 0 || v > ppm_scale then
    invalid_arg
      (Printf.sprintf "Fault_plan: %s = %d outside [0, %d]" what v ppm_scale)

let rates ?(drop_ppm = 0) ?(reorder_ppm = 0) ?(dup_ppm = 0) () =
  check_ppm "drop_ppm" drop_ppm;
  check_ppm "reorder_ppm" reorder_ppm;
  check_ppm "dup_ppm" dup_ppm;
  { drop_ppm; reorder_ppm; dup_ppm }

type t = {
  r : rates;
  horizon : int;
  rng : Rng.t;
  mutable corrupt_at : int list;
}

let v ?(rates = no_rates) ?(corrupt_at = []) ?(horizon = max_int) ~seed () =
  List.iter
    (fun e ->
      if e < 0 then
        invalid_arg "Fault_plan.v: corruption indices must be >= 0")
    corrupt_at;
  if horizon < 0 then invalid_arg "Fault_plan.v: horizon must be >= 0";
  {
    r = rates;
    horizon;
    (* A private splitmix64 stream: plan draws never touch the run's
       scheduler rng, so attaching or removing a plan cannot shift any
       other stream, and a null plan leaves the run byte-identical to a
       fault-free one. *)
    rng = Rng.create (seed * 0x5851F42D + 0x4C957);
    corrupt_at = List.sort_uniq compare corrupt_at;
  }

let null () = v ~seed:0 ()

let is_null t =
  t.r.drop_ppm = 0 && t.r.reorder_ppm = 0 && t.r.dup_ppm = 0
  && t.corrupt_at = []

let rng t = t.rng

type verdict = Deliver | Drop | Duplicate | Reorder

(* Draw discipline (DESIGN.md §13): exactly three draws per consult —
   drop, then duplicate, then reorder — no matter which verdict wins.
   A fixed per-consult draw count means the plan stream's alignment
   depends only on the number of delivery picks before each event,
   never on earlier verdicts, so a replay that takes the same schedule
   consumes the stream identically.  Past the fault horizon the plan
   is inert: zero draws and an unconditional Deliver — the stream
   freezes at a point that is itself a pure function of the schedule,
   so replays stay aligned. *)
let consult t ~event =
  if event >= t.horizon then Deliver
  else
    (* Spelled out rather than through a local [hit] closure: a
       consult runs on every chaos event and allocates nothing. *)
    let drop = Rng.int t.rng ppm_scale < t.r.drop_ppm in
    let dup = Rng.int t.rng ppm_scale < t.r.dup_ppm in
    let reorder = Rng.int t.rng ppm_scale < t.r.reorder_ppm in
    if drop then Drop
    else if dup then Duplicate
    else if reorder then Reorder
    else Deliver

let corruption_due t ~event =
  match t.corrupt_at with
  | e :: rest when e <= event ->
      t.corrupt_at <- rest;
      true
  | _ -> false

let pending_corruptions t = List.length t.corrupt_at
