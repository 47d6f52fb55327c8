(* Per-layer timers and counters for one traced recovery.

   Every hook here wraps a value the library already exposes — an
   [Algorithm.t] rule, a [Daemon.t], a [Sync_algo.t], a
   [Cellpack.codec], a [Msgnet] sink, the [?now] clock of a run loop —
   and returns exactly what the wrapped value returns, so a traced run
   takes the same steps, moves and deliveries as an untraced one.

   Times are integer nanoseconds from the same monotonic clock as
   [Ss_report.Budget.now_s], so the hot wrappers never box a float.
   Accumulators live in [Domain.DLS]: guards of the sharded engine run
   on every pool domain, each adding to its own slot, and [total_ns] and
   [total_count] sum the slots when the run is over. *)

module Algorithm = Ss_sim.Algorithm
module Daemon = Ss_sim.Daemon
module Sync_algo = Ss_sync.Sync_algo
module Cellpack = Ss_core.Cellpack
module M = Ss_msgnet.Msgnet

let[@inline] clock () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9

(* ------------------------------------------------------------------ *)
(* Per-domain accumulators                                              *)
(* ------------------------------------------------------------------ *)

(* Timer slots (ns).  Guard and action timers hold self time: the
   nested [Sync_algo.step] calls they make are charged to [t_step]. *)
let t_guard_rr = 0
let t_guard_rp = 1
let t_guard_rc = 2
let t_guard_ru = 3
let t_action = 4
let t_step = 5
let t_daemon = 6
let t_observer = 7
let n_timers = 8

(* Counter slots. *)
let c_guard = 0
let c_action = 1
let c_step = 2
let c_pack = 3
let c_unpack = 4
let n_counters = 5

type slot = {
  ns : int array;
  count : int array;
  mutable nested : int;
      (* ns spent in timed callees since the domain's outermost span
         began; a span's self time is its duration minus the growth of
         [nested] across it *)
}

let slots = ref []
let slots_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let s =
        { ns = Array.make n_timers 0; count = Array.make n_counters 0; nested = 0 }
      in
      Mutex.protect slots_lock (fun () -> slots := s :: !slots);
      s)

let reset () =
  Mutex.protect slots_lock (fun () ->
      List.iter
        (fun s ->
          Array.fill s.ns 0 n_timers 0;
          Array.fill s.count 0 n_counters 0;
          s.nested <- 0)
        !slots)

let total_ns i =
  Mutex.protect slots_lock (fun () ->
      List.fold_left (fun acc s -> acc + s.ns.(i)) 0 !slots)

let total_count i =
  Mutex.protect slots_lock (fun () ->
      List.fold_left (fun acc s -> acc + s.count.(i)) 0 !slots)

(* Run [f x], charging its self time to timer [t] and one call to
   counter [c]. *)
let[@inline] span t c f x =
  let s = Domain.DLS.get key in
  let nested0 = s.nested in
  let t0 = clock () in
  let r = f x in
  let dt = clock () - t0 in
  s.ns.(t) <- s.ns.(t) + dt - (s.nested - nested0);
  s.count.(c) <- s.count.(c) + 1;
  s.nested <- nested0 + dt;
  r

(* Close a span that calls no other timed layer, opened at [t0] on
   slot [s]. *)
let[@inline] leaf s t t0 =
  let dt = clock () - t0 in
  s.ns.(t) <- s.ns.(t) + dt;
  s.nested <- s.nested + dt

(* ------------------------------------------------------------------ *)
(* Wrappers                                                             *)
(* ------------------------------------------------------------------ *)

let guard_slot name =
  match name with
  | "RR" -> t_guard_rr
  | "RP" -> t_guard_rp
  | "RC" -> t_guard_rc
  | "RU" -> t_guard_ru
  | other -> invalid_arg ("Trace.algorithm: unknown rule " ^ other)

let algorithm (a : ('s, 'i) Algorithm.t) =
  {
    a with
    Algorithm.rules =
      List.map
        (fun (r : ('s, 'i) Algorithm.rule) ->
          let t = guard_slot r.Algorithm.rule_name in
          {
            r with
            Algorithm.guard = (fun v -> span t c_guard r.Algorithm.guard v);
            action = (fun v -> span t_action c_action r.Algorithm.action v);
          })
        a.Algorithm.rules;
  }

let sync (s : ('s, 'i) Sync_algo.t) =
  {
    s with
    Sync_algo.step =
      (fun input self nbrs ->
        let d = Domain.DLS.get key in
        let t0 = clock () in
        let r = s.Sync_algo.step input self nbrs in
        leaf d t_step t0;
        d.count.(c_step) <- d.count.(c_step) + 1;
        r);
  }

(* Packing a cell costs less than a clock read, so the codec is
   counted, not timed. *)
let codec (c : 's Cellpack.codec) =
  {
    c with
    Cellpack.pack =
      (fun data off v ->
        let s = Domain.DLS.get key in
        s.count.(c_pack) <- s.count.(c_pack) + 1;
        c.Cellpack.pack data off v);
    unpack =
      (fun data off ->
        let s = Domain.DLS.get key in
        s.count.(c_unpack) <- s.count.(c_unpack) + 1;
        c.Cellpack.unpack data off);
  }

let daemon (d : Daemon.t) =
  {
    d with
    Daemon.select =
      (fun ~step ~enabled ->
        let s = Domain.DLS.get key in
        let t0 = clock () in
        let r = d.Daemon.select ~step ~enabled in
        leaf s t_daemon t0;
        r);
  }

let observer f x =
  let s = Domain.DLS.get key in
  let t0 = clock () in
  let r = f x in
  leaf s t_observer t0;
  r

(* ------------------------------------------------------------------ *)
(* Latency histogram                                                    *)
(* ------------------------------------------------------------------ *)

(* Log-linear buckets, 16 per octave (about 4% wide), over [0, 2^62)
   ns: fixed memory however long the run. *)
module Hist = struct
  type t = { buckets : int array; mutable n : int }

  let create () = { buckets = Array.make (60 * 16) 0; n = 0 }

  let rec msb x e = if x lsr (e + 1) = 0 then e else msb x (e + 1)

  let index x =
    if x < 16 then max x 0
    else
      let e = msb x 4 in
      ((e - 3) * 16) + ((x lsr (e - 4)) land 15)

  let add h x =
    let i = index x in
    h.buckets.(i) <- h.buckets.(i) + 1;
    h.n <- h.n + 1

  (* Midpoint of bucket [i], in ns. *)
  let value i =
    if i < 16 then float_of_int i
    else
      let e = (i / 16) + 3 and sub = i mod 16 in
      let lo = (16 + sub) lsl (e - 4) in
      float_of_int lo +. (float_of_int (1 lsl (e - 4)) /. 2.)

  (* The [p]-quantile in microseconds ([0.] when empty). *)
  let quantile_us h p =
    if h.n = 0 then 0.
    else begin
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int h.n))) in
      let i = ref 0 and seen = ref h.buckets.(0) in
      while !seen < rank do
        incr i;
        seen := !seen + h.buckets.(!i)
      done;
      value !i *. 1e-3
    end
end

(* ------------------------------------------------------------------ *)
(* Engine step clock                                                    *)
(* ------------------------------------------------------------------ *)

(* [Engine.run] reads its [?now] clock once when the run starts and
   once before every step, so the gap between two reads is one step
   (daemon selection, guards, actions, scheduler upkeep, rounds and
   sinks).  The first gap is the scheduler's initial full scan and is
   left out of the step latencies. *)
type engine_clock = { mutable last : int; mutable reads : int; steps : Hist.t }

let engine_clock () = { last = 0; reads = 0; steps = Hist.create () }

let engine_now c () =
  let t = clock () in
  if c.reads >= 2 then Hist.add c.steps (t - c.last);
  c.reads <- c.reads + 1;
  c.last <- t;
  seconds t

(* Close the last step when the run returns. *)
let engine_finish c =
  if c.reads >= 2 then Hist.add c.steps (clock () - c.last)

(* ------------------------------------------------------------------ *)
(* Msgnet event attribution                                             *)
(* ------------------------------------------------------------------ *)

(* The message loop reads [?now] once at start-up and once per event,
   plus once more just before a quiescence-probe wave (its
   drained-channel deadline re-check).  Sink events split each event:
   the time up to a [Delivered] is the pick (channel choice, fault
   verdict, ring pop and decode); the time after it, up to the next
   clock read, is the receiver's reaction to that message kind; a
   [Wave] starts the proof broadcast, which ends with its [2m]-th
   proof send.  An event with neither a delivery nor a wave is a
   drained-channel event: candidate rejection plus the picked node's
   act.  Two clock reads with no sink event between them are the
   re-check, not a new event, because every event emits at least one
   sink event. *)

let p_init = 0
let p_pick = 1
let p_update = 2
let p_proof = 3
let p_request = 4
let p_full_copy = 5
let p_wave = 6
let p_drained = 7
let p_chaos = 8
let n_phases = 9

let phase_of_kind = function
  | M.K_update -> p_update
  | M.K_proof -> p_proof
  | M.K_request -> p_request
  | M.K_full_copy -> p_full_copy

type msgnet_clock = {
  nchan : int;
  phase_ns : int array;
  phase_n : int array;  (* events per phase (init and pick unused) *)
  events : Hist.t;
  mutable started : bool;
  mutable phase : int;
  mutable last : int;
  mutable since_read : int;  (* sink events since the last clock read *)
  mutable event_start : int;  (* -1 before the first event *)
  mutable delivered : bool;  (* the open event delivered, dropped or waved *)
  mutable updates : bool;  (* the open event sent an update *)
  mutable wave_sent : int;
}

let msgnet_clock ~nchan =
  {
    nchan;
    phase_ns = Array.make n_phases 0;
    phase_n = Array.make n_phases 0;
    events = Hist.create ();
    started = false;
    phase = p_init;
    last = 0;
    since_read = 0;
    event_start = -1;
    delivered = false;
    updates = false;
    wave_sent = 0;
  }

let charge c phase t =
  c.phase_ns.(phase) <- c.phase_ns.(phase) + (t - c.last);
  c.last <- t

let mark c = charge c c.phase (clock ())

let close_event c t =
  if c.event_start >= 0 then begin
    Hist.add c.events (t - c.event_start);
    if (not c.delivered) && c.updates then
      c.phase_n.(p_drained) <- c.phase_n.(p_drained) + 1
  end;
  c.event_start <- t;
  c.delivered <- false;
  c.updates <- false

let msgnet_now c () =
  let t = clock () in
  if not c.started then begin
    c.started <- true;
    c.last <- t
  end
  else begin
    charge c (if c.phase = p_pick then p_drained else c.phase) t;
    if c.since_read > 0 || c.event_start < 0 then close_event c t;
    c.phase <- p_pick
  end;
  c.since_read <- 0;
  seconds t

let msgnet_sink c ev =
  c.since_read <- c.since_read + 1;
  match ev with
  | M.Sent { kind = M.K_proof; _ } when c.phase = p_wave ->
      c.wave_sent <- c.wave_sent + 1;
      if c.wave_sent = c.nchan then begin
        mark c;
        c.phase <- p_pick
      end
  | M.Sent { kind = M.K_update; _ } -> c.updates <- true
  | M.Sent _ -> ()
  | M.Delivered { kind; _ } ->
      mark c;
      let p = phase_of_kind kind in
      c.phase_n.(p) <- c.phase_n.(p) + 1;
      c.phase <- p;
      c.delivered <- true
  | M.Dropped _ | M.Reordered _ ->
      mark c;
      c.phase_n.(p_chaos) <- c.phase_n.(p_chaos) + 1;
      c.phase <- p_chaos;
      c.delivered <- true
  | M.Duplicated _ -> c.phase_n.(p_chaos) <- c.phase_n.(p_chaos) + 1
  | M.Corrupted _ ->
      charge c p_chaos (clock ());
      c.phase_n.(p_chaos) <- c.phase_n.(p_chaos) + 1
  | M.Wave _ ->
      mark c;
      c.phase_n.(p_wave) <- c.phase_n.(p_wave) + 1;
      c.phase <- p_wave;
      c.wave_sent <- 0;
      c.delivered <- true

(* Close the open event when the run returns. *)
let msgnet_finish c =
  let t = clock () in
  charge c (if c.phase = p_pick then p_drained else c.phase) t;
  close_event c t
