module Graph = Ss_graph.Graph
module Algorithm = Ss_sim.Algorithm
module Config = Ss_sim.Config
module Sync_algo = Ss_sync.Sync_algo
module St = Ss_core.Trans_state
module Cellpack = Ss_core.Cellpack
module Transformer = Ss_core.Registry.Trans
module Energy = Ss_energy.Energy
module Rng = Ss_prelude.Rng
module Budget = Ss_report.Budget
module Run_report = Ss_report.Run_report

type encoding = Full_state | Delta

type 's delta = D_rr | D_rp of int | D_rc | D_ru of 's

type 's message =
  | Update_full of 's St.t
  | Update_delta of 's delta
  | Proof of int64 * int64  (* hash, wave nonce *)
  | Request
  | Full_copy of 's St.t

type msg_kind = K_update | K_proof | K_request | K_full_copy

type layout = [ `Auto | `Packed | `Boxed ]

type event =
  | Sent of { src : int; dst : int; kind : msg_kind; bits : int }
  | Delivered of { src : int; dst : int; kind : msg_kind }
  | Wave of { nonce : int }
  | Dropped of { src : int; dst : int; kind : msg_kind }
  | Duplicated of { src : int; dst : int; kind : msg_kind }
  | Reordered of { src : int; dst : int }
  | Corrupted of { node : int }

type sink = event -> unit

type 's chaos = {
  plan : Ss_chaos.Fault_plan.t;
  mutate : Rng.t -> int -> 's St.t -> 's St.t;
}

type stats = {
  deliveries : int;
  rule_executions : int;
  update_messages : int;
  update_bits : int;
  proof_messages : int;
  proof_bits : int;
  stale_proof_messages : int;
  request_messages : int;
  full_copy_messages : int;
  full_copy_bits : int;
  proof_waves : int;
  dropped_messages : int;
  reordered_messages : int;
  duplicated_messages : int;
  corruption_events : int;
  peak_queued_bits : int;
  mirror_bytes : int;
  quiescent : bool;
  outcome : Budget.outcome;
}

let total_bits s =
  s.update_bits + s.proof_bits + s.full_copy_bits
  + (s.request_messages * Energy.request_message_bits)

type 's counters = {
  mutable deliveries : int;
  mutable rule_executions : int;
  mutable update_messages : int;
  mutable update_bits : int;
  mutable proof_messages : int;
  mutable proof_bits_total : int;
  mutable stale_proof_messages : int;
  mutable request_messages : int;
  mutable full_copy_messages : int;
  mutable full_copy_bits : int;
  mutable proof_waves : int;
  mutable requests_in_wave : int;
  mutable dropped : int;
  mutable reordered : int;
  mutable duplicated : int;
  mutable corruptions : int;
}

let fresh_counters () =
  {
    deliveries = 0;
    rule_executions = 0;
    update_messages = 0;
    update_bits = 0;
    proof_messages = 0;
    proof_bits_total = 0;
    stale_proof_messages = 0;
    request_messages = 0;
    full_copy_messages = 0;
    full_copy_bits = 0;
    proof_waves = 0;
    requests_in_wave = 0;
    dropped = 0;
    reordered = 0;
    duplicated = 0;
    corruptions = 0;
  }

let delta_of_move rule_name new_state =
  if rule_name = Transformer.rr then D_rr
  else if rule_name = Transformer.rp then D_rp (St.height new_state)
  else if rule_name = Transformer.rc then D_rc
  else D_ru (St.top new_state)

(* A delta's wire size is derivable from the delta alone: D_ru carries
   the new top cell, whose size is the sync algorithm's state_bits. *)
let delta_bits params = function
  | D_rr | D_rc -> 2
  | D_rp _ -> 2 + Energy.height_bits params.Transformer.bound
  | D_ru s -> 2 + params.Transformer.sync.Sync_algo.state_bits s

let kind_of_message = function
  | Update_full _ | Update_delta _ -> K_update
  | Proof _ -> K_proof
  | Request -> K_request
  | Full_copy _ -> K_full_copy

(* The int records {!Channel.rings} stores, tagged by their first
   word: 0 Request, 1 Proof (the 64-bit hash as two 32-bit words, then
   the nonce), 2 D_rr, 3 D_rc, 4 D_rp, 5 D_ru with the codec-packed
   payload cell.  Full states, and D_ru without a codec, stay boxed. *)
let wire codec =
  let encode w = function
    | Request ->
        w.(0) <- 0;
        1
    | Proof (h, pn) ->
        w.(0) <- 1;
        w.(1) <- Int64.to_int (Int64.logand h 0xFFFF_FFFFL);
        w.(2) <- Int64.to_int (Int64.shift_right_logical h 32);
        w.(3) <- Int64.to_int pn;
        4
    | Update_delta D_rr ->
        w.(0) <- 2;
        1
    | Update_delta D_rc ->
        w.(0) <- 3;
        1
    | Update_delta (D_rp i) ->
        w.(0) <- 4;
        w.(1) <- i;
        2
    | Update_delta (D_ru s) -> (
        match codec with
        | Some c ->
            w.(0) <- 5;
            c.Cellpack.pack w 1 s;
            1 + c.Cellpack.words
        | None -> 0)
    | Update_full _ | Full_copy _ -> 0
  in
  let decode w =
    match (w.(0), codec) with
    | 0, _ -> Request
    | 1, _ ->
        let h =
          Int64.logor (Int64.of_int w.(1))
            (Int64.shift_left (Int64.of_int w.(2)) 32)
        in
        Proof (h, Int64.of_int w.(3))
    | 2, _ -> Update_delta D_rr
    | 3, _ -> Update_delta D_rc
    | 4, _ -> Update_delta (D_rp w.(1))
    | _, Some c -> Update_delta (D_ru (c.Cellpack.unpack w 1))
    | _, None -> assert false (* D_ru is only packed with a codec *)
  in
  let cwords = match codec with Some c -> c.Cellpack.words | None -> 0 in
  { Channel.words = max 4 (1 + cwords); encode; decode }

(* Drained-channel node pickers.  [pick ()] is a uniformly random node
   enabled on its mirrors, or -1; [note v maybe] reports that v's own
   state or mirrors were written ([maybe]: v may be enabled) or that
   its guards were just found all disabled ([not maybe]). *)
type picker = { pick : unit -> int; note : int -> bool -> unit }

(* Enabled-candidate set: the nodes whose own state or some mirror
   changed since their guards were last found disabled — a superset of
   the enabled nodes, kept dense so a pick costs O(1) amortized instead
   of scanning all n guards per event (the engine's dirty-set
   discipline, §7).  Rejection sampling: each draw is uniform over the
   remaining candidates, and a disabled draw is removed for good (it
   re-enters on its next write), so the accepted node is uniform over
   the enabled set and the scan cost is amortized against writes. *)
let candidates ~n ~rng ~enabled =
  let set = Chanset.create n in
  for v = 0 to n - 1 do
    Chanset.add set v
  done;
  let rec pick () =
    if Chanset.is_empty set then -1
    else begin
      let v = Chanset.pick set rng in
      if enabled v then v
      else begin
        Chanset.remove set v;
        pick ()
      end
    end
  in
  let note v maybe = if maybe then Chanset.add set v else Chanset.remove set v in
  { pick; note }

(* Reference pick: the full O(n) guard scan the original code paid on
   every drained-channel event. *)
let guard_scan ~n ~rng ~enabled =
  let scratch = Array.make (max 1 n) 0 in
  let pick () =
    let k = ref 0 in
    for v = 0 to n - 1 do
      if enabled v then begin
        scratch.(!k) <- v;
        incr k
      end
    done;
    if !k = 0 then -1 else scratch.(Rng.int rng !k)
  in
  { pick; note = (fun _ _ -> ()) }

(* Receiver-side port of link [id], which doubles as the index of the
   reply link: precomputed from Graph.port_table (links are numbered
   in (node, port) order), or re-derived per delivery with the
   O(degree) Graph.port_of scan the original code paid. *)
let port_table g ~src:_ ~dst:_ =
  let ports = Array.concat (Array.to_list (Graph.port_table g)) in
  fun id -> ports.(id)

let port_scan g ~src ~dst id = Graph.port_of g dst.(id) src.(id)

(* The event loop.  [run] and [run_naive] differ only in the layers
   they pass: the link storage and pick ([channels]), the
   drained-channel node pick ([picker]) and the receiver-port lookup
   ([port]).  Mirrors, proofs and waves are the same for both. *)
let drive ~channels ~picker ~port ?codec ?(layout = `Auto) ?(encoding = Delta)
    ?budget ?max_events ?(proof = Energy.default_proof_cost) ?heartbeat_every
    ?now ?chaos ~rng ?(corrupt_mirrors = true) ?(sinks = []) params config =
  (match heartbeat_every with
  | Some h when h < 1 -> invalid_arg "Msgnet.run: heartbeat_every must be >= 1"
  | _ -> ());
  let g = config.Config.graph in
  let n = Config.n config in
  let sync = params.Transformer.sync in
  let algo = Transformer.algorithm params in
  let states = Array.copy config.Config.states in
  (* Unified budget: the event cap (one delivery per event, so
     [stats.deliveries] never exceeds it) resolves against the legacy
     [max_events]; the deadline is checked once per event. *)
  let b = Option.value budget ~default:Budget.unlimited in
  let max_events =
    Budget.resolve ~default:2_000_000 max_events b.Budget.deliveries
  in
  let deadline = Budget.deadline_check ?now b in
  let observing = sinks <> [] in
  let emit ev = List.iter (fun s -> s ev) sinks in
  let proof_msg_bits = Energy.proof_message_bits proof in
  (* Each wave enqueues one proof per directed link (2m messages) while
     the timer fires every [heartbeat_every] *deliveries*: a period at
     or below 2m refills waves faster than they can drain, so channels
     never empty and quiescence is unreachable.  The default therefore
     scales with the network instead of being a constant that silently
     breaks past m = 200. *)
  let heartbeat_every =
    match heartbeat_every with
    | Some h -> h
    | None -> max 400 (4 * Graph.m g)
  in

  (* Directed FIFO channels, indexed densely: channel [chan_of.(u).(i)]
     carries u's messages to its port-i neighbor.  The receiver answers
     u on [chan_of.(v).(port cid)]. *)
  let nchan = 2 * Graph.m g in
  let chan_dst = Array.make nchan 0 in
  let chan_src = Array.make nchan 0 in
  let chan_of =
    let next = ref 0 in
    Array.init n (fun u ->
        Array.map
          (fun v ->
            let id = !next in
            incr next;
            chan_src.(id) <- u;
            chan_dst.(id) <- v;
            id)
          (Graph.neighbors g u))
  in
  let port = port g ~src:chan_src ~dst:chan_dst in
  let chans = channels (wire codec) ~src:chan_src ~dst:chan_dst in

  (* Mirror layout.  Under the engine's --layout policy: [`Packed]
     requires a codec and a finite bound (each of the 2m mirrors lives
     in the slot of one Cellpack arena, indexed by the owner's outgoing
     channel id — the same dense (node, port) numbering the channels
     use); [`Auto] packs exactly when both are available; [`Boxed]
     keeps the historical per-mirror buffers.  The packed arena caps a
     mirror at B cells — chaos can starve a mirror of its RR reset and
     drift it past B, so over-tall contents fall back to boxed handles
     until a full-state install re-packs the slot. *)
  let marena =
    let finite =
      match params.Transformer.bound with
      | Ss_core.Predicates.Finite b -> Some b
      | Ss_core.Predicates.Infinite -> None
    in
    match (layout, codec, finite) with
    | `Boxed, _, _ -> None
    | `Auto, Some c, Some cap when nchan > 0 ->
        Some (Cellpack.arena ~codec:c ~n:nchan ~cap)
    | `Auto, _, _ -> None
    | `Packed, None, _ -> invalid_arg "Msgnet.run: packed layout needs a codec"
    | `Packed, Some _, None ->
        invalid_arg "Msgnet.run: packed layout needs a finite bound"
    | `Packed, Some c, Some cap ->
        if nchan = 0 then None else Some (Cellpack.arena ~codec:c ~n:nchan ~cap)
  in
  (* [install v port src] stores [src]'s logical content as v's port
     mirror: packed into the arena slot when it fits, the boxed handle
     itself otherwise.  Rebuilding through a fresh [packed_clean]
     handle is safe even when the previous slot holder was boxed or
     stale — it only writes the slab and mints a fresh lineage. *)
  let install v port src =
    match marena with
    | Some a when St.height src <= Cellpack.cap a ->
        St.rebuild
          (St.packed_clean a ~node:chan_of.(v).(port) ~init:(St.init src))
          ~status:(St.status src) ~cells:(St.cells src)
    | _ -> src
  in
  (* Mirrors: mirrors.(v).(k) is v's belief about its port-k neighbor. *)
  let mirrors =
    Array.init n (fun v ->
        Array.mapi
          (fun i u ->
            install v i
              (if corrupt_mirrors then
                 Transformer.corrupt_state rng
                   ~max_height:(St.height states.(u) + 4)
                   params (Config.input config u) states.(u)
               else states.(u)))
          (Graph.neighbors g v))
  in
  (* Extend a mirror by a delivered D_ru cell.  A packed mirror at the
     arena bound boxes itself instead of raising: with faulty channels
     a dropped D_rr can leave a mirror growing without its reset, and
     the protocol must keep running until a proof wave repairs it. *)
  let mirror_extend m s =
    match St.backing_arena m with
    | Some a when St.height m >= Cellpack.cap a ->
        St.extend
          (St.make ~init:(St.init m) ~status:(St.status m) ~cells:(St.cells m))
          s
    | _ -> St.extend m s
  in
  let apply_delta mirror = function
    | D_rr -> St.wipe mirror
    | D_rp i ->
        (* A corrupted mirror may be shorter than the sender's list; a
           total best-effort truncation keeps the protocol running until
           a proof exchange repairs the copy. *)
        St.with_status (St.truncate mirror (min i (St.height mirror))) St.E
    | D_rc -> St.with_status mirror St.C
    | D_ru s -> mirror_extend mirror s
  in

  (* Proof digests (DESIGN.md §15): one layer for the node states, one
     for the mirrors by dense channel id.  Both are memoized by the
     §10 version stamp, so no write path needs an invalidation hook;
     with a codec a miss also resumes from the lineage's last folded
     prefix instead of re-encoding the whole list. *)
  let proof_layer slots =
    match codec with
    | Some c -> Proof.incremental c ~slots
    | None -> Proof.reference ~slots
  in
  let state_proofs = proof_layer n in
  let mirror_proofs = proof_layer nchan in
  let set_mirror v port st = mirrors.(v).(port) <- st in

  (* One wire-size accounting for every message kind, shared by the
     counters, the event sinks and the queued-bits watermark. *)
  let message_bits = function
    | Update_full s -> Energy.full_state_bits sync s
    | Update_delta d -> delta_bits params d
    | Proof _ -> proof_msg_bits
    | Request -> Energy.request_message_bits
    | Full_copy s -> Energy.full_state_bits sync s
  in
  (* Peak in-flight wire load: bits enter on send, leave on delivery
     or drop (a duplicate's surviving copy never left).  The watermark
     is the protocol's bufferbloat figure at quiescence-free periods —
     reported as [peak_queued_bits]. *)
  let queued_bits = ref 0 in
  let peak_queued_bits = ref 0 in
  let account_send bits =
    queued_bits := !queued_bits + bits;
    if !queued_bits > !peak_queued_bits then peak_queued_bits := !queued_bits
  in
  let account_drain bits = queued_bits := !queued_bits - bits in

  let send cid msg bits =
    account_send bits;
    if observing then
      emit
        (Sent
           {
             src = chan_src.(cid);
             dst = chan_dst.(cid);
             kind = kind_of_message msg;
             bits;
           });
    Channel.push chans cid msg
  in
  let c = fresh_counters () in

  (* One message and one wire size per move, shared by every outgoing
     channel: messages are immutable, and the size depends only on the
     message. *)
  let broadcast_move v new_state rule_name =
    let out = chan_of.(v) in
    let deg = Array.length out in
    if deg > 0 then begin
      let msg =
        match encoding with
        | Full_state -> Update_full new_state
        | Delta -> Update_delta (delta_of_move rule_name new_state)
      in
      let bits = message_bits msg in
      c.update_messages <- c.update_messages + deg;
      c.update_bits <- c.update_bits + (deg * bits);
      for i = 0 to deg - 1 do
        send out.(i) msg bits
      done
    end
  in

  let view_of v =
    {
      Algorithm.input = Config.input config v;
      self = states.(v);
      neighbors = mirrors.(v);
      node = v;
    }
  in

  let picker =
    picker ~n ~rng ~enabled:(fun v -> Algorithm.is_enabled algo (view_of v))
  in

  (* Local step: act on own state + mirrors until no rule is enabled
     (bounded for safety against pathological mirror contents). *)
  let act v =
    let budget = ref (Ss_core.Predicates.bound_to_int params.Transformer.bound) in
    if !budget > 1_000_000 then budget := St.height states.(v) + n + 8;
    let continue = ref true in
    while !continue && !budget > 0 do
      decr budget;
      (* The guard and the action read one view: nothing writes v's
         state or mirrors in between. *)
      let view = view_of v in
      match Algorithm.enabled_rule algo view with
      | None -> continue := false
      | Some rule ->
          let new_state = rule.Algorithm.action view in
          states.(v) <- new_state;
          c.rule_executions <- c.rule_executions + 1;
          broadcast_move v new_state rule.Algorithm.rule_name
    done;
    (* [!continue] here means the safety budget ran out first: the node
       may still be enabled, so it must stay pickable. *)
    picker.note v !continue
  in

  (* Wave nonce.  Proofs carry the nonce of the wave that hashed them;
     a proof from a superseded wave is dropped on delivery instead of
     being compared — the current wave re-verifies every mirror anyway,
     so a stale proof can only add spurious Request/Full_copy traffic
     (e.g. when the repair it would ask for is already queued behind
     it).  Dropping also keeps [requests_in_wave] correctly attributed:
     only current-wave proofs can raise requests, so the reset at wave
     start can never erase or miscount in-flight evidence. *)
  let nonce = ref 0L in
  (* Wave integrity.  Quiescence is deduced from "the last wave raised
     no request" — sound over loss-free FIFO channels, but any chaos
     action (drop, duplicate, reorder, corruption) after the wave began
     can hide a stale mirror or perturb one after its proof verified.
     So every chaos action clears this flag and completion additionally
     requires a chaos-free wave window; the expected wait is
     e^(rate·2m) waves, negligible for the shipped scenario rates. *)
  let wave_intact = ref false in
  let chaos_hit () = wave_intact := false in

  (* Deliver [msg], already popped from (or peeked at the head of)
     channel [cid]: count it, notify sinks, and run the receiver's
     protocol reaction. *)
  let process cid msg =
    c.deliveries <- c.deliveries + 1;
    let v = chan_dst.(cid) in
    if observing then
      emit
        (Delivered { src = chan_src.(cid); dst = v; kind = kind_of_message msg });
    let port = port cid in
    match msg with
    | Update_full s ->
        set_mirror v port (install v port s);
        act v
    | Update_delta d ->
        set_mirror v port (apply_delta mirrors.(v).(port) d);
        act v
    | Proof (h, pnonce) ->
        if pnonce < !nonce then
          c.stale_proof_messages <- c.stale_proof_messages + 1
        else if
          Energy.proof_of_digest ~nonce:pnonce
            (Proof.digest mirror_proofs chan_of.(v).(port) mirrors.(v).(port))
          <> h
        then begin
          c.request_messages <- c.request_messages + 1;
          c.requests_in_wave <- c.requests_in_wave + 1;
          send chan_of.(v).(port) Request Energy.request_message_bits
        end
    | Request ->
        let fb = Energy.full_state_bits sync states.(v) in
        c.full_copy_messages <- c.full_copy_messages + 1;
        c.full_copy_bits <- c.full_copy_bits + fb;
        send chan_of.(v).(port) (Full_copy states.(v)) fb
    | Full_copy s ->
        set_mirror v port (install v port s);
        act v
  in

  let deliver cid =
    let msg = Channel.pop chans cid in
    account_drain (message_bits msg);
    process cid msg
  in

  (* Chaos actions, each charged as one event.  Drop discards the
     channel head; duplicate delivers the head while the copy stays
     queued (so the same message is processed again later); reorder
     rotates the head behind the rest of the FIFO (a no-op disguise
     when the queue holds a single message, where it degenerates to a
     plain delivery). *)
  let chaos_drop cid =
    let msg = Channel.pop chans cid in
    account_drain (message_bits msg);
    c.dropped <- c.dropped + 1;
    chaos_hit ();
    if observing then
      emit
        (Dropped
           {
             src = chan_src.(cid);
             dst = chan_dst.(cid);
             kind = kind_of_message msg;
           })
  in
  let chaos_duplicate cid =
    let msg = Channel.peek chans cid in
    c.duplicated <- c.duplicated + 1;
    chaos_hit ();
    if observing then
      emit
        (Duplicated
           {
             src = chan_src.(cid);
             dst = chan_dst.(cid);
             kind = kind_of_message msg;
           });
    process cid msg
  in
  let chaos_reorder cid =
    if not (Channel.rotate chans cid) then deliver cid
    else begin
      c.reordered <- c.reordered + 1;
      chaos_hit ();
      if observing then
        emit (Reordered { src = chan_src.(cid); dst = chan_dst.(cid) })
    end
  in

  (* [at] is the event index firing the wave, recorded so the periodic
     heartbeat never stacks a second wave right on top of a
     quiescence-probe wave (which would supersede its nonce and erase
     its evidence before a single proof is delivered). *)
  let last_wave_event = ref (-1) in
  let proof_wave ~at =
    last_wave_event := at;
    wave_intact := true;
    nonce := Int64.add !nonce 1L;
    c.proof_waves <- c.proof_waves + 1;
    c.requests_in_wave <- 0;
    if observing then emit (Wave { nonce = Int64.to_int !nonce });
    Graph.iter_nodes g (fun v ->
        let h =
          Energy.proof_of_digest ~nonce:!nonce
            (Proof.digest state_proofs v states.(v))
        in
        Array.iter
          (fun cid ->
            c.proof_messages <- c.proof_messages + 1;
            c.proof_bits_total <- c.proof_bits_total + proof_msg_bits;
            send cid (Proof (h, !nonce)) proof_msg_bits)
          chan_of.(v))
  in

  let rec loop events =
    if events >= max_events then Budget.Tripped Budget.Deliveries
    else if deadline () then Budget.Tripped Budget.Deadline
    else begin
      (* Scheduled transient corruption: mutate a victim's real state
         mid-run, exactly as §3's arbitrary-configuration premise
         allows.  The stamp-keyed proof memo misses on the fresh
         construction by itself; the victim's guards must be
         re-examined, so the picker is told it may be enabled. *)
      (match chaos with
      | Some ch when Ss_chaos.Fault_plan.corruption_due ch.plan ~event:events
        ->
          let crng = Ss_chaos.Fault_plan.rng ch.plan in
          let victim = Rng.int crng n in
          states.(victim) <- ch.mutate crng victim states.(victim);
          picker.note victim true;
          c.corruptions <- c.corruptions + 1;
          chaos_hit ();
          if observing then emit (Corrupted { node = victim })
      | _ -> ());
      (* Periodic heartbeat: without it, delta updates applied to a
         corrupted mirror would keep it wrong forever and the system
         could churn indefinitely (§6's proofs are timer-driven, not
         quiescence-driven).  Suppressed when the previous event already
         fired a quiescence-probe wave — stacking a second wave would
         supersede the probe's nonce before any of its proofs land. *)
      if
        events > 0
        && events mod heartbeat_every = 0
        && !last_wave_event < events - 1
      then proof_wave ~at:events;
      match Channel.pick chans rng with
      | cid when cid >= 0 ->
          (match chaos with
          | None -> deliver cid
          | Some ch -> (
              match Ss_chaos.Fault_plan.consult ch.plan ~event:events with
              | Ss_chaos.Fault_plan.Deliver -> deliver cid
              | Ss_chaos.Fault_plan.Drop -> chaos_drop cid
              | Ss_chaos.Fault_plan.Duplicate -> chaos_duplicate cid
              | Ss_chaos.Fault_plan.Reorder -> chaos_reorder cid));
          loop (events + 1)
      | _ -> (
          match picker.pick () with
          | v when v >= 0 ->
              act v;
              loop (events + 1)
          | _ ->
              (* Local quiescence.  The last wave's proofs have all been
                 delivered (no channel is pending) and, being
                 current-wave on delivery, none were dropped as stale:
                 if the wave verified every mirror (no request) and no
                 chaos action touched the window, the states are
                 terminal for the atomic-state transformer; otherwise
                 re-probe.  The deadline is re-checked first so a run
                 that drains its channels past its time budget reports
                 [Tripped Deadline] instead of spinning probe waves (or
                 claiming [Completed]) on borrowed time. *)
              if c.proof_waves > 0 && c.requests_in_wave = 0 && !wave_intact
              then Budget.Completed
              else if deadline () then Budget.Tripped Budget.Deadline
              else begin
                proof_wave ~at:events;
                loop (events + 1)
              end)
    end
  in
  let outcome = loop 0 in
  (* Resident mirror accounting: the arena's flat arrays at their true
     size, plus an estimate for boxed mirrors (one word per cell plus
     a small per-state overhead) and the per-mirror handles. *)
  let mirror_bytes =
    let boxed_words = ref 0 in
    Array.iter
      (fun row ->
        Array.iter
          (fun m ->
            match St.backing_arena m with
            | Some _ -> ()
            | None -> boxed_words := !boxed_words + St.height m + 4)
          row)
      mirrors;
    let arena_bytes = match marena with Some a -> Cellpack.bytes a | None -> 0 in
    arena_bytes + (8 * (!boxed_words + (8 * nchan)))
  in
  let stats =
    {
      deliveries = c.deliveries;
      rule_executions = c.rule_executions;
      update_messages = c.update_messages;
      update_bits = c.update_bits;
      proof_messages = c.proof_messages;
      proof_bits = c.proof_bits_total;
      stale_proof_messages = c.stale_proof_messages;
      request_messages = c.request_messages;
      full_copy_messages = c.full_copy_messages;
      full_copy_bits = c.full_copy_bits;
      proof_waves = c.proof_waves;
      dropped_messages = c.dropped;
      reordered_messages = c.reordered;
      duplicated_messages = c.duplicated;
      corruption_events = c.corruptions;
      peak_queued_bits = !peak_queued_bits;
      mirror_bytes;
      quiescent = outcome = Budget.Completed;
      outcome;
    }
  in
  (Config.with_states config states, stats)

let run ?codec ?layout ?encoding ?budget ?max_events ?proof ?heartbeat_every
    ?now ?chaos ~rng ?corrupt_mirrors ?sinks params config =
  drive ~channels:Channel.rings ~picker:candidates ~port:port_table ?codec
    ?layout ?encoding ?budget ?max_events ?proof ?heartbeat_every ?now ?chaos
    ~rng ?corrupt_mirrors ?sinks params config

let run_naive ?encoding ?budget ?max_events ?proof ?heartbeat_every ?now ~rng
    ?corrupt_mirrors ?sinks params config =
  drive ~channels:Channel.queues ~picker:guard_scan ~port:port_scan ?encoding
    ?budget ?max_events ?proof ?heartbeat_every ?now ~rng ?corrupt_mirrors
    ?sinks params config

let report ?(label = "msgnet-run") ?seed ?wall_s ?timebase (s : stats) =
  Run_report.v ?seed ?wall_s ?timebase ~outcome:s.outcome label
    (Run_report.Msgnet
       {
         Run_report.deliveries = s.deliveries;
         rule_executions = s.rule_executions;
         update_messages = s.update_messages;
         update_bits = s.update_bits;
         proof_messages = s.proof_messages;
         proof_bits = s.proof_bits;
         stale_proof_messages = s.stale_proof_messages;
         request_messages = s.request_messages;
         full_copy_messages = s.full_copy_messages;
         full_copy_bits = s.full_copy_bits;
         proof_waves = s.proof_waves;
         dropped_messages = s.dropped_messages;
         reordered_messages = s.reordered_messages;
         duplicated_messages = s.duplicated_messages;
         corruption_events = s.corruption_events;
         peak_queued_bits = s.peak_queued_bits;
         mirror_bytes = s.mirror_bytes;
         total_bits = total_bits s;
       })
