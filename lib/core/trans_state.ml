type status = C | E

(* Backing buffer shared by a whole lineage of boxed states.  The
   committed prefix [data.(0 .. committed-1)] is write-once: [extend]
   only ever writes at index [committed], so any two states sharing a
   buffer agree (physically) on their common logical prefix — the
   invariant both the O(1) [equal] fast paths and the
   prefix-verification cache in {!Predicates} rest on. *)
type 's buffer = {
  id : int;  (* globally unique; Predicates keys its memo on it *)
  mutable data : 's array;
  mutable committed : int;
}

(* Two storage backends behind one value-semantics API:

   - [Boxed]: the historical copy-on-write buffer.  Fully persistent —
     any number of states may share and diverge from a prefix.

   - [Packed]: the state's cells live in a slab of a {!Cellpack}
     arena, laid out flat with no per-cell boxing.  Packed states obey
     a {e linear-history} discipline: each node slot holds one live
     timeline, and constructing a new state by writing {e below} the
     slab's committed frontier (overwrite-extend after a truncate,
     [wipe], [rebuild]) invalidates every older handle on that slot —
     reading a stale handle's cells is unspecified.  The engine's
     per-node single-timeline usage satisfies this by construction;
     anything needing persistence (naive reference twins, traces)
     stays boxed.

   The watermark soundness contract of {!Predicates} — equal [rep_id]
   implies the committed prefix is physically unchanged — holds for
   both: boxed buffers never overwrite below [committed], and every
   packed write below the frontier mints a fresh lineage id into
   [arena.rep.(node)], so surviving handles with the old id are
   exactly the (unreadable) stale ones that the discipline already
   rules out of circulation. *)
type 's backend =
  | Boxed of 's buffer
  | Packed of { arena : 's Cellpack.arena; node : int; rep : int }

(* The fields are mutable for {!assign} alone: every other function
   builds a new record and never writes an existing one. *)
type 's t = {
  mutable init : 's;
  mutable status : status;
  mutable len : int;  (* logical height; cells live at logical indices 1..len *)
  mutable stamp : int;
      (* Monotone version stamp, fresh on every construction: equal
         stamps imply the two values are the same construction, hence
         logically equal. *)
  mutable backend : 's backend;
}

(* Atomic: states are constructed concurrently by campaign pool tasks
   (DESIGN.md §11), and both the O(1) [equal] fast path and the
   Predicates watermark cache are only sound if stamps / lineage ids
   are globally unique — a racy [incr] could mint duplicates.  Packed
   lineage ids come from the same counter as boxed buffer ids, so
   [rep_id] is unique across backends. *)
let buffer_counter = Atomic.make 0
let stamp_counter = Atomic.make 0

let fresh_stamp () = 1 + Atomic.fetch_and_add stamp_counter 1
let fresh_rep () = 1 + Atomic.fetch_and_add buffer_counter 1
let fresh_buffer data committed = { id = fresh_rep (); data; committed }

let make ~init ~status ~cells =
  (* Defensive copy: the caller keeps ownership of [cells]. *)
  let cells = Array.copy cells in
  {
    init;
    status;
    len = Array.length cells;
    stamp = fresh_stamp ();
    backend = Boxed (fresh_buffer cells (Array.length cells));
  }

let clean init = make ~init ~status:C ~cells:[||]

let packed_clean arena ~node ~init =
  let rep = fresh_rep () in
  arena.Cellpack.rep.(node) <- rep;
  arena.Cellpack.committed.(node) <- 0;
  {
    init;
    status = C;
    len = 0;
    stamp = fresh_stamp ();
    backend = Packed { arena; node; rep };
  }

let height st = st.len
let init st = st.init
let status st = st.status
let stamp st = st.stamp

let rep_id st =
  match st.backend with Boxed b -> b.id | Packed p -> p.rep

let backing_arena st =
  match st.backend with Boxed _ -> None | Packed p -> Some p.arena

let cell st i =
  if i = 0 then st.init
  else if i >= 1 && i <= st.len then
    match st.backend with
    | Boxed b -> b.data.(i - 1)
    | Packed { arena; node; _ } ->
        arena.Cellpack.codec.Cellpack.unpack arena.Cellpack.data
          (Cellpack.slot arena node (i - 1))
  else
    invalid_arg (Printf.sprintf "Trans_state.cell: index %d, height %d" i st.len)

let top st = cell st st.len

let truncate st i =
  if i < 0 || i > st.len then invalid_arg "Trans_state.truncate";
  (* O(1) on both backends: a logical length drop.  Packed: the slab's
     committed frontier and lineage id are untouched — the truncated
     cells stay physically in place until an overwrite-extend mints a
     fresh lineage. *)
  if i = st.len then st else { st with len = i; stamp = fresh_stamp () }

let extend st s =
  match st.backend with
  | Boxed b ->
      if st.len = b.committed then begin
        (* Unique extension: this state owns the frontier, write in
           place (amortized O(1) with capacity doubling). *)
        let cap = Array.length b.data in
        if st.len = cap then begin
          let data = Array.make (max 4 (2 * cap)) s in
          Array.blit b.data 0 data 0 cap;
          b.data <- data
        end;
        b.data.(st.len) <- s;
        b.committed <- st.len + 1;
        { st with len = st.len + 1; stamp = fresh_stamp () }
      end
      else if b.data.(st.len) == s then
        (* Aliased re-extension: the committed cell already IS [s] (the
           message-network mirrors replay exactly the cells their
           origin appended), so just re-adopt it — no copy, prefix
           sharing kept. *)
        { st with len = st.len + 1; stamp = fresh_stamp () }
      else begin
        (* Divergence from a shared prefix: copy-on-write. *)
        let data = Array.make (max 4 (2 * (st.len + 1))) s in
        Array.blit b.data 0 data 0 st.len;
        {
          st with
          backend = Boxed (fresh_buffer data (st.len + 1));
          len = st.len + 1;
          stamp = fresh_stamp ();
        }
      end
  | Packed { arena; node; _ } ->
      if st.len >= arena.Cellpack.a_cap then
        invalid_arg
          (Printf.sprintf
             "Trans_state.extend: packed arena capacity %d exceeded"
             arena.Cellpack.a_cap);
      arena.Cellpack.codec.Cellpack.pack arena.Cellpack.data
        (Cellpack.slot arena node st.len)
        s;
      let frontier = st.len = arena.Cellpack.committed.(node) in
      arena.Cellpack.committed.(node) <- st.len + 1;
      if frontier then
        (* Frontier extension: committed prefix untouched, the lineage
           continues — watermarks keyed on [rep] stay valid and
           verification resumes above them.  Same arena, node and rep:
           the backend block is shared, not rebuilt. *)
        { st with len = st.len + 1; stamp = fresh_stamp () }
      else begin
        (* Write below (or, for a stale handle, beyond) the committed
           frontier: the slab's history changed, mint a fresh lineage
           id so every cache keyed on the old one misses. *)
        let rep = fresh_rep () in
        arena.Cellpack.rep.(node) <- rep;
        {
          st with
          len = st.len + 1;
          stamp = fresh_stamp ();
          backend = Packed { arena; node; rep };
        }
      end

let at_capacity st =
  match st.backend with
  | Boxed _ -> false
  | Packed { arena; _ } -> st.len >= arena.Cellpack.a_cap

let in_arena arena st =
  match st.backend with Boxed _ -> false | Packed p -> p.arena == arena

let copy st =
  {
    init = st.init;
    status = st.status;
    len = st.len;
    stamp = st.stamp;
    backend = st.backend;
  }

(* The pointer fields are compared before they are written: a node's
   [init] never changes, and a frontier extend keeps its backend block,
   so most writes skip both write barriers. *)
let assign dst src =
  if dst != src then begin
    if dst.init != src.init then dst.init <- src.init;
    dst.status <- src.status;
    dst.len <- src.len;
    dst.stamp <- src.stamp;
    if dst.backend != src.backend then dst.backend <- src.backend
  end

let with_status st status =
  if st.status = status then st else { st with status; stamp = fresh_stamp () }

let wipe st =
  match st.backend with
  | Boxed _ ->
      {
        init = st.init;
        status = E;
        len = 0;
        stamp = fresh_stamp ();
        backend = Boxed (fresh_buffer [||] 0);
      }
  | Packed { arena; node; _ } ->
      (* Resetting the slab rewrites history below the frontier:
         fresh lineage. *)
      let rep = fresh_rep () in
      arena.Cellpack.rep.(node) <- rep;
      arena.Cellpack.committed.(node) <- 0;
      {
        init = st.init;
        status = E;
        len = 0;
        stamp = fresh_stamp ();
        backend = Packed { arena; node; rep };
      }

let rebuild st ~status ~cells =
  match st.backend with
  | Boxed _ -> make ~init:st.init ~status ~cells
  | Packed { arena; node; _ } ->
      let len = Array.length cells in
      if len > arena.Cellpack.a_cap then
        invalid_arg
          (Printf.sprintf
             "Trans_state.rebuild: %d cells exceed packed arena capacity %d"
             len arena.Cellpack.a_cap);
      for i = 0 to len - 1 do
        arena.Cellpack.codec.Cellpack.pack arena.Cellpack.data
          (Cellpack.slot arena node i)
          cells.(i)
      done;
      (* Arbitrary rewrite (fault injection): fresh lineage. *)
      let rep = fresh_rep () in
      arena.Cellpack.rep.(node) <- rep;
      arena.Cellpack.committed.(node) <- len;
      {
        init = st.init;
        status;
        len;
        stamp = fresh_stamp ();
        backend = Packed { arena; node; rep };
      }

let in_error st = st.status = E

let equal eq a b =
  (* Stamp fast path (O(1)): equal stamps only arise by aliasing a
     construction, so the logical values coincide.  Backend fast
     paths: boxed states sharing a buffer agree on the committed
     prefix, so equal lengths mean equal cells; packed states on the
     same slab with the same lineage id likewise — every write since
     either handle was built was a frontier extension. *)
  a.stamp = b.stamp
  || (a.status = b.status && a.len = b.len && eq a.init b.init
     &&
     match (a.backend, b.backend) with
     | Boxed x, Boxed y when x == y -> true
     | Packed x, Packed y when x.arena == y.arena && x.node = y.node ->
         x.rep = y.rep
         ||
         let rec go i = i > a.len || (eq (cell a i) (cell b i) && go (i + 1)) in
         go 1
     | _ ->
         let rec go i = i > a.len || (eq (cell a i) (cell b i) && go (i + 1)) in
         go 1)

let cells st =
  match st.backend with
  | Boxed b -> Array.sub b.data 0 st.len
  | Packed _ -> Array.init st.len (fun i -> cell st (i + 1))

let fold_cells f acc st =
  let acc = ref acc in
  for i = 1 to st.len do
    acc := f !acc (cell st i)
  done;
  !acc

let snapshot st = (st.status, st.init, cells st)

let pp_status ppf = function
  | C -> Format.pp_print_string ppf "C"
  | E -> Format.pp_print_string ppf "E"

let pp pp_state ppf st =
  Format.fprintf ppf "{%a h=%d [%a]}" pp_status st.status st.len
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_state)
    (Array.to_list (cells st))
