type status = C | E

(* Two storage backends behind one value-semantics API, told apart by
   the handle's [store] ({!Cellpack.store}):

   - [Buffer]: the copy-on-write buffer of a boxed lineage.  Its
     committed prefix [cells.(0 .. frontier-1)] is write-once:
     [extend] only ever writes at index [frontier], so any two states
     sharing a buffer agree (physically) on their common logical
     prefix — the invariant both the O(1) [equal] fast paths and the
     prefix-verification cache in {!Predicates} rest on.  Fully
     persistent: any number of states may share and diverge from a
     prefix.

   - [Slab]: the state's cells live in node slot [node] of a
     {!Cellpack} arena, laid out flat with no per-cell boxing.  Every
     handle on the arena points at the arena's one [Slab] block, so
     the slot and the lineage id are plain int fields of the handle
     and a lineage change writes two ints instead of building a
     block.  Packed states obey a {e linear-history} discipline: each
     node slot holds one live timeline, and constructing a new state
     by writing {e below} the slab's committed frontier
     (overwrite-extend after a truncate, [wipe], [rebuild])
     invalidates every older handle on that slot — reading a stale
     handle's cells is unspecified.  The engine's per-node
     single-timeline usage satisfies this by construction; anything
     needing persistence (naive reference twins, traces) stays boxed.

   The watermark soundness contract of {!Predicates} — equal [rep]
   implies the committed prefix is physically unchanged — holds for
   both: a boxed lineage is one buffer, which never overwrites below
   its frontier, and every packed write below the frontier mints a
   fresh lineage id into [arena.rep.(node)], so surviving handles with
   the old id are exactly the (unreadable) stale ones that the
   discipline already rules out of circulation. *)

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
  mutable rep : int;
      (* Lineage id, globally unique: one per boxed buffer, one per
         packed timeline.  Predicates keys its memo on it. *)
  mutable node : int;  (* packed: the arena slot; boxed: 0 *)
  mutable store : 's Cellpack.store;
}

(* Atomic: states are constructed concurrently by campaign pool tasks
   (DESIGN.md §11), and both the O(1) [equal] fast path and the
   Predicates watermark cache are only sound if stamps / lineage ids
   are globally unique — a racy [incr] could mint duplicates.  Packed
   lineage ids come from the same counter as boxed buffer ids, so
   [rep_id] is unique across backends. *)
let rep_counter = Atomic.make 0
let stamp_counter = Atomic.make 0

let fresh_stamp () = 1 + Atomic.fetch_and_add stamp_counter 1
let fresh_rep () = 1 + Atomic.fetch_and_add rep_counter 1

let boxed ~init ~status cells len =
  {
    init;
    status;
    len;
    stamp = fresh_stamp ();
    rep = fresh_rep ();
    node = 0;
    store = Cellpack.Buffer { cells; frontier = len };
  }

let make ~init ~status ~cells =
  (* Defensive copy: the caller keeps ownership of [cells]. *)
  boxed ~init ~status (Array.copy cells) (Array.length cells)

let clean init = make ~init ~status:C ~cells:[||]

(* A fresh timeline in [arena]'s slot [node]: mints its lineage id. *)
let new_lineage arena node committed =
  let rep = fresh_rep () in
  arena.Cellpack.rep.(node) <- rep;
  arena.Cellpack.committed.(node) <- committed;
  rep

let packed_clean arena ~node ~init =
  {
    init;
    status = C;
    len = 0;
    stamp = fresh_stamp ();
    rep = new_lineage arena node 0;
    node;
    store = arena.Cellpack.store;
  }

let height st = st.len
let init st = st.init
let status st = st.status
let stamp st = st.stamp

let rep_id st = st.rep

let backing_arena st =
  match st.store with Cellpack.Buffer _ -> None | Cellpack.Slab a -> Some a

let cell st i =
  if i = 0 then st.init
  else if i >= 1 && i <= st.len then
    match st.store with
    | Cellpack.Buffer b -> b.cells.(i - 1)
    | Cellpack.Slab arena ->
        arena.Cellpack.codec.Cellpack.unpack arena.Cellpack.data
          (Cellpack.slot arena st.node (i - 1))
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
  match st.store with
  | Cellpack.Buffer b ->
      if st.len = b.frontier then begin
        (* Unique extension: this state owns the frontier, write in
           place (amortized O(1) with capacity doubling). *)
        let cap = Array.length b.cells in
        if st.len = cap then begin
          let cells = Array.make (max 4 (2 * cap)) s in
          Array.blit b.cells 0 cells 0 cap;
          b.cells <- cells
        end;
        b.cells.(st.len) <- s;
        b.frontier <- st.len + 1;
        { st with len = st.len + 1; stamp = fresh_stamp () }
      end
      else if b.cells.(st.len) == s then
        (* Aliased re-extension: the committed cell already IS [s] (the
           message-network mirrors replay exactly the cells their
           origin appended), so just re-adopt it — no copy, prefix
           sharing kept. *)
        { st with len = st.len + 1; stamp = fresh_stamp () }
      else begin
        (* Divergence from a shared prefix: copy-on-write. *)
        let cells = Array.make (max 4 (2 * (st.len + 1))) s in
        Array.blit b.cells 0 cells 0 st.len;
        boxed ~init:st.init ~status:st.status cells (st.len + 1)
      end
  | Cellpack.Slab arena ->
      if st.len >= arena.Cellpack.a_cap then
        invalid_arg
          (Printf.sprintf
             "Trans_state.extend: packed arena capacity %d exceeded"
             arena.Cellpack.a_cap);
      let node = st.node in
      arena.Cellpack.codec.Cellpack.pack arena.Cellpack.data
        (Cellpack.slot arena node st.len)
        s;
      if st.len = arena.Cellpack.committed.(node) then begin
        (* Frontier extension: committed prefix untouched, the lineage
           continues — watermarks keyed on [rep] stay valid and
           verification resumes above them. *)
        arena.Cellpack.committed.(node) <- st.len + 1;
        { st with len = st.len + 1; stamp = fresh_stamp () }
      end
      else
        (* Write below (or, for a stale handle, beyond) the committed
           frontier: the slab's history changed, mint a fresh lineage
           id so every cache keyed on the old one misses. *)
        {
          st with
          len = st.len + 1;
          stamp = fresh_stamp ();
          rep = new_lineage arena node (st.len + 1);
        }

let at_capacity st =
  match st.store with
  | Cellpack.Buffer _ -> false
  | Cellpack.Slab arena -> st.len >= arena.Cellpack.a_cap

let in_arena arena st = st.store == arena.Cellpack.store

let copy st = { st with stamp = st.stamp }

(* Only ints change on most writes: a node's [init] never changes, and
   every handle on an arena shares its store, so the two pointer
   fields are compared before they are written and most writes skip
   both write barriers. *)
let assign dst src =
  if dst != src then begin
    if dst.init != src.init then dst.init <- src.init;
    dst.status <- src.status;
    dst.len <- src.len;
    dst.stamp <- src.stamp;
    dst.rep <- src.rep;
    dst.node <- src.node;
    if dst.store != src.store then dst.store <- src.store
  end

let with_status st status =
  if st.status = status then st else { st with status; stamp = fresh_stamp () }

let wipe st =
  match st.store with
  | Cellpack.Buffer _ -> boxed ~init:st.init ~status:E [||] 0
  | Cellpack.Slab arena ->
      (* Resetting the slab rewrites history below the frontier:
         fresh lineage. *)
      {
        st with
        status = E;
        len = 0;
        stamp = fresh_stamp ();
        rep = new_lineage arena st.node 0;
      }

let rebuild st ~status ~cells =
  match st.store with
  | Cellpack.Buffer _ -> make ~init:st.init ~status ~cells
  | Cellpack.Slab arena ->
      let len = Array.length cells in
      if len > arena.Cellpack.a_cap then
        invalid_arg
          (Printf.sprintf
             "Trans_state.rebuild: %d cells exceed packed arena capacity %d"
             len arena.Cellpack.a_cap);
      for i = 0 to len - 1 do
        arena.Cellpack.codec.Cellpack.pack arena.Cellpack.data
          (Cellpack.slot arena st.node i)
          cells.(i)
      done;
      (* Arbitrary rewrite (fault injection): fresh lineage. *)
      {
        st with
        status;
        len;
        stamp = fresh_stamp ();
        rep = new_lineage arena st.node len;
      }

let in_error st = st.status = E

let equal eq a b =
  (* Stamp fast path (O(1)): equal stamps only arise by aliasing a
     construction, so the logical values coincide.  Lineage fast path:
     equal [rep]s mean one boxed buffer or one packed timeline, whose
     committed prefix both handles read, so equal lengths mean equal
     cells. *)
  a.stamp = b.stamp
  || a.status = b.status && a.len = b.len && eq a.init b.init
     && (a.rep = b.rep
        ||
        let rec go i = i > a.len || (eq (cell a i) (cell b i) && go (i + 1)) in
        go 1)

let slab codec st =
  match st.store with
  | Cellpack.Slab arena when arena.Cellpack.codec == codec -> arena.Cellpack.data
  | Cellpack.Slab _ | Cellpack.Buffer _ -> [||]

let slab_offset st i =
  match st.store with
  | Cellpack.Slab arena -> Cellpack.slot arena st.node (i - 1)
  | Cellpack.Buffer _ -> invalid_arg "Trans_state.slab_offset: boxed state"

let cells st =
  match st.store with
  | Cellpack.Buffer b -> Array.sub b.cells 0 st.len
  | Cellpack.Slab _ -> Array.init st.len (fun i -> cell st (i + 1))

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
