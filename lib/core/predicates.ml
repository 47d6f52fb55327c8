module Algorithm = Ss_sim.Algorithm
module Sync_algo = Ss_sync.Sync_algo
module St = Trans_state

type mode = Lazy | Greedy
type bound = Finite of int | Infinite

type ('s, 'i) params = {
  sync : ('s, 'i) Sync_algo.t;
  mode : mode;
  bound : bound;
}

type ('s, 'i) view = ('s Trans_state.t, 'i) Algorithm.view

let below_bound b h = match b with Finite b -> h < b | Infinite -> true
let bound_to_int = function Finite b -> b | Infinite -> max_int

let algo_hat params (v : ('s, 'i) view) i =
  params.sync.Sync_algo.step v.Algorithm.input
    (St.cell v.Algorithm.self i)
    (Array.map (fun nb -> St.cell nb i) v.Algorithm.neighbors)

(* The guards below run on every event of both run loops, so they are
   written as plain loops: no closure, no option, no fresh array
   (DESIGN.md §10 has the allocation budget). *)
let min_neighbor_height (v : ('s, 'i) view) =
  let nbs = v.Algorithm.neighbors in
  let m = ref max_int in
  for k = 0 to Array.length nbs - 1 do
    let h = St.height nbs.(k) in
    if h < !m then m := h
  done;
  !m

(* Cell i is checkable when all dependencies exist: i - 1 <= q.h for
   every neighbor q, i.e. i <= min_nb + 1 (beware overflow when the
   node has no neighbors). *)
let top_checkable (v : ('s, 'i) view) : int =
  let h = St.height v.Algorithm.self in
  let min_nb = min_neighbor_height v in
  if min_nb = max_int || h <= min_nb + 1 then h else min_nb + 1

(* Scan cells [base+1 .. top] for an algorithm error, refilling the
   scratch dependency array [deps] (one slot per neighbor) per cell
   instead of the fresh Array.map that algo_hat would allocate ([step]
   computes from the array and must not retain it).  Returns the index
   of the first bad cell, or [top + 1] when the whole range
   verifies. *)
let scan params (v : ('s, 'i) view) deps ~base ~top =
  let self = v.Algorithm.self in
  let nbs = v.Algorithm.neighbors in
  let deg = Array.length nbs in
  let i = ref (base + 1) in
  let bad = ref false in
  while (not !bad) && !i <= top do
    for k = 0 to deg - 1 do
      deps.(k) <- St.cell nbs.(k) (!i - 1)
    done;
    if
      not
        (params.sync.Sync_algo.equal (St.cell self !i)
           (params.sync.Sync_algo.step v.Algorithm.input
              (St.cell self (!i - 1))
              deps))
    then bad := true
    else incr i
  done;
  !i

let first_bad params (v : ('s, 'i) view) ~base ~top =
  let deg = Array.length v.Algorithm.neighbors in
  scan params v (Array.make deg (St.cell v.Algorithm.self 0)) ~base ~top

let algo_err params (v : ('s, 'i) view) =
  let top = top_checkable v in
  top >= 1 && first_bad params v ~base:0 ~top <= top

(* ------------------------------------------------------------------ *)
(* Memoized verification watermarks                                    *)
(* ------------------------------------------------------------------ *)

(* One watermark per node, stored at the node's index ({!view}'s
   [node] field): cells [1 .. verified] were checked against
   dependencies that are still physically present as long as the node
   and every neighbor kept their lineage (write-once committed
   prefixes, see trans_state.ml).  A guard re-evaluation therefore
   costs O(deg) stamp comparisons plus one [step] per cell appended or
   repaired since the previous evaluation — O(Δ·deg) instead of the
   naive O(h·deg) full-prefix re-verification.  The node index only
   locates the row; the tokens below decide whether it applies, so a
   view whose index names another node's row costs a miss, never a
   wrong answer.

   Node p's watermark is one row of [stride = 6 + 2 * width] ints:
   the six words at [r_self_rep .. r_deg], then the stamps of its
   [deg] neighbours from [r_nbs] and their lineage ids after those.
   The rows live in pages of [page_rows] rows, so the table grows a
   page at a time and leaves no regrowth garbage; each page has a
   parallel page of physical input tokens (one state aliased at two
   nodes with different inputs verifies differently at each).  A
   zeroed row with a {!private_token} is blank: stamps and lineage ids
   count from 1 and no view carries that token, so a blank row only
   ever misses. *)
let r_self_rep = 0
let r_self_stamp = 1
let r_verified = 2 (* cells 1 .. verified are algo-correct *)
let r_top = 3 (* top_checkable at the last evaluation *)
let r_result = 4 (* 1 when the last evaluation found an error *)
let r_deg = 5
let r_nbs = 6
let page_bits = 6
let page_rows = 1 lsl page_bits

(* A token no view carries. *)
let private_token = Obj.repr (ref ())

(* The pages of a table.  [rows.(j)] and [tokens.(j)] exist for
   [j < pages]; the spines may be longer. *)
type table = {
  width : int;  (* the widest degree a row holds *)
  rows : int array array;
  tokens : Obj.t array array;
  pages : int;
}

let no_table = { width = 0; rows = [||]; tokens = [||]; pages = 0 }

type ('s, 'i) cache = {
  mutable width : int;
  mutable stride : int;  (* r_nbs + 2 * width *)
  mutable rows : int array array;
  mutable tokens : Obj.t array array;
  mutable pages : int;
  mutable blank : int;
      (* Pages [0 .. blank-1] hold this cache's rows; a later page,
         adopted from a finalised cache, is blanked when first
         claimed. *)
  scratch : 's Ss_prelude.Scratch.t;
      (* The dependency arrays {!scan} and {!algo_hat_cached} refill,
         one per node degree. *)
  home : table Atomic.t;
      (* The spare of the domain that made the cache (below). *)
}

(* The pages of the largest table whose cache, made on this domain,
   was finalised, for the next cache the domain makes, which blanks
   each page as it claims it.  Rows are not typed by the algorithm, so
   any cache can adopt any table.  Keeping one table alive across runs
   keeps the allocator from returning the freed heap to the OS between
   back-to-back runs, which made the next set-up fault its pages in
   again (DESIGN.md §10).  The finaliser reaches the spare through the
   cache's [home] cell, never through [Domain.DLS]: a finaliser may run
   on another domain, or while its own domain terminates, and reading
   domain-local state there crashed the OCaml 5.1 runtime once pool
   domains came and went. *)
let spare = Domain.DLS.new_key (fun () -> Atomic.make no_table)

let table_words (t : table) = t.pages * (r_nbs + (2 * t.width))

let rec retire (c : (_, _) cache) =
  let s = Atomic.get c.home in
  let t =
    { width = c.width; rows = c.rows; tokens = c.tokens; pages = c.pages }
  in
  if table_words t > table_words s && not (Atomic.compare_and_set c.home s t)
  then retire c

let make_cache () : ('s, 'i) cache =
  let home = Domain.DLS.get spare in
  let t = Atomic.exchange home no_table in
  let c =
    {
      width = t.width;
      stride = r_nbs + (2 * t.width);
      rows = t.rows;
      tokens = t.tokens;
      pages = t.pages;
      blank = 0;
      scratch = Ss_prelude.Scratch.create ();
      home;
    }
  in
  Gc.finalise retire c;
  c

(* Room for rows of degree [deg]: a wider table, blank.  The old
   pages are the wrong size for it, so they go. *)
let widen c deg =
  c.width <- deg;
  c.stride <- r_nbs + (2 * deg);
  c.rows <- [||];
  c.tokens <- [||];
  c.pages <- 0;
  c.blank <- 0

(* Make pages [blank .. page] blank rows of this cache: an adopted page
   is cleared, a missing one allocated (a spine grows at least
   doubling; its pages are never copied). *)
let claim c page =
  let words = page_rows * c.stride in
  for j = c.blank to page do
    if j < c.pages then begin
      Array.fill c.rows.(j) 0 words 0;
      Array.fill c.tokens.(j) 0 page_rows private_token
    end
    else begin
      let len = Array.length c.rows in
      if j >= len then begin
        let len' = max (j + 1) (2 * len) in
        let rows = Array.make len' [||] and tokens = Array.make len' [||] in
        Array.blit c.rows 0 rows 0 c.pages;
        Array.blit c.tokens 0 tokens 0 c.pages;
        c.rows <- rows;
        c.tokens <- tokens
      end;
      c.rows.(j) <- Array.make words 0;
      c.tokens.(j) <- Array.make page_rows private_token;
      c.pages <- j + 1
    end
  done;
  c.blank <- page + 1

(* Global count of guard evaluations answered (fully or partially)
   from a watermark instead of a full-prefix rescan.  The caches
   themselves are per-domain ({!per_domain_cached}), so this one shared counter is the only cross-domain
   write on the hot path; it exists so tests can assert that sharded
   runs actually exercise the cached predicates. *)
let hits = Atomic.make 0
let cache_hits () = Atomic.get hits

(* Neighbour [k]'s stamps at [row.(at + k)], lineage ids at
   [row.(at + deg + k)]. *)
let rec same_stamps row at nbs k =
  k >= Array.length nbs
  || (row.(at + k) = St.stamp nbs.(k) && same_stamps row at nbs (k + 1))

let rec same_reps row at nbs k =
  k >= Array.length nbs
  || (row.(at + k) = St.rep_id nbs.(k) && same_reps row at nbs (k + 1))

(* An empty page for nodes past the claimed ones: every lookup there
   misses on its length. *)
let no_rows : int array = [||]

let algo_err_cached (c : ('s, 'i) cache) params (v : ('s, 'i) view) =
  let top = top_checkable v in
  if top < 1 then false
  else begin
    let self = v.Algorithm.self in
    let nbs = v.Algorithm.neighbors in
    let deg = Array.length nbs in
    let input = Obj.repr v.Algorithm.input in
    let rep = St.rep_id self in
    let node = v.Algorithm.node in
    if deg > c.width then widen c deg;
    let page = node lsr page_bits and slot = node land (page_rows - 1) in
    let row = if page < c.blank then c.rows.(page) else no_rows in
    let at = slot * c.stride in
    let same_lineage =
      Array.length row > 0
      && c.tokens.(page).(slot) == input
      && row.(at + r_self_rep) = rep
      && row.(at + r_deg) = deg
    in
    if
      same_lineage
      && row.(at + r_self_stamp) = St.stamp self
      && row.(at + r_top) = top
      && same_stamps row (at + r_nbs) nbs 0
    then begin
      Atomic.incr hits;
      row.(at + r_result) = 1
    end
    else begin
      let base =
        if same_lineage && same_reps row (at + r_nbs + deg) nbs 0 then
          if row.(at + r_verified) < top then row.(at + r_verified) else top
        else 0
      in
      if base > 0 then Atomic.incr hits;
      let deps = Ss_prelude.Scratch.get c.scratch deg (St.cell self 0) in
      let i = scan params v deps ~base ~top in
      let result = i <= top in
      if page >= c.blank then claim c page;
      let row = c.rows.(page) in
      c.tokens.(page).(slot) <- input;
      row.(at + r_self_rep) <- rep;
      row.(at + r_self_stamp) <- St.stamp self;
      row.(at + r_verified) <- (if result then i - 1 else top);
      row.(at + r_top) <- top;
      row.(at + r_result) <- (if result then 1 else 0);
      row.(at + r_deg) <- deg;
      for k = 0 to deg - 1 do
        row.(at + r_nbs + k) <- St.stamp nbs.(k);
        row.(at + r_nbs + deg + k) <- St.rep_id nbs.(k)
      done;
      result
    end
  end

let algo_hat_cached (c : ('s, 'i) cache) params (v : ('s, 'i) view) i =
  let nbs = v.Algorithm.neighbors in
  let deg = Array.length nbs in
  let self_i = St.cell v.Algorithm.self i in
  let deps = Ss_prelude.Scratch.get c.scratch deg self_i in
  for k = 0 to deg - 1 do
    deps.(k) <- St.cell nbs.(k) i
  done;
  params.sync.Sync_algo.step v.Algorithm.input self_i deps

let per_domain_cached () =
  let caches = Ss_prelude.Per_domain.create make_cache in
  ( (fun params v -> algo_err_cached (Ss_prelude.Per_domain.get caches) params v),
    fun params v i -> algo_hat_cached (Ss_prelude.Per_domain.get caches) params v i )

let rec has_error_below nbs h k =
  k < Array.length nbs
  && ((St.in_error nbs.(k) && St.height nbs.(k) < h) || has_error_below nbs h (k + 1))

let rec has_cliff nbs h k =
  k < Array.length nbs && (St.height nbs.(k) >= h + 2 || has_cliff nbs h (k + 1))

let dep_err _params (v : ('s, 'i) view) =
  let self = v.Algorithm.self in
  let h = St.height self in
  let nbs = v.Algorithm.neighbors in
  match St.status self with
  | St.E -> not (has_error_below nbs h 0)
  | St.C -> has_cliff nbs h 0

let is_root params v = algo_err params v || dep_err params v

(* The smallest valid i is (min height of an error neighbor) + 1; it
   must satisfy q.h < i < p.h.  Valid indices are >= 1, so 0 is the
   "no RP rule enabled" sentinel the guard tests without an option. *)
let err_prop_min _params (v : ('s, 'i) view) =
  let h = St.height v.Algorithm.self in
  let nbs = v.Algorithm.neighbors in
  let best = ref max_int in
  for k = 0 to Array.length nbs - 1 do
    let q = nbs.(k) in
    if St.in_error q && St.height q < !best then best := St.height q
  done;
  if !best < max_int && !best + 1 < h then !best + 1 else 0

let err_prop_index params v =
  match err_prop_min params v with 0 -> None | i -> Some i

let rec clearable_nbs nbs h k =
  k >= Array.length nbs
  ||
  let q = nbs.(k) in
  let hq = St.height q in
  abs (hq - h) <= 1
  && (hq <= h || not (St.in_error q))
  && clearable_nbs nbs h (k + 1)

let can_clear_e _params (v : ('s, 'i) view) =
  let self = v.Algorithm.self in
  St.in_error self && clearable_nbs v.Algorithm.neighbors (St.height self) 0

let rec aligned_nbs nbs h k =
  k >= Array.length nbs
  ||
  let hq = St.height nbs.(k) in
  h <= hq && hq <= h + 1 && aligned_nbs nbs h (k + 1)

let rec some_nb_above nbs h k =
  k < Array.length nbs && (St.height nbs.(k) > h || some_nb_above nbs h (k + 1))

(* The lazy test comes last, its cheap height test first: [algo_hat]
   runs [step]. *)
let updatable_with ~algo_hat params (v : ('s, 'i) view) =
  let self = v.Algorithm.self in
  let h = St.height self in
  let nbs = v.Algorithm.neighbors in
  (not (St.in_error self))
  && below_bound params.bound h
  && aligned_nbs nbs h 0
  &&
  match params.mode with
  | Greedy -> true
  | Lazy ->
      some_nb_above nbs h 0
      || not (params.sync.Sync_algo.equal (St.top self) (algo_hat params v h))

let updatable params v = updatable_with ~algo_hat params v
