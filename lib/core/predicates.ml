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
   locates the entry; the tokens below decide whether it applies, so a
   view whose index names another node's entry costs a miss, never a
   wrong answer. *)
type entry = {
  mutable input : Obj.t;
      (* Physical token of the view's input: one state aliased at two
         nodes with different inputs verifies differently at each. *)
  mutable self_rep : int;
  mutable self_stamp : int;
  mutable nb_stamps : int array;
  mutable nb_reps : int array;
  mutable verified : int;  (* cells 1 .. verified are algo-correct *)
  mutable top : int;  (* top_checkable at the last evaluation *)
  mutable result : bool;
}

type ('s, 'i) cache = {
  mutable entries : entry array;
      (* [entries.(p)] is node [p]'s watermark, {!no_entry} until its
         first evaluation; grown on demand, overwritten in place. *)
  scratch : 's Ss_prelude.Scratch.t;
      (* The dependency arrays {!scan} and {!algo_hat_cached} refill,
         one per node degree. *)
}

(* An entry that matches no view: its input token is private. *)
let private_token = Obj.repr (ref ())

let blank () =
  {
    input = private_token;
    self_rep = -1;
    self_stamp = -1;
    nb_stamps = [||];
    nb_reps = [||];
    verified = 0;
    top = -1;
    result = false;
  }

(* Stand-in for "no entry yet"; never written. *)
let no_entry = blank ()

let make_cache () : ('s, 'i) cache =
  { entries = [||]; scratch = Ss_prelude.Scratch.create () }

(* Node [node]'s entry, created (and the table grown, at least
   doubling) on its first evaluation. *)
let entry_for c node =
  let len = Array.length c.entries in
  if node >= len then begin
    let grown = Array.make (max (node + 1) (2 * len)) no_entry in
    Array.blit c.entries 0 grown 0 len;
    c.entries <- grown
  end;
  let e = c.entries.(node) in
  if e != no_entry then e
  else begin
    let e = blank () in
    c.entries.(node) <- e;
    e
  end

(* Global count of guard evaluations answered (fully or partially)
   from a watermark instead of a full-prefix rescan.  The caches
   themselves are per-domain (transformer.ml keys them through
   Domain.DLS), so this one shared counter is the only cross-domain
   write on the hot path; it exists so tests can assert that sharded
   runs actually exercise the cached predicates. *)
let hits = Atomic.make 0
let cache_hits () = Atomic.get hits

let rec same_stamps stamps nbs k =
  k >= Array.length nbs
  || (stamps.(k) = St.stamp nbs.(k) && same_stamps stamps nbs (k + 1))

let rec same_reps reps nbs k =
  k >= Array.length nbs
  || (reps.(k) = St.rep_id nbs.(k) && same_reps reps nbs (k + 1))

let record_neighbors e nbs =
  let deg = Array.length nbs in
  if Array.length e.nb_stamps <> deg then begin
    e.nb_stamps <- Array.make deg 0;
    e.nb_reps <- Array.make deg 0
  end;
  for k = 0 to deg - 1 do
    e.nb_stamps.(k) <- St.stamp nbs.(k);
    e.nb_reps.(k) <- St.rep_id nbs.(k)
  done

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
    let e =
      if node < Array.length c.entries then c.entries.(node) else no_entry
    in
    let same_lineage = e.input == input && e.self_rep = rep in
    if
      same_lineage
      && e.self_stamp = St.stamp self
      && e.top = top
      && Array.length e.nb_stamps = deg
      && same_stamps e.nb_stamps nbs 0
    then begin
      Atomic.incr hits;
      e.result
    end
    else begin
      let base =
        if same_lineage && Array.length e.nb_reps = deg && same_reps e.nb_reps nbs 0
        then if e.verified < top then e.verified else top
        else 0
      in
      if base > 0 then Atomic.incr hits;
      let deps = Ss_prelude.Scratch.get c.scratch deg (St.cell self 0) in
      let i = scan params v deps ~base ~top in
      let result = i <= top in
      let e = if e != no_entry then e else entry_for c node in
      e.input <- input;
      e.self_rep <- rep;
      e.self_stamp <- St.stamp self;
      record_neighbors e nbs;
      e.verified <- (if result then i - 1 else top);
      e.top <- top;
      e.result <- result;
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
