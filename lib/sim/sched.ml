module Graph = Ss_graph.Graph

(* Contiguous node range owned by one worker.  Shard boundaries are
   multiples of {!Nodeset.word_bits}, so two shards never write the
   same bitset word (of the enabled set or of the dirty set); all
   other mutable fields are shard-private.  Counter deltas are
   harvested into the global totals in shard-index order after every
   update — the same deterministic merge discipline the campaign pool
   uses (DESIGN.md §11/§12). *)
type 's shard = {
  lo : int;
  hi : int;  (* owns nodes [lo, hi) *)
  scratch : 's Ss_prelude.Scratch.t;
      (* Guard-view buffers shared by degree, refilled in place for
         every evaluation: guards must not retain them (see the
         interface).  Replaces the historical n per-node buffers (~4M
         boxed words at n = 10^6 random-4) with O(#degrees) per
         shard. *)
  mutable s_evals : int;
  mutable s_delta : int;  (* enabled-count change, pending harvest *)
}

type ('s, 'i) t = {
  algo : ('s, 'i) Algorithm.t;
  graph : Graph.t;
  rules : ('s, 'i) Algorithm.rule option array;
      (* Highest-priority enabled rule of each node, [None] when the
         node is disabled.  This is the scheduler's ground truth. *)
  choices : ('s, 'i) Algorithm.rule option array;
      (* [Some r] for each rule, in priority order, built once: a
         refresh stores a shared value instead of allocating one that
         the long-lived [rules] array would drag into the major
         heap. *)
  enabled : Nodeset.t;
  dirty : int array;
      (* This update's dirty set, one bit per node in the enabled set's
         word layout; all zero between updates. *)
  mutable span_lo : int;
  mutable span_hi : int;
      (* Words [span_lo .. span_hi] hold every dirty bit (empty when
         [span_lo > span_hi]). *)
  mutable ndirty : int;
  mutable evals : int;
  shards : 's shard array;
  parallel : bool;
}

(* {!Algorithm.enabled_rule}, answered from [choices]. *)
let rec first_enabled choices view k = function
  | [] -> None
  | r :: rest ->
      if r.Algorithm.guard view then choices.(k)
      else first_enabled choices view (k + 1) rest

let refresh t sh config p =
  sh.s_evals <- sh.s_evals + 1;
  let view = Config.borrowed_view sh.scratch config p in
  let now = first_enabled t.choices view 0 t.algo.Algorithm.rules in
  let was = t.rules.(p) in
  if was != now then begin
    (match (was, now) with
    | None, Some _ ->
        if Nodeset.unsafe_add t.enabled p then sh.s_delta <- sh.s_delta + 1
    | Some _, None ->
        if Nodeset.unsafe_remove t.enabled p then sh.s_delta <- sh.s_delta - 1
    | None, None | Some _, Some _ -> ());
    t.rules.(p) <- now
  end

(* Fold every shard's pending deltas into the global counters, in
   shard-index order, and reset them.  This is the only place shard
   results meet — identical totals whatever ran the shards. *)
let harvest t =
  Array.iter
    (fun sh ->
      t.evals <- t.evals + sh.s_evals;
      if sh.s_delta <> 0 then Nodeset.bump t.enabled sh.s_delta;
      sh.s_evals <- 0;
      sh.s_delta <- 0)
    t.shards

(* ~16k nodes per shard, rounded to the bitset word size so shard
   ranges own disjoint words.  Fixed (not derived from the job count)
   so shard boundaries — and therefore every intermediate — are
   machine- and [-j]-independent. *)
let shard_quantum = Nodeset.word_bits * 256

let make_shards ~parallel ~n =
  let shard lo hi =
    { lo; hi; scratch = Ss_prelude.Scratch.create (); s_evals = 0; s_delta = 0 }
  in
  if (not parallel) || n <= shard_quantum then [| shard 0 n |]
  else
    Array.init
      ((n + shard_quantum - 1) / shard_quantum)
      (fun k -> shard (k * shard_quantum) (min n ((k + 1) * shard_quantum)))

let create ?(parallel = false) algo (config : ('s, 'i) Config.t) =
  let graph = config.Config.graph in
  let n = Graph.n graph in
  let words = (max 1 n + Nodeset.word_bits - 1) / Nodeset.word_bits in
  let t =
    {
      algo;
      graph;
      rules = Array.make n None;
      choices = Array.of_list (List.map Option.some algo.Algorithm.rules);
      enabled = Nodeset.create ~capacity:(max 1 n) ();
      dirty = Array.make words 0;
      span_lo = max_int;
      span_hi = -1;
      ndirty = 0;
      evals = 0;
      shards = make_shards ~parallel ~n;
      parallel;
    }
  in
  Array.iter
    (fun sh ->
      for p = sh.lo to sh.hi - 1 do
        refresh t sh config p
      done)
    t.shards;
  harvest t;
  t

let mark t p =
  let w = p / Nodeset.word_bits in
  let b = 1 lsl (p - (w * Nodeset.word_bits)) in
  let old = t.dirty.(w) in
  if old land b = 0 then begin
    t.dirty.(w) <- old lor b;
    t.ndirty <- t.ndirty + 1;
    if w < t.span_lo then t.span_lo <- w;
    if w > t.span_hi then t.span_hi <- w
  end

(* Evaluate the shard's dirty nodes in increasing node order, clearing
   its words of the dirty set: the sweep covers the shard's share of
   the dirty span, word by word, and each word's bits from the lowest
   up. *)
let sweep t config sh =
  let wb = Nodeset.word_bits in
  let dirty = t.dirty in
  for w = max t.span_lo (sh.lo / wb) to min t.span_hi ((sh.hi - 1) / wb) do
    let bits = ref dirty.(w) in
    if !bits <> 0 then begin
      dirty.(w) <- 0;
      let base = w * wb in
      while !bits <> 0 do
        let low = !bits land - !bits in
        refresh t sh config (base + Nodeset.popcount (low - 1));
        bits := !bits lxor low
      done
    end
  done

let update t (config : ('s, 'i) Config.t) ~moved ~count =
  if config.Config.graph != t.graph then
    invalid_arg "Sched.update: configuration belongs to another topology";
  (* Mark the closed neighborhood of the movers (overlaps dedup in the
     bitset), then sweep.  A sweep costs its span in word reads beyond
     the evaluations — at most n / 63, what the round tracker's
     [Nodeset.inter] already pays every step. *)
  let g = t.graph in
  for k = 0 to count - 1 do
    let p = moved.(k) in
    mark t p;
    for i = 0 to Graph.degree g p - 1 do
      mark t (Graph.nbr g p i)
    done
  done;
  if
    t.parallel
    && Array.length t.shards > 1
    && t.ndirty >= 1024
    && Ss_par.Par.jobs () > 1
  then ignore (Ss_par.Par.map_array (sweep t config) t.shards)
  else Array.iter (sweep t config) t.shards;
  t.span_lo <- max_int;
  t.span_hi <- -1;
  t.ndirty <- 0;
  harvest t

let enabled t = Nodeset.elements t.enabled
let enabled_set t = t.enabled
let no_enabled t = Nodeset.is_empty t.enabled
let is_enabled t p = Option.is_some t.rules.(p)
let enabled_rule t p = t.rules.(p)
let evals t = t.evals
