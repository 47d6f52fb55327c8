module Graph = Ss_graph.Graph

(* Contiguous node range owned by one worker.  Shard boundaries are
   multiples of {!Nodeset.word_bits}, so two shards never write the
   same bitset word; all other mutable fields are shard-private.
   Counter deltas are harvested into the global totals in shard-index
   order after every update — the same deterministic merge discipline
   the campaign pool uses (DESIGN.md §11/§12). *)
type ('s, 'i) shard = {
  lo : int;
  hi : int;  (* owns nodes [lo, hi) *)
  work : int array;  (* this update's dirty owned nodes, scan order *)
  mutable wlen : int;
  scratch : 's array array;
      (* Shared guard-view buffers indexed by degree: one buffer per
         distinct degree per shard, refilled in place for every
         evaluation — views need exact-length neighbor arrays, and
         guards must not retain them (see the interface), so nodes of
         equal degree can share.  Replaces the historical n per-node
         buffers (~4M boxed words at n = 10^6 random-4) with O(#degrees)
         per shard, allocated on first touch. *)
  mutable s_evals : int;
  mutable s_delta : int;  (* enabled-count change, pending harvest *)
}

type ('s, 'i) t = {
  algo : ('s, 'i) Algorithm.t;
  graph : Graph.t;
  inputs : 'i array;
  rules : ('s, 'i) Algorithm.rule option array;
      (* Highest-priority enabled rule of each node, [None] when the
         node is disabled.  This is the scheduler's ground truth. *)
  enabled : Nodeset.t;
  stamp : int array;
  mutable epoch : int;
      (* Visit stamps: a node whose stamp equals the current epoch has
         already been bucketed this update (dirty sets of adjacent
         movers overlap). *)
  mutable evals : int;
  shards : ('s, 'i) shard array;
  parallel : bool;
}

let eval t sh states p =
  let deg = Graph.degree t.graph p in
  let buf =
    let b = sh.scratch.(deg) in
    if Array.length b = deg then b
    else begin
      let b = Array.make deg states.(p) in
      sh.scratch.(deg) <- b;
      b
    end
  in
  for i = 0 to deg - 1 do
    buf.(i) <- states.(Graph.nbr t.graph p i)
  done;
  sh.s_evals <- sh.s_evals + 1;
  Algorithm.enabled_rule t.algo
    { Algorithm.input = t.inputs.(p); self = states.(p); neighbors = buf; node = p }

let refresh t sh states p =
  let now = eval t sh states p in
  (match (t.rules.(p), now) with
  | None, Some _ ->
      if Nodeset.unsafe_add t.enabled p then sh.s_delta <- sh.s_delta + 1
  | Some _, None ->
      if Nodeset.unsafe_remove t.enabled p then sh.s_delta <- sh.s_delta - 1
  | None, None | Some _, Some _ -> ());
  t.rules.(p) <- now

(* Fold every shard's pending deltas into the global counters, in
   shard-index order, and reset them.  This is the only place shard
   results meet — identical totals whatever ran the shards. *)
let harvest t =
  Array.iter
    (fun sh ->
      t.evals <- t.evals + sh.s_evals;
      if sh.s_delta <> 0 then Nodeset.bump t.enabled sh.s_delta;
      sh.s_evals <- 0;
      sh.s_delta <- 0;
      sh.wlen <- 0)
    t.shards

(* ~16k nodes per shard, rounded to the bitset word size so shard
   ranges own disjoint words.  Fixed (not derived from the job count)
   so shard boundaries — and therefore every intermediate — are
   machine- and [-j]-independent. *)
let shard_quantum = Nodeset.word_bits * 256

let make_shards ~parallel ~n ~max_degree =
  let ranges =
    if (not parallel) || n <= shard_quantum then [ (0, n) ]
    else begin
      let acc = ref [] in
      let lo = ref 0 in
      while !lo < n do
        let hi = min n (!lo + shard_quantum) in
        acc := (!lo, hi) :: !acc;
        lo := hi
      done;
      List.rev !acc
    end
  in
  Array.of_list
    (List.map
       (fun (lo, hi) ->
         {
           lo;
           hi;
           work = Array.make (max 1 (hi - lo)) 0;
           wlen = 0;
           scratch = Array.make (max_degree + 1) [||];
           s_evals = 0;
           s_delta = 0;
         })
       ranges)

let create ?(parallel = false) algo (config : ('s, 'i) Config.t) =
  let graph = config.Config.graph in
  let n = Graph.n graph in
  let states = config.Config.states in
  let t =
    {
      algo;
      graph;
      inputs = config.Config.inputs;
      rules = Array.make n None;
      enabled = Nodeset.create ~capacity:(max 1 n) ();
      stamp = Array.make n (-1);
      epoch = 0;
      evals = 0;
      shards = make_shards ~parallel ~n ~max_degree:(Graph.max_degree graph);
      parallel;
    }
  in
  Array.iter
    (fun sh ->
      for p = sh.lo to sh.hi - 1 do
        refresh t sh states p
      done)
    t.shards;
  harvest t;
  t

let shard_of t p = t.shards.(p / shard_quantum)

let update t (config : ('s, 'i) Config.t) ~moved =
  if config.Config.graph != t.graph then
    invalid_arg "Sched.update: configuration belongs to another topology";
  let states = config.Config.states in
  t.epoch <- t.epoch + 1;
  (* Sequential dirty scan: bucket each dirty node into its owner
     shard, deduplicated by epoch stamp.  Cheap integer work — the
     expensive part (guard evaluation) happens per bucket below. *)
  let single = Array.length t.shards = 1 in
  let touch p =
    if t.stamp.(p) <> t.epoch then begin
      t.stamp.(p) <- t.epoch;
      let sh = if single then t.shards.(0) else shard_of t p in
      sh.work.(sh.wlen) <- p - sh.lo;
      sh.wlen <- sh.wlen + 1
    end
  in
  List.iter
    (fun p ->
      touch p;
      Graph.iter_neighbors t.graph p touch)
    moved;
  let process sh =
    for k = 0 to sh.wlen - 1 do
      refresh t sh states (sh.lo + sh.work.(k))
    done
  in
  let total_dirty =
    Array.fold_left (fun acc sh -> acc + sh.wlen) 0 t.shards
  in
  if
    t.parallel
    && Array.length t.shards > 1
    && total_dirty >= 1024
    && Ss_par.Par.jobs () > 1
  then ignore (Ss_par.Par.map_array process t.shards)
  else Array.iter process t.shards;
  harvest t

let enabled t = Nodeset.elements t.enabled
let enabled_set t = t.enabled
let no_enabled t = Nodeset.is_empty t.enabled
let is_enabled t p = Option.is_some t.rules.(p)
let enabled_rule t p = t.rules.(p)
let evals t = t.evals
