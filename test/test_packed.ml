(* Packed state arenas (DESIGN.md §12): the Cellpack-backed
   Trans_state must be observationally identical to the boxed
   copy-on-write backend — property-tested over random operation
   interleavings, including several nodes sharing one arena and the
   lineage-id ([rep_id]) soundness the Predicates watermark cache
   rests on — and a full packed engine run must reproduce the boxed
   naive reference execution move for move. *)

module Graph = Ss_graph.Graph
module Builders = Ss_graph.Builders
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Rng = Ss_prelude.Rng
module St = Ss_core.Trans_state
module Cellpack = Ss_core.Cellpack
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module Stabilization = Ss_verify.Stabilization
module Leader = Ss_algos.Leader_election
module Min_flood = Ss_algos.Min_flood
module Bfs = Ss_algos.Bfs_tree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Codecs                                                               *)
(* ------------------------------------------------------------------ *)

let test_codecs () =
  let buf = Array.make 8 0 in
  Cellpack.int_codec.Cellpack.pack buf 3 (-42);
  check_int "int codec roundtrip" (-42) (Cellpack.int_codec.Cellpack.unpack buf 3);
  let states = [ Bfs.Null; Bfs.Root; Bfs.Parent 0; Bfs.Parent 7 ] in
  List.iter
    (fun s ->
      Bfs.codec.Cellpack.pack buf 0 s;
      check "bfs codec roundtrip" true
        (Bfs.codec.Cellpack.unpack buf 0 = s))
    states;
  let pc = Cellpack.pair Cellpack.int_codec Cellpack.int_codec in
  check_int "pair codec width" 2 pc.Cellpack.words;
  pc.Cellpack.pack buf 1 (5, -6);
  check "pair codec roundtrip" true (pc.Cellpack.unpack buf 1 = (5, -6))

let test_arena_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "n >= 1" true
    (raises (fun () -> ignore (Cellpack.arena ~codec:Cellpack.int_codec ~n:0 ~cap:4)));
  check "cap >= 0" true
    (raises (fun () -> ignore (Cellpack.arena ~codec:Cellpack.int_codec ~n:1 ~cap:(-1))));
  let a = Cellpack.arena ~codec:Cellpack.int_codec ~n:10 ~cap:4 in
  check_int "n accessor" 10 (Cellpack.n a);
  check_int "cap accessor" 4 (Cellpack.cap a);
  check "bytes counts the payload" true (Cellpack.bytes a >= 8 * (10 * 4 + 20))

(* ------------------------------------------------------------------ *)
(* Random op interleavings: packed twin ≡ boxed twin                    *)
(* ------------------------------------------------------------------ *)

(* One step of the shared single-timeline discipline, driven by raw
   random ints so qcheck can shrink.  Returns the two new states. *)
let apply_op rng cap (boxed, packed) =
  let h = St.height boxed in
  match Rng.int rng 6 with
  | 0 when h < cap ->
      let v = Rng.int rng 100 in
      (St.extend boxed v, St.extend packed v)
  | 1 -> let i = Rng.int rng (h + 1) in (St.truncate boxed i, St.truncate packed i)
  | 2 ->
      let s = if Rng.bool rng then St.C else St.E in
      (St.with_status boxed s, St.with_status packed s)
  | 3 -> (St.wipe boxed, St.wipe packed)
  | 4 ->
      let len = Rng.int rng (cap + 1) in
      let cells = Array.init len (fun _ -> Rng.int rng 100) in
      let status = if Rng.bool rng then St.C else St.E in
      (St.rebuild boxed ~status ~cells, St.rebuild packed ~status ~cells)
  | _ ->
      (* Truncate-then-extend: the sub-committed overwrite path. *)
      if h = 0 then (boxed, packed)
      else
        let i = Rng.int rng h in
        let v = Rng.int rng 100 in
        (St.extend (St.truncate boxed i) v, St.extend (St.truncate packed i) v)

let same_state msg boxed packed =
  check_int (msg ^ ": height") (St.height boxed) (St.height packed);
  check (msg ^ ": status") true (St.status boxed = St.status packed);
  check_int (msg ^ ": init") (St.init boxed) (St.init packed);
  for i = 0 to St.height boxed do
    check_int (Printf.sprintf "%s: cell %d" msg i) (St.cell boxed i)
      (St.cell packed i)
  done;
  check (msg ^ ": snapshot") true (St.snapshot boxed = St.snapshot packed);
  check (msg ^ ": cross-backend equal") true (St.equal Int.equal boxed packed);
  check (msg ^ ": fold_cells") true
    (St.fold_cells (fun acc c -> c :: acc) [] boxed
    = St.fold_cells (fun acc c -> c :: acc) [] packed)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:200 ~name:"packed ≡ boxed under random op interleavings"
      (pair small_int (int_range 1 8))
      (fun (seed, cap) ->
        let rng = Rng.create seed in
        let nodes = 3 in
        let arena = Cellpack.arena ~codec:Cellpack.int_codec ~n:nodes ~cap in
        (* Three independent timelines sharing one arena, each with a
           boxed twin: checks slot isolation on top of equivalence. *)
        let twins =
          Array.init nodes (fun node ->
              let init = Rng.int rng 100 in
              ref (St.clean init, St.packed_clean arena ~node ~init))
        in
        for step = 1 to 40 do
          let node = Rng.int rng nodes in
          let pair = apply_op rng cap !(twins.(node)) in
          twins.(node) := pair;
          Array.iteri
            (fun i tw ->
              let b, p = !tw in
              same_state
                (Printf.sprintf "seed %d step %d node %d" seed step i)
                b p)
            twins
        done;
        true);
    Test.make ~count:200
      ~name:"equal rep_id ⇒ physically unchanged committed prefix"
      (pair small_int (int_range 1 8))
      (fun (seed, cap) ->
        (* The soundness invariant of the Predicates watermark cache:
           between any two packed handles on the same slot carrying
           the same lineage id, the cells both can read agree. *)
        let rng = Rng.create seed in
        let arena = Cellpack.arena ~codec:Cellpack.int_codec ~n:1 ~cap in
        let state = ref (St.clean 7, St.packed_clean arena ~node:0 ~init:7) in
        let snap packed = (St.rep_id packed, St.cells packed) in
        let cache = ref (snap (snd !state)) in
        for _ = 1 to 60 do
          state := apply_op rng cap !state;
          let packed = snd !state in
          let rep, cells = snap packed in
          let cached_rep, cached_cells = !cache in
          if rep = cached_rep then begin
            let common =
              min (Array.length cells) (Array.length cached_cells)
            in
            for i = 0 to common - 1 do
              if cells.(i) <> cached_cells.(i) then
                Test.fail_reportf
                  "rep %d kept but cell %d changed %d -> %d" rep i
                  cached_cells.(i) cells.(i)
            done
          end;
          cache := (rep, cells)
        done;
        true);
  ]

let test_capacity_exceeded () =
  let arena = Cellpack.arena ~codec:Cellpack.int_codec ~n:1 ~cap:2 in
  let st = St.packed_clean arena ~node:0 ~init:0 in
  let st = St.extend (St.extend st 1) 2 in
  check_int "filled to cap" 2 (St.height st);
  check "extend past cap raises" true
    (try
       ignore (St.extend st 3);
       false
     with Invalid_argument _ -> true);
  check "rebuild past cap raises" true
    (try
       ignore (St.rebuild st ~status:St.C ~cells:[| 1; 2; 3 |]);
       false
     with Invalid_argument _ -> true)

let test_rep_minting () =
  let arena = Cellpack.arena ~codec:Cellpack.int_codec ~n:2 ~cap:4 in
  let st = St.packed_clean arena ~node:0 ~init:0 in
  let st1 = St.extend st 1 in
  let st2 = St.extend st1 2 in
  check "frontier extends keep the lineage" true
    (St.rep_id st = St.rep_id st1 && St.rep_id st1 = St.rep_id st2);
  let cut = St.truncate st2 1 in
  check "truncate keeps the lineage" true (St.rep_id cut = St.rep_id st2);
  let rewritten = St.extend cut 9 in
  check "sub-committed overwrite mints a fresh lineage" true
    (St.rep_id rewritten <> St.rep_id st2);
  check "wipe mints a fresh lineage" true
    (St.rep_id (St.wipe rewritten) <> St.rep_id rewritten);
  let other = St.packed_clean arena ~node:1 ~init:5 in
  check "slots have distinct lineages" true
    (St.rep_id other <> St.rep_id rewritten);
  check "boxed and packed ids never collide" true
    (St.rep_id (St.clean 0) <> St.rep_id other)

(* ------------------------------------------------------------------ *)
(* Differential: packed Transformer.run ≡ boxed Transformer.run_naive  *)
(* ------------------------------------------------------------------ *)

let daemon_factories seed =
  [
    ("sync", fun () -> Daemon.synchronous);
    ("async", fun () -> Daemon.distributed_random (Rng.create seed) ~p:0.5);
  ]

let assert_stats msg (a : _ Engine.stats) (b : _ Engine.stats) =
  check_int (msg ^ ": steps") a.Engine.steps b.Engine.steps;
  check_int (msg ^ ": moves") a.Engine.moves b.Engine.moves;
  check_int (msg ^ ": rounds") a.Engine.rounds b.Engine.rounds;
  check (msg ^ ": terminated") a.Engine.terminated b.Engine.terminated;
  Alcotest.(check (array int))
    (msg ^ ": moves per node")
    a.Engine.moves_per_node b.Engine.moves_per_node;
  Alcotest.(check (list (pair string int)))
    (msg ^ ": moves per rule")
    a.Engine.moves_per_rule b.Engine.moves_per_rule

(* Build the same corrupted scenario twice — packed and boxed — from
   identically seeded rngs, run the packed one on the incremental
   engine and the boxed one on the naive reference engine, and demand
   the exact same execution. *)
let differential (type s i) ~msg ~seed ~bound
    ~(codec : s Cellpack.codec) (sync : (s, i) Ss_sync.Sync_algo.t)
    (graph : Graph.t) (inputs : int -> i) =
  let params = Transformer.params ~bound:(P.Finite bound) sync in
  let sc = { Stabilization.params; graph; inputs } in
  let start ?codec () =
    Stabilization.corrupted_start (Rng.create seed) ?codec ~max_height:bound sc
  in
  let packed_start = start ~codec () in
  let boxed_start = start () in
  check (msg ^ ": packed start is packed") true
    (Array.for_all
       (fun st -> St.backing_arena st <> None)
       packed_start.Config.states);
  check (msg ^ ": boxed start is boxed") true
    (Array.for_all
       (fun st -> St.backing_arena st = None)
       boxed_start.Config.states);
  let eq = St.equal sync.Ss_sync.Sync_algo.equal in
  check (msg ^ ": same corrupted start") true
    (Config.equal eq packed_start boxed_start);
  List.iter
    (fun (dname, factory) ->
      let msg = Printf.sprintf "%s/%s/seed=%d" msg dname seed in
      let packed = Transformer.run params (factory ()) (start ~codec ()) in
      let naive = Transformer.run_naive params (factory ()) (start ()) in
      assert_stats msg packed naive;
      check (msg ^ ": same final configuration") true
        (Config.equal eq packed.Engine.final naive.Engine.final);
      (* And the sharded engine (uncached predicates, shard merge)
         reproduces the same execution again. *)
      let sharded =
        Transformer.run ~sharded:true params (factory ()) (start ~codec ())
      in
      assert_stats (msg ^ "/sharded") sharded naive;
      check (msg ^ ": sharded same final") true
        (Config.equal eq sharded.Engine.final naive.Engine.final))
    (daemon_factories seed)

let seeds = [ 1; 2; 3 ]

let test_differential_leader () =
  List.iter
    (fun seed ->
      let graph = Builders.torus ~rows:4 ~cols:5 in
      let inputs = Leader.random_ids (Rng.create (seed + 100)) graph in
      differential ~msg:"leader" ~seed ~bound:6 ~codec:Leader.codec
        Leader.algo graph inputs)
    seeds

let test_differential_minflood () =
  List.iter
    (fun seed ->
      let graph = Builders.cycle 12 in
      differential ~msg:"minflood" ~seed ~bound:7 ~codec:Min_flood.codec
        Min_flood.algo graph
        (fun p -> (p * 31) mod 17))
    seeds

let test_differential_bfs () =
  List.iter
    (fun seed ->
      let graph = Builders.random4 (Rng.create (seed + 7)) 16 in
      let inputs = Bfs.inputs graph ~root:0 in
      differential ~msg:"bfs" ~seed ~bound:5 ~codec:Bfs.codec Bfs.algo graph
        inputs)
    seeds

(* The packed self-check path: cached vs uncached predicates and
   incremental vs full-scan enabled sets, cross-validated every step
   on a packed configuration. *)
let test_packed_self_check () =
  let graph = Builders.torus ~rows:4 ~cols:4 in
  let inputs = Leader.random_ids (Rng.create 42) graph in
  let params = Transformer.params ~bound:(P.Finite 6) Leader.algo in
  let sc = { Stabilization.params; graph; inputs } in
  let start =
    Stabilization.corrupted_start (Rng.create 42) ~codec:Leader.codec
      ~max_height:6 sc
  in
  let stats =
    Transformer.run ~self_check:true params Daemon.synchronous start
  in
  check "terminated" true stats.Engine.terminated

(* Above ~16k nodes the sharded scheduler actually splits into
   multiple shards, and with jobs > 1 the guard sweeps run on the
   Ss_par pool — this is the only test small enough for CI that still
   crosses both thresholds, exercising the index-ordered shard merge
   for real.  Byte-identical stats are the determinism contract. *)
let test_sharded_merge_at_scale () =
  let saved = Ss_par.Par.jobs () in
  Fun.protect
    ~finally:(fun () -> Ss_par.Par.set_jobs saved)
    (fun () ->
      Ss_par.Par.set_jobs 4;
      let graph = Builders.torus ~rows:150 ~cols:150 in
      let inputs = Leader.random_ids (Rng.create 11) graph in
      let params = Transformer.params ~bound:(P.Finite 4) Leader.algo in
      let sc = { Stabilization.params; graph; inputs } in
      let start () =
        Stabilization.corrupted_start (Rng.create 11) ~codec:Leader.codec
          ~max_height:4 sc
      in
      let sharded =
        Transformer.run ~sharded:true params Daemon.synchronous (start ())
      in
      let sequential =
        Transformer.run params Daemon.synchronous (start ())
      in
      assert_stats "22500-node sharded ≡ sequential" sharded sequential;
      check "same final" true
        (Config.equal
           (St.equal Int.equal)
           sharded.Engine.final sequential.Engine.final))

let () =
  Alcotest.run "packed"
    [
      ( "cellpack",
        [
          Alcotest.test_case "codec roundtrips" `Quick test_codecs;
          Alcotest.test_case "arena validation" `Quick test_arena_validation;
        ] );
      ( "trans_state",
        [
          Alcotest.test_case "capacity exceeded" `Quick test_capacity_exceeded;
          Alcotest.test_case "lineage minting" `Quick test_rep_minting;
        ] );
      ( "differential",
        [
          Alcotest.test_case "leader torus" `Quick test_differential_leader;
          Alcotest.test_case "minflood ring" `Quick test_differential_minflood;
          Alcotest.test_case "bfs random4" `Quick test_differential_bfs;
          Alcotest.test_case "packed self-check" `Quick test_packed_self_check;
          Alcotest.test_case "sharded merge at scale" `Quick
            test_sharded_merge_at_scale;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
