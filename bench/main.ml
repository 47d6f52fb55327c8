(* Benchmark harness: regenerates every table and figure of the paper
   and then times the hot paths of the implementation with Bechamel.

   Paper artefacts reproduced (see DESIGN.md §3 and EXPERIMENTS.md):
     Table 1 (lazy / greedy / error-recovery / space rows),
     §5.1 leader election, §5.2 BFS tree, §5.3 Cole-Vishkin,
     §6 message/energy accounting,
     §7 + Figure 1 rollback exponential blow-up vs the transformer.

   Run with: dune exec bench/main.exe *)

module Rng = Ss_prelude.Rng
module Table = Ss_prelude.Table
module G = Ss_graph
module Sim = Ss_sim
module Core = Ss_core
module P = Ss_core.Predicates

let seeds = [ 1; 2 ]
let fresh_rng () = Rng.create 7

let section title f =
  let t0 = Unix.gettimeofday () in
  let table = f () in
  Printf.printf "== %s  [%.1fs] ==\n%!" title (Unix.gettimeofday () -. t0);
  Table.print table

let experiment_tables () =
  print_endline "#### Paper experiment reproduction ####";
  print_newline ();
  section "Table 1 / lazy mode: moves vs n^3+nT, rounds vs D+T" (fun () ->
      Ss_expt.Table1.lazy_rows ~seeds (fresh_rng ()));
  section "Table 1 / greedy mode: rounds scale with B" (fun () ->
      Ss_expt.Table1.greedy_rows ~seeds (fresh_rng ()));
  section "Table 1 / error recovery: rounds vs min(D,B)" (fun () ->
      Ss_expt.Table1.recovery_rows ~seeds (fresh_rng ()));
  section "Table 1 / space: per-node bits vs B*S" (fun () ->
      Ss_expt.Table1.space_rows ~seeds (fresh_rng ()));
  section "§5.1 leader election instance" (fun () ->
      Ss_expt.Instances.leader_rows ~seeds (fresh_rng ()));
  section "§5.2 BFS spanning tree instance" (fun () ->
      Ss_expt.Instances.bfs_rows ~seeds (fresh_rng ()));
  section "§5.3 Cole-Vishkin ring 3-coloring instance" (fun () ->
      Ss_expt.Instances.cv_rows ~seeds (fresh_rng ()));
  section "shortest-path tree instance (Bellman-Ford input)" (fun () ->
      Ss_expt.Instances.shortest_path_rows ~seeds (fresh_rng ()));
  section "§6 energy: full-state vs delta encodings" (fun () ->
      Ss_expt.Energy_expt.rows ~seeds (fresh_rng ()));
  section "§7 / Figure 1: rollback exponential blow-up (validated Gamma_k)"
    (fun () -> Ss_expt.Blowup_expt.rows ~max_k:10 ());
  section "ablation: each rule mechanism is load-bearing" (fun () ->
      Ss_expt.Ablation_expt.rows ~seeds:[ 1; 2 ] (fresh_rng ()));
  section "§6 end-to-end: transformer over message passing" (fun () ->
      Ss_expt.Msgnet_expt.rows ~seeds (fresh_rng ()));
  section "baseline: hand-crafted min+1 BFS vs transformed BFS" (fun () ->
      Ss_expt.Baselines_expt.bfs_rows ~seeds (fresh_rng ()));
  section "baseline: Dijkstra's token ring [27] (non-silent reference)"
    (fun () -> Ss_expt.Baselines_expt.dijkstra_rows (fresh_rng ()));
  section "locality: generic LOCAL simulation, space = Theta(Delta^r) * B"
    (fun () -> Ss_expt.Locality_expt.rows (fresh_rng ()))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot paths                           *)
(* ------------------------------------------------------------------ *)

let bench_sync_runner () =
  let g = G.Builders.cycle 32 in
  let rng = Rng.create 1 in
  let inputs = Ss_algos.Leader_election.random_ids rng g in
  fun () ->
    ignore (Ss_sync.Sync_runner.run Ss_algos.Leader_election.algo g ~inputs)

(* A corrupted transformed-leader-election configuration on a ring of
   [n] nodes: the standard workload for the engine benchmarks. *)
let trans_ring ~n ~seed =
  let g = G.Builders.cycle n in
  let rng = Rng.create seed in
  let inputs = Ss_algos.Leader_election.random_ids rng g in
  let params = Core.Transformer.params Ss_algos.Leader_election.algo in
  let algo = Core.Transformer.algorithm params in
  let config =
    Core.Transformer.corrupt rng ~max_height:10 params
      (Core.Transformer.clean_config params g ~inputs)
  in
  (params, algo, config)

let bench_engine_step () =
  let _, algo, config = trans_ring ~n:32 ~seed:2 in
  let enabled = Sim.Config.enabled_nodes algo config in
  fun () -> ignore (Sim.Engine.step algo config enabled)

(* Naive enabled scan: what the old engine paid twice per step — every
   guard of every node, a fresh view array per node. *)
let bench_enabled_scan_naive ~n () =
  let _, algo, config = trans_ring ~n ~seed:3 in
  fun () -> ignore (Sim.Config.enabled_nodes algo config)

(* Incremental enabled scan: what the dirty-set engine pays per step —
   re-evaluate the closed neighborhood of the mover against reusable
   view buffers, then query the maintained enabled set. *)
let bench_enabled_scan_incr ~n () =
  let _, algo, config = trans_ring ~n ~seed:3 in
  let sched = Sim.Sched.create algo config in
  let p = n / 2 in
  fun () ->
    Sim.Sched.update sched config ~moved:[ p ];
    ignore (Sim.Sched.enabled sched)

let recovery_start ~n =
  let g = G.Builders.cycle n in
  let rng = Rng.create 4 in
  let inputs = Ss_algos.Leader_election.random_ids rng g in
  let params = Core.Transformer.params Ss_algos.Leader_election.algo in
  let start =
    Core.Transformer.corrupt rng ~max_height:10 params
      (Core.Transformer.clean_config params g ~inputs)
  in
  (params, start)

let bench_full_recovery ~n () =
  let params, start = recovery_start ~n in
  fun () -> ignore (Core.Registry.Trans.run params Sim.Daemon.synchronous start)

let bench_full_recovery_naive ~n () =
  let params, start = recovery_start ~n in
  fun () ->
    ignore (Core.Registry.Trans.run_naive params Sim.Daemon.synchronous start)

(* Packed vs boxed full recovery under a finite bound.  A packed slab
   holds a single live timeline (the engine mutates it in place), so a
   packed start is single-shot — both variants therefore rebuild the
   corrupted start inside the measured closure, making the pair an
   apples-to-apples end-to-end comparison including layout setup. *)
let bench_recovery_layout ~packed ~n () =
  let g = G.Builders.cycle n in
  let params =
    Core.Transformer.params ~bound:(P.Finite 16)
      Ss_algos.Leader_election.algo
  in
  fun () ->
    let rng = Rng.create 4 in
    let inputs = Ss_algos.Leader_election.random_ids rng g in
    let clean =
      if packed then
        Core.Transformer.packed_config params
          ~codec:Ss_algos.Leader_election.codec g ~inputs
      else Core.Transformer.clean_config params g ~inputs
    in
    let start = Core.Transformer.corrupt rng ~max_height:16 params clean in
    ignore (Core.Registry.Trans.run params Sim.Daemon.synchronous start)

(* Message-network end-to-end recovery: corrupted Cole-Vishkin ring
   coloring (§5.3's ring instance — its finite bound keeps per-event
   simulation work constant, so the event loop itself is what is
   measured), indexed (ring-buffer channels, candidate-set scheduling,
   codec proofs, packed mirrors) vs naive (the original per-event
   Hashtbl.fold + List.nth channel selection over boxed queues, Marshal
   proof pre-images, boxed mirrors).  Both heartbeat regimes are
   benched explicitly: tight is the drain-safe minimum 2m + 2 — the §6
   stress point where proof waves keep every channel busy — and
   adaptive is the deployment default max 400 (4m).  The explicit
   event allowance covers the tight regime's proof churn on larger
   rings; the old grid silently fell back to the adaptive regime at
   m >= 199, which made the published timings non-monotone in n.  A
   fresh rng per run keeps every iteration on the identical event
   schedule *within* a path. *)
let msgnet_cv_start ~n ~width =
  let g = G.Builders.cycle n in
  let rng = Rng.create 4 in
  let ids = Ss_algos.Cole_vishkin.random_ring_ids rng ~n ~width in
  let inputs = Ss_algos.Cole_vishkin.inputs ~ids ~width g in
  let b = Ss_algos.Cole_vishkin.schedule_length width in
  let params =
    Core.Transformer.params ~mode:P.Greedy ~bound:(P.Finite b)
      Ss_algos.Cole_vishkin.algo
  in
  let start =
    Core.Transformer.corrupt rng ~max_height:b params
      (Core.Transformer.clean_config params g ~inputs)
  in
  let hist = Ss_sync.Sync_runner.run Ss_algos.Cole_vishkin.algo g ~inputs in
  (g, params, hist, start)

let msgnet_heartbeat ~regime g =
  let m = G.Graph.m g in
  match regime with `Tight -> (2 * m) + 2 | `Adaptive -> max 400 (4 * m)

(* Tight-regime recoveries deliver far more proof traffic than the
   default 2M-event cap (ring 256 needs ~2.1M deliveries alone); the
   one-shot rows at n = 10^5 need ~6M.  Headroom for both. *)
let msgnet_budget ?deadline_s () =
  Ss_report.Budget.v ~deliveries:50_000_000 ?deadline_s ()

let bench_msgnet_recovery ~indexed ~regime ~n () =
  let g, params, _, start = msgnet_cv_start ~n ~width:10 in
  let heartbeat_every = msgnet_heartbeat ~regime g in
  fun () ->
    let rng = Rng.create 23 in
    let _, stats =
      if indexed then
        Ss_msgnet.Msgnet.run ~codec:Ss_algos.Cole_vishkin.codec
          ~heartbeat_every ~budget:(msgnet_budget ()) ~rng params start
      else
        Ss_msgnet.Msgnet.run_naive ~heartbeat_every ~budget:(msgnet_budget ())
          ~rng params start
    in
    assert stats.Ss_msgnet.Msgnet.quiescent

(* Proof layer: one re-proof of a height-h leader-election list just
   extended by one cell.  Every call extends the same base, so the
   state is a fresh construction (a stamp miss) whose cells the slot's
   lineage prefix already covers: the incremental layer resumes there
   and pays O(1), the Marshal reference re-serializes and re-hashes all
   h + 1 cells. *)
let bench_proof ~incremental ~h () =
  let module Proof = Ss_msgnet.Proof in
  let base =
    Core.Trans_state.make ~init:7 ~status:Core.Trans_state.C
      ~cells:(Array.init h (fun i -> (i * 31) + 5))
  in
  let layer =
    if incremental then Proof.incremental Ss_algos.Leader_election.codec ~slots:1
    else Proof.reference ~slots:1
  in
  fun () -> ignore (Proof.digest layer 0 (Core.Trans_state.extend base h))

(* One proof is a few dozen nanoseconds, below what the Bechamel loop
   resolves on a 2-core box (its rows carry a microsecond-scale floor),
   so these rows time a plain loop: ns per re-proof, after one warm-up
   call that folds the list. *)
let proof_rows () =
  List.concat_map
    (fun h ->
      List.map
        (fun (tag, incremental) ->
          let prove = bench_proof ~incremental ~h () in
          prove ();
          let iters = 100_000 in
          let t0 = Unix.gettimeofday () in
          for _ = 1 to iters do
            prove ()
          done;
          let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
          [
            Table.S (Printf.sprintf "msgnet-proof/h%d/%s" h tag);
            Table.I (int_of_float (Float.round ns));
          ])
        [ ("incremental", true); ("reference", false) ])
    [ 8; 64; 512 ]

(* A central selection is tens of nanoseconds to a few microseconds,
   so these rows time a plain loop too: ns per [central_random] pick
   from a live enabled set holding every other node (half enabled).
   The pick walks the bitset's words, so the row grows with n / 63. *)
let daemon_select_rows () =
  List.map
    (fun (n, iters) ->
      let enabled = Sim.Nodeset.create ~capacity:n () in
      for p = 0 to (n / 2) - 1 do
        Sim.Nodeset.add enabled (2 * p)
      done;
      let d = Sim.Daemon.central_random (Rng.create 3) in
      let select () = ignore (d.Sim.Daemon.select ~step:0 ~enabled) in
      select ();
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        select ()
      done;
      let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
      [
        Table.S (Printf.sprintf "daemon-select/central-random/n%d" n);
        Table.I (int_of_float (Float.round ns));
      ])
    [ (512, 1_000_000); (65536, 100_000) ]

(* Deep-ladder clean simulation: min-flood on a path with distinct
   inputs, so the minimum walks the whole path and T = Θ(n) — every
   node's list grows to height ~n.  This is the regime where the old
   representation paid Θ(h) per extend and Θ(h·deg) per guard check;
   with O(1)-amortized extends and watermarked algoErr the whole run is
   Θ(moves·deg).  The uncached variant runs the identical dirty-set
   engine with the full-prefix reference algoErr — the pre-PR cost
   model — so the pair isolates exactly the incremental-verification
   win. *)
let deep_ladder_start ~n =
  let g = G.Builders.path n in
  let params = Core.Transformer.params Ss_algos.Min_flood.algo in
  (params, Core.Transformer.clean_config params g ~inputs:(fun p -> p))

let bench_deep_ladder ~cached ~n () =
  let params, start = deep_ladder_start ~n in
  if cached then fun () ->
    ignore (Core.Registry.Trans.run params Sim.Daemon.synchronous start)
  else fun () ->
    ignore
      (Sim.Engine.run
         (Core.Transformer.algorithm_uncached params)
         Sim.Daemon.synchronous start)

(* Per-guard algoErr cost at height h: alternate between a clean view
   at height h-1 and its extension at height h (sharing one backing
   buffer), mimicking the dirty-set engine's re-evaluation pattern
   after an RU move.  The cached predicate re-checks at most one cell
   per call (O(Δ·deg), flat in h); the reference re-verifies the whole
   prefix (O(h·deg)). *)
let bench_algo_err ~cached ~h () =
  let params = Core.Transformer.params Ss_algos.Min_flood.algo in
  let input = 5 in
  let mk len =
    Core.Trans_state.make ~init:input ~status:Core.Trans_state.C
      ~cells:(Array.make len input)
  in
  let neighbors = [| mk h; mk h |] in
  let self_a =
    let s = ref (Core.Trans_state.clean input) in
    for _ = 1 to h - 1 do
      s := Core.Trans_state.extend !s input
    done;
    !s
  in
  let self_b = Core.Trans_state.extend self_a input in
  let va = { Sim.Algorithm.input; self = self_a; neighbors; node = 0 } in
  let vb = { va with self = self_b } in
  let eval =
    if cached then begin
      let cache = P.make_cache () in
      fun v -> P.algo_err_cached cache params v
    end
    else fun v -> P.algo_err params v
  in
  let flip = ref false in
  fun () ->
    flip := not !flip;
    assert (not (eval (if !flip then vb else va)))

(* Graph construction at n=4096 exercises the O(n+m) validator
   (hashed symmetry probes); the old O(sum deg^2) symmetry scan made
   this the dominant cost of building dense-ish random graphs. *)
let bench_graph_construct ~n () =
  fun () ->
    let rng = Rng.create 11 in
    ignore (G.Builders.random_connected rng ~n ~extra_edges:(n / 2))

let bench_rollback_scan () =
  let config = Ss_rollback.Blowup.initial_config ~k:4 in
  let algo =
    Ss_rollback.Rollback.algorithm Ss_algos.Min_flood.algo
      ~bound:(Ss_rollback.Blowup.bound_for 4)
  in
  fun () -> ignore (Sim.Config.enabled_nodes algo config)

let bench_gamma () = fun () -> ignore (Ss_rollback.Blowup.gamma 8)

(* ------------------------------------------------------------------ *)
(* Parallel campaign sweep                                              *)
(* ------------------------------------------------------------------ *)

(* One representative slice of the experiment campaign — the same row
   functions the tables above use, with printing suppressed.  Output
   is byte-identical for every job count (DESIGN.md §11), so the sweep
   measures pure scheduling overhead/speedup. *)
let campaign_once () =
  ignore (Ss_expt.Table1.lazy_rows ~seeds (fresh_rng ()));
  ignore (Ss_expt.Table1.greedy_rows ~seeds (fresh_rng ()));
  ignore (Ss_expt.Energy_expt.rows ~seeds (fresh_rng ()));
  ignore (Ss_expt.Msgnet_expt.rows ~seeds (fresh_rng ()));
  ignore (Ss_expt.Blowup_expt.rows ~max_k:9 ());
  ignore (Ss_expt.Ablation_expt.rows ~seeds (fresh_rng ()))

(* Wall time of the campaign at -j 1 / 2 / 4, plus the j4-vs-j1
   speedup.  On a single hardware thread the "speedup" is honestly
   < 1x (extra domains only add GC coordination); the row exists so
   multi-core machines record their real scaling in BENCH_engine.json. *)
let parallel_sweep () =
  let time_at j =
    Ss_par.Par.set_jobs j;
    let t0 = Unix.gettimeofday () in
    campaign_once ();
    Unix.gettimeofday () -. t0
  in
  ignore (time_at 1) (* warm-up: code + allocator, off the record *);
  let sweep = List.map (fun j -> (j, time_at j)) [ 1; 2; 4 ] in
  Ss_par.Par.set_jobs (Ss_par.Par.default_jobs ());
  let t1 = List.assoc 1 sweep and t4 = List.assoc 4 sweep in
  let rows =
    List.map
      (fun (j, t) ->
        [
          Table.S (Printf.sprintf "campaign-sweep/j%d" j);
          Table.I (int_of_float (t *. 1e9));
        ])
      sweep
    @ [
        [
          Table.S "campaign-speedup/j4-vs-j1";
          Table.S (Printf.sprintf "%.2fx" (t1 /. t4));
        ];
      ]
  in
  Printf.printf
    "== parallel campaign sweep ==\nj1 %.2fs  j2 %.2fs  j4 %.2fs  (j4 \
     speedup %.2fx, %d hardware thread%s)\n%!"
    t1 (List.assoc 2 sweep) t4 (t1 /. t4)
    (Domain.recommended_domain_count ())
    (if Domain.recommended_domain_count () = 1 then "" else "s");
  rows

(* Packed-engine footprint at three scales: bytes retained on the
   major heap by a ready-to-run leader-election configuration (CSR
   torus, packed arena, state handles, inputs), measured as the
   compacted heap-words delta around construction, with the arena's
   own accounting reported alongside.  The bar from the paper-scale
   target is ~200 bytes/node at a million nodes. *)
let memory_rows () =
  (* [live_words] (a full-collection stat) rather than heap size:
     construction churns transient pools (e.g. the id-draw pool) whose
     freed space stays inside the heap chunks and would otherwise be
     billed to the configuration. *)
  let measure ~rows ~cols =
    let before = (Gc.stat ()).Gc.live_words in
    let g = G.Builders.torus ~rows ~cols in
    let rng = Rng.create 5 in
    let inputs = Ss_algos.Leader_election.random_ids rng g in
    let params =
      Core.Transformer.params ~bound:(P.Finite 8)
        Ss_algos.Leader_election.algo
    in
    let config =
      Core.Transformer.packed_config params
        ~codec:Ss_algos.Leader_election.codec g ~inputs
    in
    let after = (Gc.stat ()).Gc.live_words in
    let arena =
      match Core.Trans_state.backing_arena (Sim.Config.state config 0) with
      | Some a -> Core.Cellpack.bytes a
      | None -> 0
    in
    ignore (Sys.opaque_identity config);
    (8 * (after - before), arena)
  in
  List.concat_map
    (fun (rows, cols) ->
      let n = rows * cols in
      let heap, arena = measure ~rows ~cols in
      Printf.printf "memory/torus%d: %d bytes (%d/node, arena %d)\n%!" n heap
        (heap / n) arena;
      [
        [ Table.S (Printf.sprintf "memory-bytes/torus%d" n); Table.I heap ];
        [
          Table.S (Printf.sprintf "memory-arena-bytes/torus%d" n);
          Table.I arena;
        ];
        [
          Table.S (Printf.sprintf "memory-bytes-per-node/torus%d" n);
          Table.I (heap / n);
        ];
      ])
    [ (64, 64); (320, 320); (1000, 1000) ]

(* One-shot message-network rows for the scales Bechamel cannot
   iterate: ring 256 under the tight regime (the naive twin needs
   ~2.1M events there — tens of seconds per run), rings 10^4 and 10^5,
   and a leader workload on a torus (infinite bound — boxed mirrors —
   exercising the other layout arm at scale).  Each workload runs once
   under a hard deadline and must reach quiescence with a legitimate
   terminal configuration, or the bench aborts.  Alongside the wall
   time, each scale workload reports its wire-memory figures:
   msgnet-memory-bytes = resident mirror bytes plus the high-water
   mark of in-flight message bytes — what a deployment provisions for
   the message plane. *)
let msgnet_scale_rows () =
  let module M = Ss_msgnet.Msgnet in
  let deadline_s = 300.0 in
  let finish name params hist t0 (final, stats) =
    let dt = Unix.gettimeofday () -. t0 in
    if not stats.M.quiescent then
      failwith (Printf.sprintf "msgnet scale row %s: not quiescent" name);
    if Core.Checker.legitimate_terminal params hist final <> Ok () then
      failwith (Printf.sprintf "msgnet scale row %s: illegitimate" name);
    Printf.printf "%s: deliveries=%d peak-wire-bits=%d mirror-bytes=%d (%.1fs)\n%!"
      name stats.M.deliveries stats.M.peak_queued_bits stats.M.mirror_bytes dt;
    (stats, dt)
  in
  let time_cv ~indexed ~regime ~name ~n ~width =
    let g, params, hist, start = msgnet_cv_start ~n ~width in
    let heartbeat_every = msgnet_heartbeat ~regime g in
    let budget = msgnet_budget ~deadline_s () in
    let t0 = Unix.gettimeofday () in
    let rng = Rng.create 23 in
    finish name params hist t0
      (if indexed then
         M.run ~codec:Ss_algos.Cole_vishkin.codec ~heartbeat_every ~budget
           ~rng params start
       else M.run_naive ~heartbeat_every ~budget ~rng params start)
  in
  let time_leader_torus ~name ~rows ~cols =
    let g = G.Builders.torus ~rows ~cols in
    let rng = Rng.create 4 in
    let inputs = Ss_algos.Leader_election.random_ids rng g in
    let params = Core.Transformer.params Ss_algos.Leader_election.algo in
    let start =
      Core.Transformer.corrupt rng ~max_height:(rows + cols) params
        (Core.Transformer.clean_config params g ~inputs)
    in
    let hist = Ss_sync.Sync_runner.run Ss_algos.Leader_election.algo g ~inputs in
    let budget = msgnet_budget ~deadline_s () in
    let t0 = Unix.gettimeofday () in
    let run_rng = Rng.create 23 in
    finish name params hist t0
      (M.run ~codec:Ss_algos.Leader_election.codec ~budget ~rng:run_rng params
         start)
  in
  let ns dt = Table.I (int_of_float (dt *. 1e9)) in
  let wire_memory tag (stats : M.stats) n =
    let bytes = stats.M.mirror_bytes + ((stats.M.peak_queued_bits + 7) / 8) in
    [
      [ Table.S (Printf.sprintf "msgnet-memory-bytes/%s" tag); Table.I bytes ];
      [
        Table.S (Printf.sprintf "msgnet-memory-bytes-per-node/%s" tag);
        Table.I (bytes / n);
      ];
    ]
  in
  (* The honest ring-256 tight grid point (the pre-regime-split bench
     silently replaced it with an adaptive run), and the speedup row
     the perf claim is anchored to. *)
  let s_idx, t_idx =
    time_cv ~indexed:true ~regime:`Tight
      ~name:"msgnet-recovery-indexed/ring256/tight" ~n:256 ~width:10
  in
  let _, t_naive =
    time_cv ~indexed:false ~regime:`Tight
      ~name:"msgnet-recovery-naive/ring256/tight" ~n:256 ~width:10
  in
  let speedup = t_naive /. t_idx in
  if speedup < 3.0 then
    failwith
      (Printf.sprintf "msgnet speedup regression: %.2fx < 3x at ring256/tight"
         speedup);
  let s_10k, t_10k =
    time_cv ~indexed:true ~regime:`Adaptive
      ~name:"msgnet-recovery-indexed/ring10000" ~n:10_000 ~width:17
  in
  let s_100k, t_100k =
    time_cv ~indexed:true ~regime:`Adaptive
      ~name:"msgnet-recovery-indexed/ring100000" ~n:100_000 ~width:17
  in
  let s_torus, t_torus =
    time_leader_torus ~name:"msgnet-recovery-indexed/torus48x48-leader"
      ~rows:48 ~cols:48
  in
  [
    [ Table.S "msgnet-recovery-indexed/ring256/tight"; ns t_idx ];
    [ Table.S "msgnet-recovery-naive/ring256/tight"; ns t_naive ];
    [
      Table.S "msgnet-speedup/ring256-tight";
      Table.S (Printf.sprintf "%.1fx" speedup);
    ];
    [ Table.S "msgnet-recovery-indexed/ring10000"; ns t_10k ];
    [ Table.S "msgnet-recovery-indexed/ring100000"; ns t_100k ];
    [ Table.S "msgnet-recovery-indexed/torus48x48-leader"; ns t_torus ];
  ]
  @ wire_memory "ring256-tight" s_idx 256
  @ wire_memory "ring10000" s_10k 10_000
  @ wire_memory "ring100000" s_100k 100_000
  @ wire_memory "torus48x48-leader" s_torus 2304

(* The @msgnet-bigrun CI smoke, mirroring @bigrun on the message
   plane: full §6 recovery of Cole-Vishkin coloring on an n=100000
   ring from a corrupted start, in the production configuration —
   codec proof pre-images, packed mirrors, ring-buffer channels,
   candidate-set scheduling — under a hard wall-clock budget.  A
   deadline trip (non-quiescent finish) fails the alias. *)
let msgnet_bigrun () =
  let module M = Ss_msgnet.Msgnet in
  let t0 = Unix.gettimeofday () in
  let n = 100_000 in
  let g, params, hist, start = msgnet_cv_start ~n ~width:17 in
  let heartbeat_every = msgnet_heartbeat ~regime:`Adaptive g in
  let budget = msgnet_budget ~deadline_s:240.0 () in
  let rng = Rng.create 23 in
  let final, stats =
    M.run ~codec:Ss_algos.Cole_vishkin.codec ~heartbeat_every ~budget ~rng
      params start
  in
  let legitimate = Core.Checker.legitimate_terminal params hist final = Ok () in
  Printf.printf
    "msgnet-bigrun: n=%d deliveries=%d waves=%d peak-wire-bits=%d \
     mirror-bytes=%d quiescent=%b legitimate=%b (%.1fs)\n%!"
    n stats.M.deliveries stats.M.proof_waves stats.M.peak_queued_bits
    stats.M.mirror_bytes stats.M.quiescent legitimate
    (Unix.gettimeofday () -. t0);
  if not (stats.M.quiescent && legitimate) then (
    prerr_endline
      "msgnet-bigrun: FAILED (deadline tripped or illegitimate terminal)";
    exit 1)

(* The @bigrun CI smoke: full recovery of leader election on an
   n=100000 torus from a fully corrupted packed start, sharded across
   the worker pool, under a hard wall-clock budget.  A budget trip or
   an illegitimate terminal configuration fails the alias. *)
let bigrun () =
  let t0 = Unix.gettimeofday () in
  let g = G.Builders.torus ~rows:200 ~cols:500 in
  let rng = Rng.create 6 in
  let inputs = Ss_algos.Leader_election.random_ids (Rng.split rng) g in
  let params =
    Core.Transformer.params ~bound:(P.Finite 8) Ss_algos.Leader_election.algo
  in
  let sc = { Ss_verify.Stabilization.params; graph = g; inputs } in
  let start =
    Ss_verify.Stabilization.corrupted_start (Rng.split rng)
      ~codec:Ss_algos.Leader_election.codec ~max_height:8 sc
  in
  let budget = Ss_report.Budget.v ~deadline_s:120.0 () in
  let report =
    Ss_verify.Stabilization.run ~budget ~sharded:true sc
      ~daemon:Sim.Daemon.synchronous ~start
  in
  Printf.printf
    "bigrun: n=%d moves=%d rounds=%d terminated=%b legitimate=%b (%.1fs)\n%!"
    (G.Graph.n g) report.moves report.rounds report.terminated
    report.legitimate
    (Unix.gettimeofday () -. t0);
  if not (report.terminated && report.legitimate) then (
    prerr_endline "bigrun: FAILED (budget tripped or illegitimate terminal)";
    exit 1)

(* Machine-readable results, written next to the printed tables so the
   perf trajectory is trackable across PRs.  Both renderings read the
   same typed Table.t — the text via Table.print, the JSON via the
   shared Ss_report.Run_report.of_table serializer — so the file
   content cannot drift from what was printed. *)
let bench_table label rows =
  let table = Table.create [ "benchmark"; "ns/run" ] in
  List.iter
    (fun (name, est) ->
      let cell =
        match est with
        | Some t -> Table.I (int_of_float (Float.round t))
        | None -> Table.S "n/a"
      in
      Table.add table [ Table.S name; cell ])
    rows;
  Printf.printf "== %s ==\n" label;
  Table.print table;
  table

let emit_json path label table =
  let oc = open_out path in
  output_string oc
    (Ss_report.Json.to_string (Ss_report.Run_report.of_table ~label table));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n%!" path
    (List.length (Table.rows table))

let micro_benchmarks () =
  let open Bechamel in
  (* The one-shot msgnet scale runs go first, on a fresh heap: run after
     the Bechamel loops and the -j sweep, the naive ring-256 twin's heap
     grew without bound on a 2-core, 8 GB machine. *)
  let msgnet_scale = msgnet_scale_rows () in
  print_endline "#### Micro-benchmarks (Bechamel) ####";
  print_newline ();
  let scan_sizes = [ 32; 256; 1024 ] in
  let scan_tests =
    List.concat_map
      (fun n ->
        [
          Test.make
            ~name:(Printf.sprintf "enabled-scan-naive/trans-ring%d" n)
            (Staged.stage (bench_enabled_scan_naive ~n ()));
          Test.make
            ~name:(Printf.sprintf "enabled-scan-incr/trans-ring%d" n)
            (Staged.stage (bench_enabled_scan_incr ~n ()));
        ])
      scan_sizes
  in
  let tests =
    Test.make_grouped ~name:"fasst" ~fmt:"%s %s"
      ([
         Test.make ~name:"sync-runner/leader-ring32"
           (Staged.stage (bench_sync_runner ()));
         Test.make ~name:"engine-step/trans-ring32"
           (Staged.stage (bench_engine_step ()));
       ]
      @ scan_tests
      @ [
          Test.make ~name:"full-recovery/trans-ring16"
            (Staged.stage (bench_full_recovery ~n:16 ()));
          Test.make ~name:"full-recovery-naive/trans-ring16"
            (Staged.stage (bench_full_recovery_naive ~n:16 ()));
          Test.make ~name:"full-recovery/trans-ring64"
            (Staged.stage (bench_full_recovery ~n:64 ()));
          Test.make ~name:"full-recovery-naive/trans-ring64"
            (Staged.stage (bench_full_recovery_naive ~n:64 ()));
          Test.make ~name:"recovery-rebuild-packed/ring256"
            (Staged.stage (bench_recovery_layout ~packed:true ~n:256 ()));
          Test.make ~name:"recovery-rebuild-boxed/ring256"
            (Staged.stage (bench_recovery_layout ~packed:false ~n:256 ()));
          Test.make ~name:"deep-ladder/path256"
            (Staged.stage (bench_deep_ladder ~cached:true ~n:256 ()));
          Test.make ~name:"deep-ladder-uncached/path256"
            (Staged.stage (bench_deep_ladder ~cached:false ~n:256 ()));
          Test.make ~name:"graph-construct/random4096"
            (Staged.stage (bench_graph_construct ~n:4096 ()));
          Test.make ~name:"rollback-scan/G4"
            (Staged.stage (bench_rollback_scan ()));
          Test.make ~name:"gamma-schedule/k8" (Staged.stage (bench_gamma ()));
        ]
      @ List.concat_map
          (fun h ->
            [
              Test.make
                ~name:(Printf.sprintf "algo-err-cached/h%d" h)
                (Staged.stage (bench_algo_err ~cached:true ~h ()));
              Test.make
                ~name:(Printf.sprintf "algo-err-naive/h%d" h)
                (Staged.stage (bench_algo_err ~cached:false ~h ()));
            ])
          [ 8; 64; 512 ]
      (* Ring 256 under the tight regime is a one-shot row in
         [msgnet_scale_rows] — the naive twin needs tens of seconds
         per run there, beyond what Bechamel can iterate. *)
      @ List.concat_map
          (fun (n, regime, tag) ->
            [
              Test.make
                ~name:(Printf.sprintf "msgnet-recovery-indexed/ring%d/%s" n tag)
                (Staged.stage (bench_msgnet_recovery ~indexed:true ~regime ~n ()));
              Test.make
                ~name:(Printf.sprintf "msgnet-recovery-naive/ring%d/%s" n tag)
                (Staged.stage
                   (bench_msgnet_recovery ~indexed:false ~regime ~n ()));
            ])
          [
            (16, `Tight, "tight");
            (64, `Tight, "tight");
            (16, `Adaptive, "adaptive");
            (64, `Adaptive, "adaptive");
            (256, `Adaptive, "adaptive");
          ])
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let estimates =
    List.map
      (fun (name, r) ->
        let est =
          match Analyze.OLS.estimates r with
          | Some (t :: _) -> Some t
          | _ -> None
        in
        (name, est))
      (List.sort compare rows)
  in
  (* Message-network benches get their own file so the §6 perf
     trajectory is trackable independently of the engine's. *)
  let is_msgnet (name, _) =
    let sub = "msgnet" in
    let ln = String.length name and ls = String.length sub in
    let rec at i = i + ls <= ln && (String.sub name i ls = sub || at (i + 1)) in
    at 0
  in
  let msgnet, engine = List.partition is_msgnet estimates in
  let engine_table = bench_table "engine micro-benchmarks" engine in
  let msgnet_table = bench_table "msgnet micro-benchmarks" msgnet in
  List.iter (Table.add engine_table) (daemon_select_rows ());
  List.iter (Table.add engine_table) (parallel_sweep ());
  List.iter (Table.add engine_table) (memory_rows ());
  List.iter (Table.add msgnet_table) msgnet_scale;
  List.iter (Table.add msgnet_table) (proof_rows ());
  emit_json "BENCH_engine.json" "engine micro-benchmarks" engine_table;
  emit_json "BENCH_msgnet.json" "msgnet micro-benchmarks" msgnet_table;
  (* The chaos grid rides along: scenario × algorithm × graph, fully
     deterministic (virtual clocks, per-cell seeds), so this artefact
     is byte-stable across machines and job counts — unlike the two
     timing files above. *)
  let sim_table, sim_ok =
    Ss_expt.Sim_expt.rows
      (Ss_expt.Sim_expt.default_workloads (Ss_prelude.Rng.create 42))
  in
  if not sim_ok then
    failwith "sim grid: a scenario cell failed to re-stabilize";
  emit_json "BENCH_sim.json" "chaos-mode scenario grid" sim_table;
  (* The three-way transformer comparison rides along too: every
     registered transformer × LCL workload × graph family, same
     determinism contract, so the artefact is byte-stable as well. *)
  let tf_table, tf_ok =
    Ss_expt.Transformers_expt.rows ~seeds:[ 1 ] (Ss_prelude.Rng.create 42)
  in
  if not tf_ok then
    failwith "transformers grid: an illegitimate terminal configuration";
  emit_json "BENCH_transformers.json" "transformer comparison grid" tf_table

let () =
  let t0 = Unix.gettimeofday () in
  let has flag = Array.exists (fun a -> a = flag) Sys.argv in
  if has "--bigrun" then bigrun ()
  else if has "--msgnet-bigrun" then msgnet_bigrun ()
  else begin
    if not (has "--micro") then experiment_tables ();
    micro_benchmarks ()
  end;
  Printf.printf "total wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
