module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module Par = Ss_par.Par
module Engine = Ss_sim.Engine
module Transformer = Ss_core.Registry.Trans
module Ablation = Ss_core.Ablation
module Checker = Ss_core.Checker
module Stabilization = Ss_verify.Stabilization
module Leader = Ss_algos.Leader_election

type tally = {
  mutable runs : int;
  mutable terminated : int;
  mutable legitimate : int;
  mutable max_moves : int;
  mutable max_rounds : int;
}

let fresh_tally () =
  { runs = 0; terminated = 0; legitimate = 0; max_moves = 0; max_rounds = 0 }

let merge_into acc t =
  acc.runs <- acc.runs + t.runs;
  acc.terminated <- acc.terminated + t.terminated;
  acc.legitimate <- acc.legitimate + t.legitimate;
  acc.max_moves <- max acc.max_moves t.max_moves;
  acc.max_rounds <- max acc.max_rounds t.max_rounds

let rows ~seeds rng =
  let table =
    Table.create
      [
        "variant"; "runs"; "terminated"; "legitimate"; "max-moves";
        "max-rounds";
      ]
  in
  let workloads =
    [
      Ss_graph.Builders.path 12;
      Ss_graph.Builders.cycle 12;
      Ss_graph.Builders.binary_tree 15;
      Ss_graph.Builders.random_connected (Rng.split rng) ~n:14 ~extra_edges:6;
    ]
  in
  let variants =
    [
      ("full", Transformer.algorithm);
      ("no-RP", Ablation.without_rp);
      ("eager-RC", Ablation.with_eager_clear);
    ]
  in
  (* Fan out at (variant × workload) granularity — the finest grain at
     which every task can own its algorithm instance (the cached
     predicate table inside [make_algo params] is mutable and must not
     be shared across domains; DESIGN.md §11).  Splits for the
     per-pair inputs happen at task-list construction in the
     historical variant-major order; per-pair tallies merge back in
     that same order (sums and maxes, so the row is identical to the
     sequential interleaving). *)
  let tasks =
    Rng.split_per rng
      (List.concat_map
         (fun variant -> List.map (fun g -> (variant, g)) workloads)
         variants)
  in
  let tallies =
    Par.map
      (fun (((_vname, make_algo), g), rng') ->
        let inputs = Leader.random_ids rng' g in
        let params = Transformer.params Leader.algo in
        let sc = { Stabilization.params; graph = g; inputs } in
        let hist = Stabilization.history sc in
        let t = hist.Ss_sync.Sync_runner.t in
        let algo = make_algo params in
        let tally = fresh_tally () in
        List.iter
          (fun seed ->
            let seed_rng = Rng.create seed in
            List.iter
              (fun (_dn, daemon) ->
                let start =
                  Stabilization.corrupted_start (Rng.split seed_rng)
                    ~max_height:(t + 4) sc
                in
                (* A step budget: non-stabilizing variants may stall
                   in a live-lock rather than a deadlock. *)
                let stats =
                  Engine.run
                    ~budget:(Ss_report.Budget.v ~steps:200_000 ())
                    algo daemon start
                in
                tally.runs <- tally.runs + 1;
                if stats.Engine.terminated then begin
                  tally.terminated <- tally.terminated + 1;
                  if
                    Checker.legitimate_terminal params hist stats.Engine.final
                    = Ok ()
                  then tally.legitimate <- tally.legitimate + 1
                end;
                tally.max_moves <- max tally.max_moves stats.Engine.moves;
                tally.max_rounds <- max tally.max_rounds stats.Engine.rounds)
              (Stabilization.daemon_portfolio seed_rng))
          seeds;
        tally)
      tasks
  in
  List.iter
    (fun (name, _) ->
      let acc = fresh_tally () in
      List.iter2
        (fun (((vname, _), _g), _rng) t ->
          if String.equal vname name then merge_into acc t)
        tasks tallies;
      Table.add table
        [
          Table.S name;
          Table.I acc.runs;
          Table.I acc.terminated;
          Table.I acc.legitimate;
          Table.I acc.max_moves;
          Table.I acc.max_rounds;
        ])
    variants;
  table
