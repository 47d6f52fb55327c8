(* fasst — Fully Asynchronous Self-Stabilization Toolkit.

   Command-line driver for the reproduction: run individual
   transformed algorithms under chosen adversaries, and regenerate
   every table of the paper (Table 1, the §5 instances, the §6 energy
   accounting, the §7 rollback blow-up). *)

module G = Ss_graph
module Sim = Ss_sim
module Core = Ss_core
module P = Ss_core.Predicates
module Stabilization = Ss_verify.Stabilization
module Rng = Ss_prelude.Rng
module Table = Ss_prelude.Table
module Json = Ss_report.Json
module Run_report = Ss_report.Run_report
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                              *)
(* ------------------------------------------------------------------ *)

module Catalog = Ss_expt.Catalog

let parse_topology = Catalog.parse_topology

(* Option values are checked by cmdliner converters, so a malformed
   value is a usage error naming its option instead of an exception
   escaping a subcommand. *)
type daemon_spec =
  | Sync
  | Async of float
  | Central
  | Central_min
  | Central_max
  | Round_robin

let daemon_conv =
  let parse spec =
    match String.split_on_char ':' spec with
    | [ "sync" ] -> Ok Sync
    | [ "async" ] -> Ok (Async 0.5)
    | [ "async"; p ] -> (
        match float_of_string_opt p with
        | Some p when p >= 0. && p <= 1. -> Ok (Async p)
        | _ -> Error (Printf.sprintf "invalid daemon %S: async:P needs P in [0, 1]" spec))
    | [ "central" ] -> Ok Central
    | [ "central-min" ] -> Ok Central_min
    | [ "central-max" ] -> Ok Central_max
    | [ "round-robin" ] -> Ok Round_robin
    | _ -> Error (Printf.sprintf "unknown daemon %S" spec)
  in
  let print ppf = function
    | Sync -> Format.pp_print_string ppf "sync"
    | Async p -> Format.fprintf ppf "async:%g" p
    | Central -> Format.pp_print_string ppf "central"
    | Central_min -> Format.pp_print_string ppf "central-min"
    | Central_max -> Format.pp_print_string ppf "central-max"
    | Round_robin -> Format.pp_print_string ppf "round-robin"
  in
  Arg.conv' (parse, print)

let parse_daemon rng = function
  | Sync -> Sim.Daemon.synchronous
  | Async p -> Sim.Daemon.distributed_random rng ~p
  | Central -> Sim.Daemon.central_random rng
  | Central_min -> Sim.Daemon.central_min
  | Central_max -> Sim.Daemon.central_max
  | Round_robin -> Sim.Daemon.round_robin ()

let topology_conv =
  Arg.conv'
    ( (fun spec -> Result.map (fun () -> spec) (Catalog.check_topology spec)),
      Format.pp_print_string )

let topology_arg =
  let doc =
    "Topology: "
    ^ String.concat ", " (Catalog.topology_syntax ())
    ^ ".  torus and random4 stream their edges and scale to millions of \
       nodes.  See $(b,fasst list)."
  in
  Arg.(value & opt topology_conv "ring:16" & info [ "t"; "topology" ] ~doc)

let daemon_arg =
  let doc =
    "Daemon: sync, async[:p], central, central-min, central-max, round-robin."
  in
  Arg.(value & opt daemon_conv (Async 0.5) & info [ "d"; "daemon" ] ~doc)

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~doc:"Random seed.")

let seeds_arg =
  Arg.(
    value & opt int 2
    & info [ "seeds" ] ~doc:"Number of corruption seeds per experiment row.")

let mode_arg =
  Arg.(
    value
    & opt (enum [ ("lazy", P.Lazy); ("greedy", P.Greedy) ]) P.Lazy
    & info [ "m"; "mode" ] ~doc:"Transformer mode: lazy or greedy.")

let bound_conv =
  let parse = function
    | "inf" | "infinity" -> Ok P.Infinite
    | s -> (
        match int_of_string_opt s with
        | Some b when b >= 1 -> Ok (P.Finite b)
        | _ -> Error (Printf.sprintf "invalid bound %S: expected a positive integer or 'inf'" s))
  in
  let print ppf = function
    | P.Infinite -> Format.pp_print_string ppf "inf"
    | P.Finite b -> Format.pp_print_int ppf b
  in
  Arg.conv' (parse, print)

let bound_arg =
  let doc = "Bound B on the synchronous time (positive integer, or 'inf')." in
  Arg.(value & opt bound_conv P.Infinite & info [ "b"; "bound" ] ~doc)

let corrupt_arg =
  Arg.(
    value & opt float 1.0
    & info [ "p"; "corruption" ] ~doc:"Per-node fault probability.")

let layout_arg =
  let doc =
    "State layout: $(b,auto) (packed arena when the algorithm has a codec \
     and the bound is finite, else boxed), $(b,packed) (require the arena \
     layout; fails without a codec or with an infinite bound), or \
     $(b,boxed) (the historical copy-on-write buffers)."
  in
  Arg.(
    value
    & opt (enum [ ("auto", `Auto); ("packed", `Packed); ("boxed", `Boxed) ])
        `Auto
    & info [ "layout" ] ~doc)

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:"Wall-clock budget for the run (monotonic clock).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit machine-readable JSON instead of text tables.  Every row \
           comes from the same typed record as the printed table, so the \
           two are content-identical.")

(* Global parallelism knob.  Every subcommand accepts it; the campaign
   layer fans its rows out over a shared Ss_par pool, and the
   determinism contract (DESIGN.md §11) makes the output byte-identical
   for every value of $(b,-j). *)
let jobs_arg =
  let doc =
    "Number of worker domains for parallel experiment fan-out (default: \
     the runtime's recommended domain count).  Output is byte-identical \
     for every value."
  in
  Arg.(
    value
    & opt int (Ss_par.Par.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

(* ------------------------------------------------------------------ *)
(* run: one transformed algorithm under one adversary                   *)
(* ------------------------------------------------------------------ *)

let json_report name ~seed ~spec (r : _ Stabilization.report) =
  let base =
    Run_report.v ~seed
      ~outcome:
        (if r.Stabilization.terminated then Ss_report.Budget.Completed
         else Ss_report.Budget.(Tripped Steps))
      name
      (Run_report.Engine
         {
           Run_report.steps = r.Stabilization.steps;
           moves = r.Stabilization.moves;
           rounds = r.Stabilization.rounds;
           moves_per_rule = r.Stabilization.moves_per_rule;
         })
  in
  match Run_report.to_json base with
  | Json.Obj fields ->
      Json.Obj
        (fields
        @ [
            ("recovery_moves", Json.Int r.Stabilization.recovery_moves);
            ("recovery_rounds", Json.Int r.Stabilization.recovery_rounds);
            ("space_bits", Json.Int r.Stabilization.space_bits);
            ("legitimate", Json.Bool r.Stabilization.legitimate);
            ("specification", Json.Bool spec);
          ])
  | j -> j

let print_report name (r : _ Stabilization.report) =
  Printf.printf "algorithm      : %s\n" name;
  Printf.printf "terminated     : %b\n" r.Stabilization.terminated;
  Printf.printf "moves          : %d\n" r.Stabilization.moves;
  Printf.printf "rounds         : %d\n" r.Stabilization.rounds;
  Printf.printf "steps          : %d\n" r.Stabilization.steps;
  Printf.printf "recovery moves : %d\n" r.Stabilization.recovery_moves;
  Printf.printf "recovery rounds: %d\n" r.Stabilization.recovery_rounds;
  Printf.printf "space (bits)   : %d\n" r.Stabilization.space_bits;
  List.iter
    (fun (rule, n) -> Printf.printf "  %s moves: %d\n" rule n)
    r.Stabilization.moves_per_rule;
  Printf.printf "legitimate     : %b\n" r.Stabilization.legitimate

(* Both renderings read the same typed Table.t: the text goes through
   Table.print, the JSON through Run_report.of_table — content-identical
   by construction (pinned by the test suite). *)
let section ~json title table =
  if json then
    print_endline (Json.to_string (Run_report.of_table ~label:title table))
  else begin
    Printf.printf "== %s ==\n" title;
    Table.print table
  end

(* Non-trans transformers run through the registry's generic
   [measure]; the report is a metric/value table through [section], so
   --json stays content-identical to the text. *)
let run_outcome ~json name (o : Core.Registry.outcome) =
  let table = Table.create [ "metric"; "value" ] in
  let s k v = Table.add table [ Table.S k; Table.S v ] in
  let i k v = Table.add table [ Table.S k; Table.I v ] in
  s "transformer" o.Core.Registry.transformer;
  s "terminated" (string_of_bool o.Core.Registry.terminated);
  i "moves" o.Core.Registry.moves;
  i "rounds" o.Core.Registry.rounds;
  i "steps" o.Core.Registry.steps;
  i "energy-bits" o.Core.Registry.energy_bits;
  i "space-bits" o.Core.Registry.space_bits;
  List.iter
    (fun (rule, n) -> i (rule ^ " moves") n)
    o.Core.Registry.moves_per_rule;
  s "legitimate" (string_of_bool o.Core.Registry.legitimate);
  s "specification" (string_of_bool o.Core.Registry.spec_ok);
  section ~json name table

let run_algo ~json ~transformer ~algo_name ~topology ~daemon ~seed ~mode ~bound
    ~p ~layout ~deadline ~jobs =
  let rng = Rng.create seed in
  let graph = parse_topology rng topology in
  let daemon = parse_daemon (Rng.split rng) daemon in
  let go (type s i) ?(codec : s Core.Cellpack.codec option)
      (sync : (s, i) Ss_sync.Sync_algo.t) (inputs : int -> i)
      (spec : s array -> bool) =
    let params = Core.Registry.Trans.params ~mode ~bound sync in
    if transformer <> "trans" then begin
      (* The rollback and adaptive transformers have no
         Stabilization-style recovery phases; the registry's measure
         covers them uniformly. *)
      let entry = Catalog.find_transformer transformer in
      let budget =
        Option.map (fun s -> Ss_report.Budget.v ~deadline_s:s ()) deadline
      in
      let outcome =
        Core.Registry.measure entry ?budget ~corrupt:(`All p)
          ~rng:(Rng.split rng) ~daemon
          ~max_height:(min (P.bound_to_int bound) 1_000_000)
          ~spec params graph ~inputs
      in
      run_outcome ~json sync.Ss_sync.Sync_algo.sync_name outcome
    end
    else begin
    let sc = { Stabilization.params; graph; inputs } in
    (* The corruption ceiling tracks the synchronous execution time.
       Under a finite bound the ground truth is cut at B rounds — the
       only part a B-bounded run can ever reference — so the pre-run
       history is O(B·n) instead of O(T·n): the million-node path
       never materializes the full fixpoint history. *)
    let t =
      let rounds = match bound with P.Finite b -> Some b | P.Infinite -> None in
      (Stabilization.history ?rounds sc).Ss_sync.Sync_runner.t
    in
    let max_height = min (P.bound_to_int bound) (t + 6) in
    let codec =
      match layout with
      | `Boxed -> None
      | `Auto -> ( match bound with P.Finite _ -> codec | P.Infinite -> None)
      | `Packed -> (
          match (codec, bound) with
          | Some _, P.Finite _ -> codec
          | None, _ ->
              failwith ("no packed codec for algorithm: " ^ algo_name)
          | Some _, P.Infinite ->
              failwith "--layout packed requires a finite bound (-b B)")
    in
    let start =
      Stabilization.corrupted_start (Rng.split rng) ~p ?codec ~max_height sc
    in
    let budget =
      Option.map (fun s -> Ss_report.Budget.v ~deadline_s:s ()) deadline
    in
    let report =
      Stabilization.run ?budget ~sharded:(jobs > 1) sc ~daemon ~start
    in
    let name = sync.Ss_sync.Sync_algo.sync_name in
    if json then
      print_endline
        (Json.to_string
           (json_report name ~seed
              ~spec:(spec report.Stabilization.outputs)
              report))
    else begin
      print_report name report;
      Printf.printf "specification  : %b\n" (spec report.Stabilization.outputs)
    end
    end
  in
  let a = Catalog.find_algo algo_name in
  (match Catalog.validate_topology a graph with
  | Ok () -> ()
  | Error e -> failwith e);
  (match a.Catalog.instantiate (Rng.split rng) graph with
  | Catalog.Inst { sync; inputs; spec; codec } -> go ?codec sync inputs spec);
  0

let run_cmd =
  let algo =
    Arg.(
      value & opt string "leader"
      & info [ "a"; "algorithm" ]
          ~doc:
            ("Algorithm: "
            ^ String.concat ", " (Catalog.algo_names ())
            ^ ".  See $(b,fasst list)."))
  in
  let transformer =
    Arg.(
      value & opt string "trans"
      & info [ "T"; "transformer" ]
          ~doc:
            ("Transformer: "
            ^ String.concat ", " (Catalog.transformer_names ())
            ^ ".  See $(b,fasst list)."))
  in
  let term =
    Term.(
      const
        (fun jobs json transformer algo_name topology daemon seed mode bound p
             layout deadline ->
          Ss_par.Par.set_jobs jobs;
          run_algo ~json ~transformer ~algo_name ~topology ~daemon ~seed ~mode
            ~bound ~p ~layout ~deadline ~jobs)
      $ jobs_arg $ json_arg $ transformer $ algo $ topology_arg $ daemon_arg
      $ seed_arg $ mode_arg $ bound_arg $ corrupt_arg $ layout_arg
      $ deadline_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one transformed algorithm from a corrupted configuration under \
          one adversary and report moves/rounds/recovery.")
    term

(* ------------------------------------------------------------------ *)
(* Experiment tables                                                    *)
(* ------------------------------------------------------------------ *)

let seeds_list k = List.init k (fun i -> i + 1)

let table1_run jobs json which seed seeds =
  Ss_par.Par.set_jobs jobs;
  let rng () = Rng.create seed in
  let seeds = seeds_list seeds in
  if which = "lazy" || which = "all" then
    section ~json "Table 1 / lazy mode (leader election)"
      (Ss_expt.Table1.lazy_rows ~seeds (rng ()));
  if which = "greedy" || which = "all" then
    section ~json "Table 1 / greedy mode"
      (Ss_expt.Table1.greedy_rows ~seeds (rng ()));
  if which = "recovery" || which = "all" then
    section ~json "Table 1 / error recovery"
      (Ss_expt.Table1.recovery_rows ~seeds (rng ()));
  if which = "space" || which = "all" then
    section ~json "Table 1 / space" (Ss_expt.Table1.space_rows ~seeds (rng ()));
  0

let table1_cmd =
  let which =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"WHICH" ~doc:"lazy | greedy | recovery | space | all")
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce the complexity rows of Table 1.")
    Term.(const table1_run $ jobs_arg $ json_arg $ which $ seed_arg $ seeds_arg)

let instances_run jobs json which seed seeds =
  Ss_par.Par.set_jobs jobs;
  let rng () = Rng.create seed in
  let seeds = seeds_list seeds in
  if which = "leader" || which = "all" then
    section ~json "§5.1 leader election"
      (Ss_expt.Instances.leader_rows ~seeds (rng ()));
  if which = "bfs" || which = "all" then
    section ~json "§5.2 BFS spanning tree"
      (Ss_expt.Instances.bfs_rows ~seeds (rng ()));
  if which = "cv" || which = "all" then
    section ~json "§5.3 Cole-Vishkin ring coloring"
      (Ss_expt.Instances.cv_rows ~seeds (rng ()));
  if which = "sp" || which = "all" then
    section ~json "shortest-path trees (§1 Bellman-Ford input)"
      (Ss_expt.Instances.shortest_path_rows ~seeds (rng ()));
  0

let instances_cmd =
  let which =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"WHICH" ~doc:"leader | bfs | cv | sp | all")
  in
  Cmd.v
    (Cmd.info "instances" ~doc:"Reproduce the §5 instance experiments.")
    Term.(
      const instances_run $ jobs_arg $ json_arg $ which $ seed_arg $ seeds_arg)

let rollback_run jobs json max_k =
  Ss_par.Par.set_jobs jobs;
  section ~json "§7 / Figure 1: rollback blow-up vs transformer"
    (Ss_expt.Blowup_expt.rows ~max_k ());
  0

let rollback_cmd =
  let max_k =
    Arg.(value & opt int 10 & info [ "k"; "max-k" ] ~doc:"Largest G_k index.")
  in
  Cmd.v
    (Cmd.info "rollback"
       ~doc:
         "Reproduce the exponential move complexity of the rollback compiler \
          on the G_k family (validated schedule Γ_k).")
    Term.(const rollback_run $ jobs_arg $ json_arg $ max_k)

let energy_run jobs json seed seeds =
  Ss_par.Par.set_jobs jobs;
  section ~json "§6 message/energy accounting"
    (Ss_expt.Energy_expt.rows ~seeds:(seeds_list seeds) (Rng.create seed));
  0

let energy_cmd =
  Cmd.v
    (Cmd.info "energy" ~doc:"Reproduce the §6 message-size comparison.")
    Term.(const energy_run $ jobs_arg $ json_arg $ seed_arg $ seeds_arg)

let ablation_run jobs json seed seeds =
  Ss_par.Par.set_jobs jobs;
  section ~json "ablation: removing RP or the RC window breaks the transformer"
    (Ss_expt.Ablation_expt.rows ~seeds:(seeds_list seeds) (Rng.create seed));
  0

let ablation_cmd =
  Cmd.v
    (Cmd.info "ablation"
       ~doc:
         "Compare the full rule set against the no-RP and eager-RC ablations \
          (stuck/live-lock rates, worst moves).")
    Term.(const ablation_run $ jobs_arg $ json_arg $ seed_arg $ seeds_arg)

let msgnet_run jobs json seed seeds =
  Ss_par.Par.set_jobs jobs;
  section ~json "§6 end-to-end: transformer over message passing"
    (Ss_expt.Msgnet_expt.rows ~seeds:(seeds_list seeds) (Rng.create seed));
  0

let msgnet_cmd =
  Cmd.v
    (Cmd.info "msgnet"
       ~doc:
         "Run the message-passing realization (mirrors, heartbeat proofs, \
          delta encoding) end-to-end and report traffic plus the wire-memory \
          figures (peak in-flight bits, resident mirror bytes).")
    Term.(const msgnet_run $ jobs_arg $ json_arg $ seed_arg $ seeds_arg)

let baselines_run jobs json seed seeds =
  Ss_par.Par.set_jobs jobs;
  section ~json "hand-crafted min+1 BFS vs transformed BFS"
    (Ss_expt.Baselines_expt.bfs_rows ~seeds:(seeds_list seeds) (Rng.create seed));
  section ~json "Dijkstra's token ring [27]"
    (Ss_expt.Baselines_expt.dijkstra_rows (Rng.create seed));
  0

let baselines_cmd =
  Cmd.v
    (Cmd.info "baselines"
       ~doc:
         "Compare hand-crafted self-stabilizing baselines (min+1 BFS, \
          Dijkstra's token ring) against the transformer.")
    Term.(const baselines_run $ jobs_arg $ json_arg $ seed_arg $ seeds_arg)

(* ------------------------------------------------------------------ *)
(* transformers: the three-way comparison grid                          *)
(* ------------------------------------------------------------------ *)

let transformers_run jobs json seed seeds =
  Ss_par.Par.set_jobs jobs;
  let table, ok =
    Ss_expt.Transformers_expt.rows ~seeds:(seeds_list seeds) (Rng.create seed)
  in
  section ~json "transformer comparison: trans | rollback | adaptive" table;
  (* Any illegitimate terminal configuration is a non-zero exit, so
     the @transformers-smoke alias can gate on it. *)
  if ok then 0 else 1

let transformers_cmd =
  Cmd.v
    (Cmd.info "transformers"
       ~doc:
         "Run every registered transformer (§3 trans, §7 rollback, fully \
          adaptive) over the LCL workload suite (leader, BFS, Cole-Vishkin, \
          MIS, matching, coloring) on ring/torus/random4 graphs and compare \
          moves, rounds and energy bits.  Byte-identical for any $(b,-j); \
          exits non-zero if any cell ends illegitimate.")
    Term.(const transformers_run $ jobs_arg $ json_arg $ seed_arg $ seeds_arg)

(* ------------------------------------------------------------------ *)
(* list: what the registry and the catalog know                         *)
(* ------------------------------------------------------------------ *)

let list_run json =
  let ts = Table.create [ "transformer"; "description" ] in
  List.iter
    (fun e ->
      Table.add ts
        [ Table.S (Core.Registry.name e); Table.S (Core.Registry.doc e) ])
    (Catalog.transformers ());
  section ~json "transformers" ts;
  let al = Table.create [ "algorithm"; "graphs"; "sim-grid"; "description" ] in
  List.iter
    (fun a ->
      Table.add al
        [
          Table.S a.Catalog.algo_name;
          Table.S (if a.Catalog.ring_only then "rings only" else "any");
          Table.S (if a.Catalog.in_sim_grid then "yes" else "no");
          Table.S a.Catalog.algo_doc;
        ])
    Catalog.algorithms;
  section ~json "algorithms" al;
  let tp = Table.create [ "topology" ] in
  List.iter
    (fun syntax -> Table.add tp [ Table.S syntax ])
    (Catalog.topology_syntax ());
  section ~json "topologies" tp;
  0

let list_cmd =
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List the registered transformers, workload algorithms and topology \
          families — the same tables every other subcommand parses its \
          arguments against.")
    Term.(const list_run $ json_arg)

(* ------------------------------------------------------------------ *)
(* sim: deterministic chaos-mode scenario grids                         *)
(* ------------------------------------------------------------------ *)

let sim_run jobs json scenario algo topology seed seeds out =
  Ss_par.Par.set_jobs jobs;
  let rng = Rng.create seed in
  let scenarios =
    if scenario = "all" then Ss_chaos.Scenario.all
    else
      match Ss_chaos.Scenario.of_string scenario with
      | Ok s -> [ s ]
      | Error e -> failwith e
  in
  let algos =
    if algo = "all" then Ss_expt.Sim_expt.algo_names else [ algo ]
  in
  let workloads =
    match topology with
    | "default" -> Ss_expt.Sim_expt.default_workloads ~algos (Rng.split rng)
    | spec ->
        Ss_expt.Sim_expt.workloads_for ~algos (Rng.split rng)
          [ (spec, parse_topology (Rng.split rng) spec) ]
  in
  let table, ok =
    Ss_expt.Sim_expt.rows ~scenarios ~seeds:(seeds_list seeds) workloads
  in
  let title = "chaos-mode scenario grid (deterministic fault injection)" in
  section ~json title table;
  (match out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Json.to_string (Run_report.of_table ~label:title table));
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "grid written to %s\n" path);
  (* The smoke contract: a cell that fails to re-stabilize to a
     legitimate quiescent configuration is a non-zero exit, so the
     @sim-chaos alias can gate on it. *)
  if ok then 0 else 1

let sim_cmd =
  let scenario =
    Arg.(
      value & opt string "all"
      & info [ "scenario" ]
          ~doc:
            "Fault scenario: $(b,quick) (no faults), $(b,standard) (0.2% \
             drop, 0.1% reorder, 0.1% duplicate, 2 mid-run corruptions), \
             $(b,chaos) (2% drop, 1% reorder, 1% duplicate, 3 corruptions), \
             or $(b,all).")
  in
  let algo =
    Arg.(
      value & opt string "all"
      & info [ "a"; "algorithm" ]
          ~doc:
            ("Algorithm: "
            ^ String.concat ", " Ss_expt.Sim_expt.algo_names
            ^ ", or all."))
  in
  let topology =
    Arg.(
      value & opt string "default"
      & info [ "t"; "topology" ]
          ~doc:
            "Topology spec (same syntax as $(b,fasst run)), or \
             $(b,default) for the built-in ring + random grid.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ]
          ~doc:"Also write the grid as JSON (Run_report.of_table) to a file.")
  in
  let term =
    Term.(
      const (fun jobs json scenario algo topology seed seeds out ->
          sim_run jobs json scenario algo topology seed seeds out)
      $ jobs_arg $ json_arg $ scenario $ algo $ topology $ seed_arg $ seeds_arg
      $ out)
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Run deterministic chaos-mode simulations: scenario × algorithm × \
          graph grids with message drop/reorder/duplicate injection, mid-run \
          state corruption, per-event invariant checks against the fault-free \
          reference twin, and virtual-clock budgets.  Message rows report \
          peak in-flight wire bits ($(b,wirepeak)).  Byte-identical output \
          for any seed across runs and $(b,-j) values; exits non-zero if any \
          cell fails to re-stabilize.")
    term

(* ------------------------------------------------------------------ *)
(* trace: dump one execution as CSV                                     *)
(* ------------------------------------------------------------------ *)

let trace_run json topology daemon seed out =
  let rng = Rng.create seed in
  let graph = parse_topology rng topology in
  let daemon = parse_daemon (Rng.split rng) daemon in
  let inputs = Ss_algos.Leader_election.random_ids (Rng.split rng) graph in
  let params = Core.Registry.Trans.params Ss_algos.Leader_election.algo in
  let sc = { Stabilization.params; graph; inputs } in
  let t = (Stabilization.history sc).Ss_sync.Sync_runner.t in
  let start =
    Stabilization.corrupted_start (Rng.split rng) ~max_height:(t + 4) sc
  in
  let observer, events = Ss_sim.Trace.make () in
  let stats = Core.Registry.Trans.run ~observer params daemon start in
  let payload =
    if json then Json.to_string (Ss_sim.Trace.to_json (events ())) ^ "\n"
    else Ss_sim.Trace.to_csv (events ())
  in
  (match out with
  | None -> print_string payload
  | Some path ->
      let oc = open_out path in
      output_string oc payload;
      close_out oc;
      Printf.printf "trace written to %s\n" path);
  Printf.eprintf "(%d moves, %d rounds, terminated=%b)\n"
    stats.Ss_sim.Engine.moves stats.Ss_sim.Engine.rounds
    stats.Ss_sim.Engine.terminated;
  0

let dot_run topology seed out =
  let rng = Rng.create seed in
  let graph = parse_topology rng topology in
  let label =
    if String.length topology >= 3 && String.sub topology 0 3 = "gk:" then
      fun v -> Format.asprintf "%a" (G.Gk.pp_node ~k:0) v
    else string_of_int
  in
  let dot = G.Dot.of_graph ~name:"topology" ~label graph in
  (match out with
  | None -> print_string dot
  | Some path ->
      let oc = open_out path in
      output_string oc dot;
      close_out oc;
      Printf.printf "graph written to %s (n=%d, m=%d, D=%d)\n" path
        (G.Graph.n graph) (G.Graph.m graph)
        (G.Properties.diameter graph));
  0

let dot_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the DOT to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a topology in Graphviz DOT syntax.")
    Term.(const dot_run $ topology_arg $ seed_arg $ out)

let trace_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the CSV to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run transformed leader election from a corrupted start and dump the \
          per-move trace (step, rounds, node, rule) as CSV (or JSON with \
          $(b,--json)).")
    Term.(const trace_run $ json_arg $ topology_arg $ daemon_arg $ seed_arg $ out)

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment table in sequence.")
    Term.(
      const (fun jobs json seed seeds ->
          ignore (table1_run jobs json "all" seed seeds);
          ignore (instances_run jobs json "all" seed seeds);
          ignore (rollback_run jobs json 10);
          ignore (energy_run jobs json seed seeds);
          ignore (msgnet_run jobs json seed seeds);
          ignore (ablation_run jobs json seed seeds);
          ignore (baselines_run jobs json seed seeds);
          0)
      $ jobs_arg $ json_arg $ seed_arg $ seeds_arg)

let main =
  Cmd.group
    (Cmd.info "fasst" ~version:"1.0.0"
       ~doc:
         "Fully Asynchronous Self-Stabilization Toolkit — reproduction of \
          Devismes, Ilcinkas, Johnen & Mazoit (PODC 2024).")
    [
      run_cmd; list_cmd; table1_cmd; instances_cmd; rollback_cmd; energy_cmd;
      ablation_cmd; msgnet_cmd; baselines_cmd; transformers_cmd; sim_cmd;
      trace_cmd; dot_cmd; all_cmd;
    ]

let () = exit (Cmd.eval' main)
