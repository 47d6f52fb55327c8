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

(* A count that must be at least 1: below it, a table aggregates no
   run at all (and still prints "legit yes"), or the worker pool has
   no domain. *)
let positive_conv what =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 1 -> Ok k
    | _ ->
        Error (Printf.sprintf "invalid %s %S: expected a positive integer" what s)
  in
  Arg.conv' (parse, Format.pp_print_int)

(* [--seeds K] runs the corruption seeds 1..K. *)
let seeds_arg =
  Term.(
    const (fun k -> List.init k (fun i -> i + 1))
    $ Arg.(
        value
        & opt (positive_conv "seed count") 2
        & info [ "seeds" ] ~doc:"Number of corruption seeds per experiment row."))

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

(* A float that [ok] accepts; anything else (NaN included, since [ok]
   compares) is a usage error naming the option. *)
let float_conv ~what ~expected ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x -> Ok x
    | _ -> Error (Printf.sprintf "invalid %s %S: expected %s" what s expected)
  in
  Arg.conv' (parse, Format.pp_print_float)

let probability_conv =
  float_conv ~what:"probability" ~expected:"a number in [0, 1]" (fun p ->
      p >= 0. && p <= 1.)

let corrupt_arg =
  Arg.(
    value & opt probability_conv 1.0
    & info [ "p"; "corruption" ] ~doc:"Per-node fault probability, in [0, 1].")

(* A name from a catalog list: anything else is a usage error. *)
let name_conv names = Arg.enum (List.map (fun n -> (n, n)) names)

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

(* NaN would never trip and a negative allowance would trip before the
   first step. *)
let deadline_arg =
  let seconds =
    float_conv ~what:"deadline" ~expected:"a finite number of seconds >= 0"
      (fun d -> Float.is_finite d && d >= 0.)
  in
  Arg.(
    value
    & opt (some seconds) None
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
    & opt (positive_conv "job count") (Ss_par.Par.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

(* ------------------------------------------------------------------ *)
(* run: one transformed algorithm under one adversary                   *)
(* ------------------------------------------------------------------ *)

let json_report name ~seed ~spec (r : _ Stabilization.report) =
  let base =
    Run_report.v ~seed ~outcome:r.Stabilization.outcome name
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
  Printf.printf "outcome        : %s\n"
    (Ss_report.Budget.outcome_to_string r.Stabilization.outcome);
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
  s "outcome" (Ss_report.Budget.outcome_to_string o.Core.Registry.outcome);
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

(* Option values that each parse but that the chosen algorithm or
   transformer cannot run together: a usage error naming [opt] (exit
   124), raised before any run starts.  For [Term.ret]. *)
let usage_error opt msg =
  `Error (true, Printf.sprintf "option '%s': %s" opt msg)

(* The [-o] file is opened before any work runs: an unwritable path is
   a usage error at once, not an exception after the work. *)
let with_output out k =
  match out with
  | None -> k None
  | Some path -> (
      match open_out path with
      | oc -> k (Some (path, oc))
      | exception Sys_error e -> usage_error "-o" e)

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
      match Core.Registry.supports entry params with
      | Error e -> usage_error "-b" e
      | Ok () ->
          let budget =
            Option.map
              (fun s -> Ss_report.Budget.v ~steps:2_000_000 ~deadline_s:s ())
              deadline
          in
          let outcome =
            Core.Registry.measure entry ?budget ~p ~rng:(Rng.split rng)
              ~daemon
              ~max_height:(min (P.bound_to_int bound) 1_000_000)
              ~spec params graph ~inputs
          in
          run_outcome ~json sync.Ss_sync.Sync_algo.sync_name outcome;
          `Ok 0
    end
    else
      match (layout, codec, bound) with
      | `Packed, None, _ ->
          usage_error "--layout" ("no packed codec for algorithm " ^ algo_name)
      | `Packed, Some _, P.Infinite ->
          usage_error "-b" "--layout packed requires a finite bound B"
      | _ ->
          let codec =
            match (layout, bound) with
            | `Boxed, _ | `Auto, P.Infinite -> None
            | _ -> codec
          in
          let sc = { Stabilization.params; graph; inputs } in
          (* The corruption ceiling tracks the synchronous execution
             time.  Under a finite bound the ground truth is cut at B
             rounds — the only part a B-bounded run can ever reference
             — so the pre-run history is O(B·n) instead of O(T·n): the
             million-node path never materializes the full fixpoint
             history. *)
          let t =
            let rounds =
              match bound with P.Finite b -> Some b | P.Infinite -> None
            in
            (Stabilization.history ?rounds sc).Ss_sync.Sync_runner.t
          in
          let max_height = min (P.bound_to_int bound) (t + 6) in
          let start =
            Stabilization.corrupted_start (Rng.split rng) ~p ?codec
              ~max_height sc
          in
          let budget =
            Option.map (fun s -> Ss_report.Budget.v ~deadline_s:s ()) deadline
          in
          let report =
            Stabilization.run ?budget ~sharded:(jobs > 1) sc ~daemon ~start
          in
          let name = sync.Ss_sync.Sync_algo.sync_name in
          let spec = spec report.Stabilization.outputs in
          if json then
            print_endline (Json.to_string (json_report name ~seed ~spec report))
          else begin
            print_report name report;
            Printf.printf "specification  : %b\n" spec
          end;
          `Ok 0
  in
  let a = Catalog.find_algo algo_name in
  match Catalog.validate_topology a graph with
  | Error e -> usage_error "-t" e
  | Ok () -> (
      match a.Catalog.instantiate (Rng.split rng) graph with
      | Catalog.Inst { sync; inputs; spec; codec } -> go ?codec sync inputs spec)

let run_cmd =
  let algo =
    Arg.(
      value & opt (name_conv (Catalog.algo_names ())) "leader"
      & info [ "a"; "algorithm" ]
          ~doc:
            ("Algorithm: "
            ^ String.concat ", " (Catalog.algo_names ())
            ^ ".  See $(b,fasst list)."))
  in
  let transformer =
    Arg.(
      value & opt (name_conv (Catalog.transformer_names ())) "trans"
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
    (Term.ret term)

(* ------------------------------------------------------------------ *)
(* Experiment tables                                                    *)
(* ------------------------------------------------------------------ *)

(* An experiment section is a name (a [WHICH] value), a title and a
   row generator; each draws from a fresh rng at [--seed].  [which]
   picks one section by name, or "all" of them in order. *)
let sections_run sections jobs json which seed seeds =
  Ss_par.Par.set_jobs jobs;
  List.iter
    (fun (name, title, (rows : ?seeds:int list -> Rng.t -> Table.t)) ->
      if which = "all" || which = name then
        section ~json title (rows ~seeds (Rng.create seed)))
    sections;
  0

(* A subcommand that prints every one of [sections]. *)
let experiment_cmd name ~doc sections =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun jobs json seed seeds ->
          sections_run sections jobs json "all" seed seeds)
      $ jobs_arg $ json_arg $ seed_arg $ seeds_arg)

(* A subcommand whose positional [WHICH] picks one of [sections]. *)
let sections_cmd name ~doc sections =
  let names = List.map (fun (n, _, _) -> n) sections @ [ "all" ] in
  let which =
    Arg.(
      value
      & pos 0 (name_conv names) "all"
      & info [] ~docv:"WHICH" ~doc:(String.concat " | " names))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (sections_run sections)
      $ jobs_arg $ json_arg $ which $ seed_arg $ seeds_arg)

let table1_sections =
  [
    ("lazy", "Table 1 / lazy mode (leader election)", Ss_expt.Table1.lazy_rows);
    ("greedy", "Table 1 / greedy mode", Ss_expt.Table1.greedy_rows);
    ("recovery", "Table 1 / error recovery", Ss_expt.Table1.recovery_rows);
    ("space", "Table 1 / space", Ss_expt.Table1.space_rows);
  ]

let table1_cmd =
  sections_cmd "table1" ~doc:"Reproduce the complexity rows of Table 1."
    table1_sections

let instances_sections =
  [
    ("leader", "§5.1 leader election", Ss_expt.Instances.leader_rows);
    ("bfs", "§5.2 BFS spanning tree", Ss_expt.Instances.bfs_rows);
    ("cv", "§5.3 Cole-Vishkin ring coloring", Ss_expt.Instances.cv_rows);
    ( "sp",
      "shortest-path trees (§1 Bellman-Ford input)",
      Ss_expt.Instances.shortest_path_rows );
  ]

let instances_cmd =
  sections_cmd "instances" ~doc:"Reproduce the §5 instance experiments."
    instances_sections

(* Γ_k is one fixed schedule on one fixed configuration: neither
   --seed nor --seeds enters. *)
let rollback_section ~max_k =
  ( "rollback",
    "§7 / Figure 1: rollback blow-up vs transformer",
    fun ?seeds:_ _ -> Ss_expt.Blowup_expt.rows ~max_k () )

let rollback_cmd =
  let max_k =
    Arg.(
      value
      & opt (positive_conv "G_k index") 10
      & info [ "k"; "max-k" ] ~doc:"Largest G_k index.")
  in
  Cmd.v
    (Cmd.info "rollback"
       ~doc:
         "Reproduce the exponential move complexity of the rollback compiler \
          on the G_k family (validated schedule Γ_k).")
    Term.(
      const (fun jobs json max_k ->
          sections_run [ rollback_section ~max_k ] jobs json "all" 1 [ 1 ])
      $ jobs_arg $ json_arg $ max_k)

let energy_section =
  ("energy", "§6 message/energy accounting", Ss_expt.Energy_expt.rows)

let energy_cmd =
  experiment_cmd "energy" ~doc:"Reproduce the §6 message-size comparison."
    [ energy_section ]

let ablation_section =
  ( "ablation",
    "ablation: removing RP or the RC window breaks the transformer",
    Ss_expt.Ablation_expt.rows )

let ablation_cmd =
  experiment_cmd "ablation"
    ~doc:
      "Compare the full rule set against the no-RP and eager-RC ablations \
       (stuck/live-lock rates, worst moves)."
    [ ablation_section ]

let msgnet_section =
  ( "msgnet",
    "§6 end-to-end: transformer over message passing",
    Ss_expt.Msgnet_expt.rows )

let msgnet_cmd =
  experiment_cmd "msgnet"
    ~doc:
      "Run the message-passing realization (mirrors, heartbeat proofs, delta \
       encoding) end-to-end and report traffic plus the wire-memory figures \
       (peak in-flight bits, resident mirror bytes)."
    [ msgnet_section ]

(* Dijkstra's ring keeps its own seed list whatever --seeds says. *)
let baselines_sections =
  [
    ( "bfs",
      "hand-crafted min+1 BFS vs transformed BFS",
      Ss_expt.Baselines_expt.bfs_rows );
    ( "dijkstra",
      "Dijkstra's token ring [27]",
      fun ?seeds:_ rng -> Ss_expt.Baselines_expt.dijkstra_rows rng );
  ]

let baselines_cmd =
  experiment_cmd "baselines"
    ~doc:
      "Compare hand-crafted self-stabilizing baselines (min+1 BFS, \
       Dijkstra's token ring) against the transformer."
    baselines_sections

(* ------------------------------------------------------------------ *)
(* transformers: the three-way comparison grid                          *)
(* ------------------------------------------------------------------ *)

let transformers_run jobs json seed seeds =
  Ss_par.Par.set_jobs jobs;
  let table, ok =
    Ss_expt.Transformers_expt.rows ~seeds (Rng.create seed)
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

let sim_grid ~json ~scenarios ~seeds ~out workloads =
  let table, ok = Ss_expt.Sim_expt.rows ~scenarios ~seeds workloads in
  let title = "chaos-mode scenario grid (deterministic fault injection)" in
  section ~json title table;
  Option.iter
    (fun (path, oc) ->
      output_string oc (Json.to_string (Run_report.of_table ~label:title table));
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "grid written to %s\n" path)
    out;
  (* The smoke contract: a cell that fails to re-stabilize to a
     legitimate quiescent configuration is a non-zero exit, so the
     @sim-chaos alias can gate on it. *)
  `Ok (if ok then 0 else 1)

let sim_run jobs json scenarios algos topology seed seeds out =
  with_output out @@ fun out ->
  Ss_par.Par.set_jobs jobs;
  let rng = Rng.create seed in
  let grid = sim_grid ~json ~scenarios ~seeds ~out in
  match topology with
  | None -> grid (Ss_expt.Sim_expt.default_workloads ~algos (Rng.split rng))
  | Some spec -> (
      let graph = parse_topology (Rng.split rng) spec in
      (* One named algorithm must fit the topology; a roster skips the
         algorithms that do not. *)
      let unfit =
        match algos with
        | [ a ] -> Catalog.validate_topology (Catalog.find_algo a) graph
        | _ -> Ok ()
      in
      match unfit with
      | Error e -> usage_error "-t" e
      | Ok () ->
          grid
            (Ss_expt.Sim_expt.workloads_for ~algos (Rng.split rng)
               [ (spec, graph) ]))

let sim_cmd =
  (* Each name selects itself; "all" selects every member, in order. *)
  let all_or named =
    ("all", List.map snd named) :: List.map (fun (n, v) -> (n, [ v ])) named
  in
  let scenario =
    let named =
      List.map (fun s -> (s.Ss_chaos.Scenario.name, s)) Ss_chaos.Scenario.all
    in
    Arg.(
      value
      & opt (enum (all_or named)) Ss_chaos.Scenario.all
      & info [ "scenario" ]
          ~doc:
            "Fault scenario: $(b,quick) (no faults), $(b,standard) (0.2% \
             drop, 0.1% reorder, 0.1% duplicate, 2 mid-run corruptions), \
             $(b,chaos) (2% drop, 1% reorder, 1% duplicate, 3 corruptions), \
             or $(b,all).")
  in
  let algo =
    Arg.(
      value
      & opt
          (enum (all_or (List.map (fun a -> (a, a)) Ss_expt.Sim_expt.algo_names)))
          Ss_expt.Sim_expt.algo_names
      & info [ "a"; "algorithm" ]
          ~doc:
            ("Algorithm: "
            ^ String.concat ", " Ss_expt.Sim_expt.algo_names
            ^ ", or all."))
  in
  let topology =
    let parse = function
      | "default" -> Ok None
      | spec -> Result.map (fun () -> Some spec) (Catalog.check_topology spec)
    in
    let print ppf t =
      Format.pp_print_string ppf (Option.value t ~default:"default")
    in
    Arg.(
      value
      & opt (conv' (parse, print)) None
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
      ret
        (const sim_run $ jobs_arg $ json_arg $ scenario $ algo $ topology
       $ seed_arg $ seeds_arg $ out))
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
  with_output out @@ fun out ->
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
  let stats = Core.Registry.Trans.run ~sinks:[ observer ] params daemon start in
  let payload =
    if json then Json.to_string (Ss_sim.Trace.to_json (events ())) ^ "\n"
    else Ss_sim.Trace.to_csv (events ())
  in
  (match out with
  | None -> print_string payload
  | Some (path, oc) ->
      output_string oc payload;
      close_out oc;
      Printf.printf "trace written to %s\n" path);
  Printf.eprintf "(%d moves, %d rounds, terminated=%b)\n"
    stats.Ss_sim.Engine.moves stats.Ss_sim.Engine.rounds
    stats.Ss_sim.Engine.terminated;
  `Ok 0

let dot_run topology seed out =
  with_output out @@ fun out ->
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
  | Some (path, oc) ->
      output_string oc dot;
      close_out oc;
      Printf.printf "graph written to %s (n=%d, m=%d, D=%d)\n" path
        (G.Graph.n graph) (G.Graph.m graph)
        (G.Properties.diameter graph));
  `Ok 0

let dot_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the DOT to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a topology in Graphviz DOT syntax.")
    Term.(ret (const dot_run $ topology_arg $ seed_arg $ out))

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
    Term.(
      ret (const trace_run $ json_arg $ topology_arg $ daemon_arg $ seed_arg $ out))

let all_cmd =
  experiment_cmd "all"
    ~doc:
      "Run every experiment table in sequence (Table 1, the §5 \
       instances, §6, §7, the ablation, the baselines and the §1.3 \
       locality sweep)."
    (table1_sections @ instances_sections
    @ [ rollback_section ~max_k:10; energy_section; msgnet_section;
        ablation_section ]
    @ baselines_sections
    @ [
        ( "locality",
          "§1.3 locality: LOCAL views, S = Theta(Delta^r), space vs B*S",
          Ss_expt.Locality_expt.rows );
      ])

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
