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
    & info [ "m"; "mode" ]
        ~doc:
          "Transformer mode: lazy or greedy (greedy needs a finite \
           $(b,-b)).")

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
     layout; fails without a codec, with an infinite bound or under \
     $(b,rollback)), or \
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

(* Both renderings read the same typed Table.t: the text goes through
   Table.render, the JSON through Json.of_table — content-identical by
   construction (pinned by the test suite). *)
let section ~json title table =
  Ss_expt.Sections.print Format.std_formatter ~json title table

(* The metric/value rows of one measured run, for every transformer;
   the recovery rows appear when the transformer tracks recovery. *)
let run_rows entry (r : _ Core.Registry.summary) ~energy_bits ~spec =
  let s k v = (k, Table.S v) and i k v = (k, Table.I v) in
  [
    s "transformer" (Core.Registry.name entry);
    s "terminated" (string_of_bool r.terminated);
    s "outcome" (Ss_report.Budget.outcome_to_string r.outcome);
    i "moves" r.moves;
    i "rounds" r.rounds;
    i "steps" r.steps;
  ]
  @ (if Core.Registry.tracks_recovery entry then
       [
         i "recovery-moves" r.recovery_moves;
         i "recovery-rounds" r.recovery_rounds;
       ]
     else [])
  @ [ i "energy-bits" energy_bits; i "space-bits" r.space_bits ]
  @ List.map (fun (rule, n) -> i (rule ^ " moves") n) r.moves_per_rule
  @ [
      s "legitimate" (string_of_bool r.legitimate);
      s "specification" (string_of_bool (spec r.outputs));
    ]

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
  let a = Catalog.find_algo algo_name in
  match Catalog.validate_topology a graph with
  | Error e -> usage_error "-t" e
  | Ok () -> (
      let (Catalog.Inst { sync; codec; _ } as inst) =
        a.Catalog.instantiate (Rng.split rng) graph
      in
      let entry = Catalog.find_transformer transformer in
      (* Refused before the ground truth is built. *)
      let unfit =
        match (layout, codec, bound) with
        | _ when mode = P.Greedy && bound = P.Infinite ->
            Error (usage_error "-b" "-m greedy requires a finite bound B")
        | `Packed, _, _ when not (Core.Registry.packs entry) ->
            Error
              (usage_error "--layout"
                 ("transformer " ^ transformer ^ " has no packed layout"))
        | `Packed, None, _ ->
            Error
              (usage_error "--layout"
                 ("no packed codec for algorithm " ^ algo_name))
        | `Packed, Some _, P.Infinite ->
            Error (usage_error "-b" "--layout packed requires a finite bound B")
        | _ ->
            Result.map_error (usage_error "-b")
              (Core.Registry.supports entry
                 (Core.Registry.Trans.params ~mode ~bound sync))
      in
      match unfit with
      | Error e -> e
      | Ok () ->
          let (Catalog.Instance { sc; spec; hist; codec }) =
            Catalog.instance { Catalog.mode; bound = Catalog.Fixed bound } inst
              graph
          in
          let codec = if layout = `Boxed then None else codec in
          (* The corruption ceiling tracks the synchronous execution
             time; under a finite bound the instance's ground truth is
             cut at B rounds, so the million-node path never
             materializes the full fixpoint history. *)
          let max_height =
            min (P.bound_to_int bound) (hist.Ss_sync.Sync_runner.t + 6)
          in
          let budget =
            Option.map (fun s -> Ss_report.Budget.v ~deadline_s:s ()) deadline
          in
          let r, energy_bits =
            Core.Registry.measure entry ?budget ~p ~hist ?codec
              ~sharded:(jobs > 1) ~rng:(Rng.split rng) ~daemon ~max_height
              sc.params graph ~inputs:sc.inputs
          in
          let rows = run_rows entry r ~energy_bits ~spec in
          let table = Table.create [ "metric"; "value" ] in
          List.iter (fun (k, v) -> Table.add table [ Table.S k; v ]) rows;
          section ~json sync.Ss_sync.Sync_algo.sync_name table;
          `Ok 0)

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

module Sections = Ss_expt.Sections

(* Each section draws from a fresh rng at [--seed] and takes the worst
   over the [--seeds] corruption seeds. *)
let seeded =
  Term.(const (fun seed seeds -> (seed, seeds)) $ seed_arg $ seeds_arg)

(* Every table subcommand: print the [sections] in order under
   [seeding]; exit 1 when any printed cell reads NO (so the smoke
   aliases can gate on it). *)
let tables_cmd name ~doc seeding sections =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun jobs json (seed, seeds) sections ->
          Ss_par.Par.set_jobs jobs;
          Sections.run Format.std_formatter ~json ~seed ~seeds sections)
      $ jobs_arg $ json_arg $ seeding $ sections)

(* A positional [WHICH] picks one of [sections], or "all" of them. *)
let which sections =
  let names = List.map (fun s -> s.Sections.name) sections @ [ "all" ] in
  Term.(
    const (fun which ->
        List.filter (fun s -> which = "all" || which = s.Sections.name) sections)
    $ Arg.(
        value
        & pos 0 (name_conv names) "all"
        & info [] ~docv:"WHICH" ~doc:(String.concat " | " names)))

let table1_cmd =
  tables_cmd "table1" ~doc:"Reproduce the complexity rows of Table 1." seeded
    (which Sections.table1)

let instances_cmd =
  tables_cmd "instances" ~doc:"Reproduce the §5 instance experiments." seeded
    (which Sections.instances)

(* Γ_k is one fixed schedule on one fixed configuration, so the
   subcommand takes no seed options: its transformer column runs the
   portfolio of seed 1. *)
let rollback_cmd =
  let max_k =
    Arg.(
      value
      & opt (positive_conv "G_k index") 10
      & info [ "k"; "max-k" ] ~doc:"Largest G_k index.")
  in
  tables_cmd "rollback"
    ~doc:
      "Reproduce the exponential move complexity of the rollback compiler on \
       the G_k family (validated schedule Γ_k)."
    (Term.const (1, [ 1 ]))
    Term.(const (fun max_k -> [ Sections.rollback ~max_k ]) $ max_k)

let energy_cmd =
  tables_cmd "energy" ~doc:"Reproduce the §6 message-size comparison." seeded
    (Term.const [ Sections.energy ])

let ablation_cmd =
  tables_cmd "ablation"
    ~doc:
      "Compare the full rule set against the no-RP and eager-RC ablations \
       (stuck/live-lock rates, worst moves)."
    seeded
    (Term.const [ Sections.ablation ])

let msgnet_cmd =
  tables_cmd "msgnet"
    ~doc:
      "Run the message-passing realization (mirrors, heartbeat proofs, delta \
       encoding) end-to-end and report traffic plus the wire-memory figures \
       (peak in-flight bits, resident mirror bytes)."
    seeded
    (Term.const [ Sections.msgnet ])

let baselines_cmd =
  tables_cmd "baselines"
    ~doc:
      "Compare hand-crafted self-stabilizing baselines (min+1 BFS, \
       Dijkstra's token ring) against the transformer."
    seeded
    (Term.const Sections.baselines)

let transformers_cmd =
  tables_cmd "transformers"
    ~doc:
      "Run every registered transformer (§3 trans, §7 rollback, fully \
       adaptive) over the LCL workload suite (leader, BFS, Cole-Vishkin, \
       MIS, matching, coloring) on ring/torus/random4 graphs and compare \
       moves, rounds and energy bits.  Byte-identical for any $(b,-j); exits \
       non-zero if any cell ends illegitimate."
    seeded
    (Term.const [ Sections.transformers ])

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
  let table = Ss_expt.Sim_expt.rows ~scenarios ~seeds workloads in
  let title = "chaos-mode scenario grid (deterministic fault injection)" in
  section ~json title table;
  Option.iter
    (fun (path, oc) ->
      output_string oc (Json.to_string (Json.of_table ~label:title table));
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "grid written to %s\n" path)
    out;
  (* The smoke contract: a cell that fails to re-stabilize to a
     legitimate quiescent configuration is a non-zero exit, so the
     @sim-chaos alias can gate on it. *)
  `Ok (if Ss_expt.Measure.ok table then 0 else 1)

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
          ~doc:"Also write the grid as JSON (Json.of_table) to a file.")
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
  let inst =
    Catalog.instance Catalog.lazy_infinite
      (Catalog.instantiate "leader" (Rng.split rng) graph)
      graph
  in
  let max_height = Catalog.max_height inst in
  let (Catalog.Instance { sc; _ }) = inst in
  let start = Stabilization.corrupted_start (Rng.split rng) ~max_height sc in
  let observer, events = Ss_sim.Trace.make () in
  let stats =
    Core.Registry.Trans.run ~sinks:[ observer ] sc.params daemon start
  in
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
  tables_cmd "all"
    ~doc:
      "Run every experiment table in sequence (Table 1, the §5 instances, \
       §6, §7, the ablation, the baselines and the §1.3 locality sweep); \
       exits non-zero if any cell reads NO."
    seeded (Term.const Sections.all)

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
