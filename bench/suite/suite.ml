(* Recovery benchmark: four workloads, each a closed loop of full
   recoveries, run one at a time in a child process of their own.

     suite.exe --seed S                 every workload, timed pass
     suite.exe --seed S --trace         every workload, per-layer pass
     suite.exe --workload W --seed S --seconds T --trace 0|1
                                        one workload; the last line is
                                        its result object
     suite.exe --quick                  tiny sizes, both passes
     suite.exe --compare BASE HEAD      one verdict per workload and metric

   See README.md for the workloads, the metrics and how to compare two
   commits. *)

module Json = Ss_report.Json

let default_seconds = 24.

(* A child that outlives this is killed and its workload fails. *)
let child_limit_s = 170.

let now () = Ss_report.Budget.now_s ()
let fi = float_of_int

let number = function Json.Float f -> Some f | Json.Int i -> Some (fi i) | _ -> None

(* ------------------------------------------------------------------ *)
(* Child: run one workload, print its raw samples                       *)
(* ------------------------------------------------------------------ *)

let peak_rss_mib () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      List.find_map
        (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> fi kb /. 1024.))
        (String.split_on_char '\n' status)
  | exception Sys_error _ -> None

(* One domain: on a shared 2-core box a second domain waits on
   whatever else the host runs, and the sharded step's barrier turns
   that wait into noise that no probe of the box's speed tracks. *)
let child ~workload ~seed ~seconds ~traced ~quick =
  Ss_par.Par.set_jobs 1;
  let w =
    match Workloads.find workload with
    | Some w -> w
    | None -> failwith ("unknown workload: " ^ workload)
  in
  let attempted = ref 0 and error = ref None in
  let reference = ref None and peak_rss = ref None in
  (* One rep, or [None] once anything has failed.  Counts must repeat
     exactly on every rep of the seed, traced or not.  The heap never
     shrinks back to the OS, so the peak RSS of one recovery is read
     after the first. *)
  let rep ~traced =
    if !error <> None then None
    else begin
      incr attempted;
      let fail msg = error := Some msg; None in
      match w.Workloads.rep ~quick ~traced ~seed with
      | exception e -> fail (Printexc.to_string e)
      | { Workloads.error = Some e; _ } -> fail e
      | r -> (
          match !reference with
          | None ->
              reference := Some r.Workloads.counts;
              peak_rss := peak_rss_mib ();
              Some r
          | Some c when c = r.Workloads.counts -> Some r
          | Some _ when traced -> fail "traced rep did not reproduce the untraced counts"
          | Some _ -> fail "counts differ between reps of one seed")
    end
  in
  let samples = ref [] in
  let add name v = samples := (name, v) :: !samples in
  let count name =
    Option.bind !reference (fun c -> Option.map fi (List.assoc_opt name c))
  in
  (* The first rep of a process runs on a cold heap; it is checked but
     not timed. *)
  if not quick then ignore (rep ~traced:false);
  let t0 = now () in
  (* Quartiles need three timed reps; the traced pass reports medians
     of whatever pairs fit. *)
  let enough reps =
    if quick then reps >= 1
    else reps >= (if traced then 1 else 3) && now () -. t0 >= seconds
  in
  (* Timed reps alternate with probes of the box's speed; see Probe. *)
  let probe () = if quick then Probe.nominal_s else Probe.run () in
  let rec timed before reps =
    if not (enough reps) then
      Option.iter
        (fun r ->
          let after = probe () in
          let scale = Probe.scale ~before ~after in
          add "setup_s" (r.Workloads.setup_s *. scale);
          add "recovery_s" (r.Workloads.recovery_s *. scale);
          add "recovery_wall_s" r.Workloads.recovery_s;
          add "probe_s" after;
          timed after (reps + 1))
        (rep ~traced:false)
  in
  (* Untraced and traced reps alternate, so the overhead ratio compares
     reps that ran under the same machine load. *)
  let rec traced_pairs pairs =
    if not (enough pairs) then
      Option.iter
        (fun u ->
          Option.iter
            (fun t ->
              List.iter
                (fun (k, v) -> if not (String.starts_with ~prefix:"gc." k) then add k v)
                t.Workloads.layers;
              let gc k = List.assoc k u.Workloads.layers in
              let events =
                match w.Workloads.plane with
                | `Engine -> count "steps"
                | `Msgnet -> count "deliveries"
              in
              add "gc.minor_words_per_event"
                (gc "gc.minor_words" /. Float.max 1. (Option.value events ~default:1.));
              add "gc.major_words" (gc "gc.major_words");
              add "gc.major_collections" (gc "gc.major_collections");
              add "trace.overhead_frac"
                ((t.Workloads.recovery_s /. u.Workloads.recovery_s) -. 1.);
              traced_pairs (pairs + 1))
            (rep ~traced:true))
        (rep ~traced:false)
  in
  if traced then traced_pairs 0
  else begin
    timed (probe ()) 0;
    Option.iter (add "peak_rss_mb") !peak_rss;
    List.iter
      (fun name ->
        (* recovery_rounds reads -1 where recovery is not tracked *)
        Option.iter (fun c -> if c >= 0. then add name c) (count name))
      ("moves" :: "space_bits"
      ::
      (match w.Workloads.plane with
      | `Engine -> [ "steps"; "rounds"; "recovery_rounds" ]
      | `Msgnet -> [ "deliveries" ]));
    match (count "wire_bits", count "nodes") with
    | Some bits, Some n -> add "wire_bits_per_node" (bits /. n)
    | _ -> ()
  end;
  let failed = if !error = None then 0 else 1 in
  add "fail_rate" (fi failed /. fi (max 1 !attempted));
  let names =
    if traced then List.map fst Metrics.per_layer
    else List.map fst (Metrics.end_to_end @ Metrics.unscaled @ Metrics.plane_counts)
  in
  let values name =
    List.filter_map
      (fun (k, v) -> if k = name then Some (Json.Float v) else None)
      (List.rev !samples)
  in
  let metrics =
    List.filter_map
      (fun name ->
        match values name with
        | [] when traced && failed = 0 ->
            (* a layer this workload's plane never enters *)
            Some (name, Json.List [ Json.Float 0. ])
        | [] -> None
        | xs -> Some (name, Json.List xs))
      names
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.String workload);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int failed);
            ( "errors",
              Json.List (Option.to_list (Option.map (fun e -> Json.String e) !error)) );
            ("metrics", Json.Obj metrics);
          ]))

(* ------------------------------------------------------------------ *)
(* Parent: spawn children, summarize, print                             *)
(* ------------------------------------------------------------------ *)

type stat = { unit : string; q1 : float; median : float; q3 : float; values : float list }

type summary = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  errors : string list;
  stats : (string * stat) list;
}

let stat_of unit values =
  let q1, median, q3 = Metrics.quartiles values in
  { unit; q1; median; q3; values }

let last_line s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.rev
  |> function
  | l :: _ -> l
  | [] -> ""

(* Run the child to completion (or kill it at the limit) and return its
   exit status and standard output. *)
let spawn args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let deadline = now () +. child_limit_s in
  let rec read () =
    let left = deadline -. now () in
    if left <= 0. then false
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> false
      | _ ->
          let k = Unix.read rd chunk 0 (Bytes.length chunk) in
          if k = 0 then true
          else begin
            Buffer.add_subbytes buf chunk 0 k;
            read ()
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  let finished = read () in
  if not finished then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  (finished && status = Unix.WEXITED 0, Buffer.contents buf)

let summarize workload (ok, output) =
  let failure msg =
    { workload; correct = false; attempted = 1; failed = 1; errors = [ msg ]; stats = [] }
  in
  match Json.of_string (last_line output) with
  | Error _ -> failure "child printed no result (crashed or timed out)"
  | Ok j -> (
      let int k = Option.bind (Json.member k j) (fun v -> Result.to_option (Json.to_int v)) in
      match (int "attempted", int "failed", Json.member "metrics" j) with
      | Some attempted, Some failed, Some (Json.Obj ms) ->
          let errors =
            match Json.member "errors" j with
            | Some (Json.List es) ->
                List.filter_map (fun e -> Result.to_option (Json.to_str e)) es
            | _ -> []
          in
          let stats =
            List.filter_map
              (fun (name, v) ->
                match v with
                | Json.List (_ :: _ as xs) ->
                    Some
                      ( name,
                        stat_of (Metrics.unit_of name) (List.filter_map number xs) )
                | _ -> None)
              ms
          in
          { workload; correct = ok && failed = 0; attempted; failed; errors; stats }
      | _ -> failure "child printed a malformed result")

let run_workload ~seed ~seconds ~traced ~quick workload =
  let args =
    [
      "--child"; workload; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0");
    ]
    @ if quick then [ "--quick" ] else []
  in
  summarize workload (spawn args)

let print_table summaries =
  Printf.printf "%-26s %-34s %-6s %14s %14s %14s %4s\n" "workload" "metric" "unit"
    "median" "q1" "q3" "n";
  List.iter
    (fun s ->
      List.iter
        (fun (name, st) ->
          Printf.printf "%-26s %-34s %-6s %14.6g %14.6g %14.6g %4d\n" s.workload name
            st.unit st.median st.q1 st.q3 (List.length st.values))
        s.stats;
      List.iter (fun e -> Printf.printf "%-26s FAILED: %s\n" s.workload e) s.errors)
    summaries

let report_json ~seed ~traced summaries =
  let stat st =
    Json.Obj
      [
        ("unit", Json.String st.unit);
        ("median", Json.Float st.median);
        ("q1", Json.Float st.q1);
        ("q3", Json.Float st.q3);
        ("n", Json.Int (List.length st.values));
        ("values", Json.List (List.map (fun v -> Json.Float v) st.values));
      ]
  in
  Json.Obj
    [
      ("suite", Json.String "recovery");
      ("seed", Json.Int seed);
      ("trace", Json.Bool traced);
      ( "workloads",
        Json.Obj
          (List.map
             (fun s ->
               ( s.workload,
                 Json.Obj
                   [
                     ("correct", Json.Bool s.correct);
                     ("attempted", Json.Int s.attempted);
                     ("failed", Json.Int s.failed);
                     ("errors", Json.List (List.map (fun e -> Json.String e) s.errors));
                     ("metrics", Json.Obj (List.map (fun (k, st) -> (k, stat st)) s.stats));
                   ] ))
             summaries) );
    ]

(* The result object for one workload: every metric of the pass by
   name, its median as the value. *)
let result_json ~traced s =
  let names = List.map fst (if traced then Metrics.per_layer else Metrics.end_to_end) in
  Json.Obj
    [
      ("correct", Json.Bool s.correct);
      ("attempted", Json.Int s.attempted);
      ("failed", Json.Int s.failed);
      ( "metrics",
        Json.Obj
          (List.filter_map
             (fun name ->
               Option.map
                 (fun st ->
                   ( name,
                     Json.Obj
                       [ ("value", Json.Float st.median); ("unit", Json.String st.unit) ] ))
                 (List.assoc_opt name s.stats))
             names) );
    ]

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                       *)
(* ------------------------------------------------------------------ *)

type bound = { better_lower : bool; share : float }

let read_manifest path =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_text path In_channel.input_all)
    with Sys_error e -> Error e
  in
  let* j = Json.of_string text in
  let list k = match Json.member k j with Some (Json.List xs) -> xs | _ -> [] in
  let str k o = Option.bind (Json.member k o) (fun v -> Result.to_option (Json.to_str v)) in
  let named k = List.filter_map (fun o -> Option.map (fun n -> (n, o)) (str "name" o)) (list k) in
  Ok
    ( List.map fst (named "workloads"),
      List.map (fun (n, o) -> (n, Option.value (str "unit" o) ~default:"")) (named "end_to_end"),
      List.map (fun (n, o) -> (n, Option.value (str "unit" o) ~default:"")) (named "per_layer"),
      List.map
        (fun (n, o) ->
          ( n,
            {
              better_lower = str "better" o <> Some "higher";
              share = Option.value (Option.bind (Json.member "bound" o) number) ~default:0.;
            } ))
        (named "end_to_end") )

(* The suite and its manifest must name the same workloads and metrics,
   with the same units. *)
let check_manifest path =
  match read_manifest path with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok (workloads, e2e, layers, _) ->
      let same a b = List.sort compare a = List.sort compare b in
      if not (same workloads (List.map (fun w -> w.Workloads.name) Workloads.all)) then
        Error "workloads differ from the suite's"
      else if not (same e2e Metrics.end_to_end) then
        Error "end_to_end metrics differ from the suite's"
      else if not (same layers Metrics.per_layer) then
        Error "per_layer metrics differ from the suite's"
      else Ok ()

(* ------------------------------------------------------------------ *)
(* --compare                                                            *)
(* ------------------------------------------------------------------ *)

(* [setup_s] is milliseconds on the ring workloads, where a relative
   bound alone would flag scheduler noise. *)
let setup_floor_s = 0.02

let read_reports path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match Json.of_string l with
         | Ok j when Json.member "suite" j <> None -> Some j
         | _ -> None)

(* One side's values for a workload's metric: the per-run medians when
   the file holds several runs, else the single run's samples. *)
let side_values reports workload metric =
  let stat r =
    match Option.bind (Json.member "workloads" r) (Json.member workload) with
    | None -> None
    | Some w -> (
        match Option.bind (Json.member "metrics" w) (Json.member metric) with
        | None -> None
        | Some m ->
            let values =
              match Json.member "values" m with
              | Some (Json.List xs) -> List.filter_map number xs
              | _ -> []
            in
            Option.map (fun med -> (med, values)) (Option.bind (Json.member "median" m) number))
  in
  match List.filter_map stat reports with
  | [] -> None
  | [ (_, values) ] when values <> [] -> Some values
  | runs -> Some (List.map fst runs)

let verdict ~metric ~bound base head =
  let _, b, _ = Metrics.quartiles base and _, h, _ = Metrics.quartiles head in
  let spread xs =
    let q1, m, q3 = Metrics.quartiles xs in
    if m = 0. then 0. else (q3 -. q1) /. Float.abs m
  in
  let worse x y = if bound.better_lower then x > y else x < y in
  let allowed =
    let rel = bound.share *. Float.abs b in
    if metric = "setup_s" then Float.max rel setup_floor_s else rel
  in
  let change = if bound.better_lower then h -. b else b -. h in
  if metric = "fail_rate" then
    if h > b then "regressed" else if h < b then "improved" else "unchanged"
  else if spread base > bound.share || spread head > bound.share then
    if List.for_all (fun y -> List.for_all (fun x -> worse x y) base) head then "improved"
    else "unresolved"
  else if change > allowed then "regressed"
  else if -.change > spread base *. Float.abs b then "improved"
  else "unchanged"

let compare_files ~manifest base_path head_path =
  match read_manifest manifest with
  | Error e ->
      prerr_endline (manifest ^ ": " ^ e);
      2
  | Ok (workloads, _, _, bounds) ->
      let base = read_reports base_path and head = read_reports head_path in
      if base = [] || head = [] then begin
        prerr_endline "--compare: a file holds no suite report line";
        2
      end
      else begin
        let bounds = bounds @ [ ("fail_rate", { better_lower = true; share = 0. }) ] in
        Printf.printf "%-26s %-12s %14s %14s %9s %7s  %s\n" "workload" "metric" "base"
          "head" "change" "bound" "verdict";
        let regressed = ref false in
        List.iter
          (fun workload ->
            List.iter
              (fun (metric, bound) ->
                match (side_values base workload metric, side_values head workload metric) with
                | Some b, Some h ->
                    let v = verdict ~metric ~bound b h in
                    if v = "regressed" then regressed := true;
                    let _, mb, _ = Metrics.quartiles b and _, mh, _ = Metrics.quartiles h in
                    Printf.printf "%-26s %-12s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n" workload
                      metric mb mh
                      (if mb = 0. then 0. else 100. *. (mh -. mb) /. Float.abs mb)
                      (100. *. bound.share) v
                | _ -> ())
              bounds)
          workloads;
        if !regressed then 1 else 0
      end

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: suite.exe [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
   [--quick] [--manifest FILE]\n\
  \       suite.exe --compare BASE.json HEAD.json [--manifest FILE]"

type opts = {
  mutable workload : string option;
  mutable child : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable traced : bool;
  mutable quick : bool;
  mutable compare : (string * string) option;
  mutable manifest : string option;
}

let parse argv =
  let o =
    {
      workload = None; child = None; seed = 1; seconds = default_seconds; traced = false;
      quick = false; compare = None; manifest = None;
    }
  in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> failwith (flag ^ " expects an integer")
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> o.workload <- Some w; go rest
    | "--child" :: w :: rest -> o.child <- Some w; go rest
    | "--seed" :: v :: rest -> o.seed <- int_arg "--seed" v; go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s >= 0. -> o.seconds <- s
        | _ -> failwith "--seconds expects a non-negative number");
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> o.traced <- v = "1"; go rest
    | "--trace" :: rest -> o.traced <- true; go rest
    | "--quick" :: rest -> o.quick <- true; go rest
    | "--compare" :: a :: b :: rest -> o.compare <- Some (a, b); go rest
    | "--manifest" :: f :: rest -> o.manifest <- Some f; go rest
    | arg :: _ -> failwith ("unexpected argument: " ^ arg)
  in
  go (List.tl (Array.to_list argv));
  o

let main () =
  let o = parse Sys.argv in
  match (o.child, o.compare, o.workload) with
  | Some w, _, _ ->
      child ~workload:w ~seed:o.seed ~seconds:o.seconds ~traced:o.traced ~quick:o.quick;
      0
  | None, Some (base, head), _ ->
      compare_files ~manifest:(Option.value o.manifest ~default:"BENCHMARK.json") base head
  | None, None, Some w ->
      if Workloads.find w = None then failwith ("unknown workload: " ^ w);
      let s = run_workload ~seed:o.seed ~seconds:o.seconds ~traced:o.traced ~quick:o.quick w in
      print_table [ s ];
      print_endline (Json.to_string (report_json ~seed:o.seed ~traced:o.traced [ s ]));
      print_endline (Json.to_string (result_json ~traced:o.traced s));
      if s.correct then 0 else 1
  | None, None, None ->
      (match Option.map check_manifest o.manifest with
      | Some (Error e) -> failwith ("manifest: " ^ e)
      | _ -> ());
      let passes = if o.quick then [ false; true ] else [ o.traced ] in
      let ok = ref true in
      List.iter
        (fun traced ->
          let summaries =
            List.map
              (fun w ->
                run_workload ~seed:o.seed ~seconds:o.seconds ~traced ~quick:o.quick
                  w.Workloads.name)
              Workloads.all
          in
          print_table summaries;
          print_endline (Json.to_string (report_json ~seed:o.seed ~traced summaries));
          if not (List.for_all (fun s -> s.correct) summaries) then ok := false)
        passes;
      if !ok then 0 else 1

let () =
  match main () with
  | code -> exit code
  | exception Failure msg ->
      prerr_endline ("suite: " ^ msg);
      prerr_endline usage;
      exit 2
  | exception Sys_error msg ->
      prerr_endline ("suite: " ^ msg);
      exit 2
