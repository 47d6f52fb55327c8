type event = {
  ev_step : int;
  ev_rounds : int;
  ev_moved : (int * string) list;
}

let make () =
  let acc = ref [] in
  let observer ~step ~rounds ~moved _config =
    if step > 0 then
      acc := { ev_step = step; ev_rounds = rounds; ev_moved = moved } :: !acc
  in
  (observer, fun () -> List.rev !acc)

(* The engine lends its live configuration only for the duration of
   the call, and writes the states it owns in place: keep a snapshot
   of every state ([store.copy], the identity for immutable states). *)
let with_configs algo =
  let copy = algo.Algorithm.store.Algorithm.copy in
  let acc = ref [] in
  let observer ~step ~rounds ~moved config =
    let snapshot = Config.with_states config (Array.map copy config.Config.states) in
    acc :=
      ({ ev_step = step; ev_rounds = rounds; ev_moved = moved }, snapshot) :: !acc
  in
  (observer, fun () -> List.rev !acc)

let moves_of events =
  List.fold_left (fun n e -> n + List.length e.ev_moved) 0 events

(* RFC 4180: a field containing a comma, a double quote, or a line
   break is wrapped in double quotes, with embedded quotes doubled. *)
let csv_field s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quoting then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let csv_header = "step,rounds,node,rule\n"

let add_csv_event buf e =
  List.iter
    (fun (node, rule) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%s\n" e.ev_step e.ev_rounds node
           (csv_field rule)))
    e.ev_moved

let to_csv events =
  let buf = Buffer.create 256 in
  Buffer.add_string buf csv_header;
  List.iter (add_csv_event buf) events;
  Buffer.contents buf

let csv_sink () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf csv_header;
  let observer ~step ~rounds ~moved _config =
    if step > 0 then
      add_csv_event buf { ev_step = step; ev_rounds = rounds; ev_moved = moved }
  in
  (observer, fun () -> Buffer.contents buf)

let to_json events =
  let module Json = Ss_report.Json in
  Json.List
    (List.concat_map
       (fun e ->
         List.map
           (fun (node, rule) ->
             Json.Obj
               [
                 ("step", Json.Int e.ev_step);
                 ("rounds", Json.Int e.ev_rounds);
                 ("node", Json.Int node);
                 ("rule", Json.String rule);
               ])
           e.ev_moved)
       events)

let to_schedule events =
  List.filter_map
    (fun e ->
      match e.ev_moved with [] -> None | moved -> Some (List.map fst moved))
    events

let pp_event ppf e =
  Format.fprintf ppf "step %d (%d rounds):" e.ev_step e.ev_rounds;
  List.iter (fun (node, rule) -> Format.fprintf ppf " %d:%s" node rule) e.ev_moved
