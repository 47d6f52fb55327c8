type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emitter                                                              *)
(* ------------------------------------------------------------------ *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest decimal that parses back to the same float; integral
   values keep a ".0" so the reader sees a Float again.  JSON has no
   non-finite numbers, so those degrade to null. *)
let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else if Float.is_integer f then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> add_escaped buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent)                                           *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

let parse_fail pos msg = raise (Parse_error (pos, msg))

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> parse_fail !pos (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else parse_fail !pos ("expected " ^ word)
  in
  (* Encode a Unicode scalar value as UTF-8. *)
  let add_utf8 buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then parse_fail !pos "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_fail !pos "unterminated string";
      match s.[!pos] with
      | '"' ->
          advance ();
          Buffer.contents buf
      | '\\' ->
          advance ();
          (if !pos >= n then parse_fail !pos "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'u' ->
                 advance ();
                 add_utf8 buf (hex4 ())
             | c -> parse_fail !pos (Printf.sprintf "bad escape '\\%c'" c));
          go ()
      | c when Char.code c < 0x20 -> parse_fail !pos "raw control character"
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let saw = ref false in
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        saw := true;
        advance ()
      done;
      if not !saw then parse_fail !pos "expected digit"
    in
    (* RFC 8259: the integer part is either a lone 0 or starts with a
       nonzero digit — "01" is not a number. *)
    (match peek () with
    | Some '0' -> (
        advance ();
        match peek () with
        | Some '0' .. '9' -> parse_fail !pos "leading zero"
        | _ -> ())
    | _ -> digits ());
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_fail !pos "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> parse_fail !pos "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> parse_fail !pos "expected ',' or ']'"
          in
          List (elems [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> parse_fail !pos (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then parse_fail !pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" p msg)
  | exception Failure msg -> Error ("JSON parse error: " ^ msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int n -> Ok n
  | v -> Error ("expected int, got " ^ to_string v)

let to_str = function
  | String s -> Ok s
  | v -> Error ("expected string, got " ^ to_string v)

let of_table ?label table =
  let module T = Ss_prelude.Table in
  let headers = T.headers table in
  let cell = function T.S s -> String s | T.I i -> Int i in
  let row cells =
    (* Shorter rows are padded with empty cells and longer rows extend
       the width, mirroring the text renderer. *)
    let ncols = max (List.length headers) (List.length cells) in
    let key i =
      match List.nth_opt headers i with
      | Some h -> h
      | None -> Printf.sprintf "col%d" i
    in
    Obj
      (List.init ncols (fun i ->
           ( key i,
             match List.nth_opt cells i with
             | Some c -> cell c
             | None -> String "" )))
  in
  Obj
    ((match label with Some l -> [ ("table", String l) ] | None -> [])
    @ [
        ("headers", List (List.map (fun h -> String h) headers));
        ("rows", List (List.map row (T.rows table)));
      ])
