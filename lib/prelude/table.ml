type cell = S of string | I of int
type t = { headers : string list; mutable rev_rows : cell list list }

let create headers = { headers; rev_rows = [] }
let add t cells = t.rev_rows <- cells :: t.rev_rows
let headers t = t.headers
let rows t = List.rev t.rev_rows
let cell_text = function S s -> s | I i -> string_of_int i

let widths t =
  let all = t.headers :: List.rev_map (List.map cell_text) t.rev_rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let w = Array.make ncols 0 in
  let feed row =
    List.iteri (fun i c -> w.(i) <- max w.(i) (String.length c)) row
  in
  List.iter feed all;
  w

let pad s n = s ^ String.make (max 0 (n - String.length s)) ' '

let render ppf t =
  let w = widths t in
  let line row =
    let cells =
      List.mapi (fun i c -> pad c w.(i)) row
      @ List.init
          (Array.length w - List.length row)
          (fun j -> pad "" w.(List.length row + j))
    in
    String.concat "  " cells
  in
  Format.fprintf ppf "%s@." (line t.headers);
  let rule =
    String.concat "  " (Array.to_list (Array.map (fun n -> String.make n '-') w))
  in
  Format.fprintf ppf "%s@." rule;
  List.iter
    (fun r -> Format.fprintf ppf "%s@." (line (List.map cell_text r)))
    (rows t)

let print t =
  render Format.std_formatter t;
  Format.pp_print_newline Format.std_formatter ()
