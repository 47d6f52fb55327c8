module Rng = Ss_prelude.Rng

type t = {
  daemon_name : string;
  select : step:int -> enabled:Nodeset.t -> int list;
}

let of_fun daemon_name select = { daemon_name; select }

let synchronous =
  of_fun "synchronous" (fun ~step:_ ~enabled -> Nodeset.elements enabled)

(* One uniform draw of an index into the members in increasing order:
   the draw [Rng.pick] makes on the sorted enabled array, so seeds keep
   their streams. *)
let pick rng enabled = Nodeset.nth enabled (Rng.int rng (Nodeset.count enabled))

let central_random rng =
  of_fun "central-random" (fun ~step:_ ~enabled -> [ pick rng enabled ])

let central_min =
  of_fun "central-min" (fun ~step:_ ~enabled ->
      if Nodeset.is_empty enabled then [] else [ Nodeset.min_elt enabled ])

let central_max =
  of_fun "central-max" (fun ~step:_ ~enabled ->
      if Nodeset.is_empty enabled then [] else [ Nodeset.max_elt enabled ])

(* Same draw sequence as [Rng.nonempty_subset] on the list: one
   [chance] per enabled node in increasing order, then one uniform
   pick when the sample came up empty. *)
let distributed_random rng ~p =
  of_fun
    (Printf.sprintf "distributed-random(p=%.2f)" p)
    (fun ~step:_ ~enabled ->
      let acc = ref [] in
      Nodeset.iter (fun q -> if Rng.chance rng p then acc := q :: !acc) enabled;
      match !acc with [] -> [ pick rng enabled ] | l -> List.rev l)

let round_robin () =
  let cursor = ref (-1) in
  of_fun "round-robin" (fun ~step:_ ~enabled ->
      let chosen =
        match Nodeset.succ enabled !cursor with
        | p -> p
        | exception Not_found -> Nodeset.min_elt enabled
      in
      cursor := chosen;
      [ chosen ])

let scripted ?(fallback = synchronous) moves =
  let remaining = ref moves in
  of_fun "scripted" (fun ~step ~enabled ->
      match !remaining with
      | [] -> fallback.select ~step ~enabled
      | sel :: rest ->
          remaining := rest;
          sel)
