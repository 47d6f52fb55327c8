(* Domains are numbered densely in the order they first ask any table
   for their instance; [slots.(i)] is domain [i]'s.  The number sits in
   one process-wide DLS slot: one word per domain, not per table. *)
let next_index = Atomic.make 0
let index = Domain.DLS.new_key (fun () -> Atomic.fetch_and_add next_index 1)

type 'a t = { make : unit -> 'a; slots : 'a option array Atomic.t }

let create make = { make; slots = Atomic.make [||] }

let rec get t =
  let i = Domain.DLS.get index in
  let slots = Atomic.get t.slots in
  if i < Array.length slots then
    match Array.unsafe_get slots i with Some v -> v | None -> install t i slots
  else install t i slots

(* Publish a table holding this domain's new instance; if another
   domain published first, start over on its table. *)
and install t i slots =
  let v = t.make () in
  let grown = Array.make (max (i + 1) (Array.length slots)) None in
  Array.blit slots 0 grown 0 (Array.length slots);
  grown.(i) <- Some v;
  if Atomic.compare_and_set t.slots slots grown then v else get t
