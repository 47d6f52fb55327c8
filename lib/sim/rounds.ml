type t = { pending : Nodeset.t; mutable completed : int }

(* [enabled] is typically the scheduler's own (mutable) set, so the
   tracker keeps a private copy and refreshes it by [assign] — both
   allocation-free in steady state. *)
let create_set ~enabled = { pending = Nodeset.copy enabled; completed = 0 }
let create ~enabled = create_set ~enabled:(Nodeset.of_list enabled)

let note_step_set t ~moved ~count ~enabled_after =
  if not (Nodeset.is_empty t.pending) then begin
    (* A pending node is discharged by moving or by neutralization
       (no longer enabled): drop the movers, keep the still-enabled. *)
    for k = 0 to count - 1 do
      Nodeset.remove t.pending moved.(k)
    done;
    Nodeset.inter t.pending ~src:enabled_after;
    if Nodeset.is_empty t.pending then begin
      t.completed <- t.completed + 1;
      Nodeset.assign t.pending ~src:enabled_after
    end
  end

let note_step t ~moved ~enabled_after =
  let moved = Array.of_list moved in
  note_step_set t ~moved ~count:(Array.length moved)
    ~enabled_after:(Nodeset.of_list enabled_after)

let completed t = t.completed
let pending t = Nodeset.elements t.pending
