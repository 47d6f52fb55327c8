module Rng = Ss_prelude.Rng

type 'm wire = {
  words : int;
  encode : int array -> 'm -> int;
  decode : int array -> 'm;
}

type 'm t = {
  push : int -> 'm -> unit;
  pop : int -> 'm;
  peek : int -> 'm;
  rotate : int -> bool;
  pick : Rng.t -> int;
}

let push t = t.push
let pop t = t.pop
let peek t = t.peek
let rotate t = t.rotate
let pick t = t.pick

let rings wire ~src ~dst:_ =
  let nchan = Array.length src in
  let rings = Array.init nchan (fun _ -> Ringbuf.create ()) in
  let side = Array.make nchan None in
  let side_q id =
    match side.(id) with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        side.(id) <- Some q;
        q
  in
  let active = Chanset.create nchan in
  let scratch = Array.make wire.words 0 in
  (* The head record is in [scratch]; an empty one marks a boxed
     message at the head of the side queue. *)
  let head id len ~pop =
    if len > 0 then wire.decode scratch
    else if pop then Queue.pop (side_q id)
    else Queue.peek (side_q id)
  in
  {
    push =
      (fun id m ->
        let r = rings.(id) in
        if Ringbuf.is_empty r then Chanset.add active id;
        let len = wire.encode scratch m in
        Ringbuf.push r scratch len;
        if len = 0 then Queue.push m (side_q id));
    pop =
      (fun id ->
        let r = rings.(id) in
        let m = head id (Ringbuf.pop r scratch) ~pop:true in
        if Ringbuf.is_empty r then Chanset.remove active id;
        m);
    peek = (fun id -> head id (Ringbuf.peek rings.(id) scratch) ~pop:false);
    rotate =
      (fun id ->
        let r = rings.(id) in
        Ringbuf.records r >= 2
        && begin
             let len = Ringbuf.pop r scratch in
             Ringbuf.push r scratch len;
             (* A boxed payload rotates with its marker. *)
             if len = 0 then Queue.push (Queue.pop (side_q id)) (side_q id);
             true
           end);
    pick =
      (fun rng ->
        if Chanset.is_empty active then -1 else Chanset.pick active rng);
  }

let queues _wire ~src ~dst =
  let nchan = Array.length src in
  let qs = Array.init nchan (fun _ -> Queue.create ()) in
  let links = Hashtbl.create (2 * nchan) in
  for id = 0 to nchan - 1 do
    Hashtbl.replace links (src.(id), dst.(id)) id
  done;
  let q id = qs.(Hashtbl.find links (src.(id), dst.(id))) in
  {
    push = (fun id m -> Queue.push m (q id));
    pop = (fun id -> Queue.pop (q id));
    peek = (fun id -> Queue.peek (q id));
    rotate =
      (fun id ->
        let q = q id in
        Queue.length q >= 2
        && begin
             Queue.push (Queue.pop q) q;
             true
           end);
    pick =
      (fun rng ->
        match
          Hashtbl.fold
            (fun _ id acc -> if Queue.is_empty qs.(id) then acc else id :: acc)
            links []
        with
        | [] -> -1
        | pending -> Rng.pick_list rng pending);
  }
