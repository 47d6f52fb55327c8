(* [bufs.(len)] is the buffer of length [len], [[||]] until first
   requested; the table grows to the largest length asked for. *)
type 'a t = { mutable bufs : 'a array array }

let create () = { bufs = [||] }

let get t len fill =
  if len >= Array.length t.bufs then begin
    let grown = Array.make (len + 1) [||] in
    Array.blit t.bufs 0 grown 0 (Array.length t.bufs);
    t.bufs <- grown
  end;
  let b = t.bufs.(len) in
  if Array.length b = len then b
  else begin
    let b = Array.make len fill in
    t.bufs.(len) <- b;
    b
  end
