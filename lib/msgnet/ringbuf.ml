(* Circular buffers of variable-length int records, one per link — the
   flat channel storage behind the indexed message-network loop.

   All links share one int slab with a fixed stride: three header
   words, then a 16-word circular data region holding records framed
   as [length; payload...].  A delivery on a randomly picked link
   therefore touches one stretch of one block (usually one or two
   cache lines), with no pointer to chase and no per-link object for
   the GC to mark.  A link whose records outgrow its 16 words moves
   into an overflow block of the same layout (header, then a
   power-of-two data region that doubles) and comes back inline once
   it drains; the overflow block is kept for the link's next burst.
   The payload words carry the caller's own encoding; this module
   only frames them FIFO. *)

(* Header word offsets; the data region starts at [base].  [head] is
   the data index of the first queued word, or -1 in the slab when the
   link lives in its overflow block. *)
let head = 0
let used = 1 (* queued words, record headers included *)
let count = 2 (* queued records *)
let base = 3

(* 16 inline words: a proof record (5 words with its length) plus a
   D_ru record (4) fit, and a slot stays within a few cache lines.  A
   run holds one slot per directed link (2m of them), most of which
   hold at most a record or two. *)
let inline_capacity = 16
let stride = base + inline_capacity

type t = {
  slab : int array;  (* [links * stride] words *)
  overflow : int array array;  (* per link; [||] until its first overflow *)
}

let create links =
  if links < 0 then invalid_arg "Ringbuf.create";
  { slab = Array.make (links * stride) 0; overflow = Array.make links [||] }

let links t = Array.length t.overflow
let inline t off = t.slab.(off + head) >= 0

let records t l =
  let off = l * stride in
  if inline t off then t.slab.(off + count) else t.overflow.(l).(count)

let is_empty t l = records t l = 0

let words t l =
  let off = l * stride in
  if inline t off then t.slab.(off + used) else t.overflow.(l).(used)

let capacity_words t l =
  if inline t (l * stride) then inline_capacity
  else Array.length t.overflow.(l) - base

(* Copy the [u] queued words of a circular region ([src] at [off],
   capacity [cap], first word at [h]) to the start of [dst]'s data
   region, unrolled. *)
let unroll src off cap h u dst =
  let tail_len = min u (cap - h) in
  Array.blit src (off + base + h) dst base tail_len;
  Array.blit src (off + base) dst (base + tail_len) (u - tail_len)

(* A fresh overflow block for link [l] holding its queued words and
   room for [needed] more: the kept block when it is large enough,
   else one of doubled capacity.  Returns the block. *)
let spill t l src off cap needed =
  let h = src.(off + head) and u = src.(off + used) in
  let kept = t.overflow.(l) in
  let dst =
    if Array.length kept - base >= u + needed then kept
    else begin
      let cap' = ref (2 * cap) in
      while !cap' < u + needed do
        cap' := 2 * !cap'
      done;
      Array.make (base + !cap') 0
    end
  in
  unroll src off cap h u dst;
  dst.(head) <- 0;
  dst.(used) <- u;
  dst.(count) <- src.(off + count);
  t.overflow.(l) <- dst;
  dst

(* Append a record to the region at [off] of [r] (capacity [cap]),
   which has room for it. *)
let write r off cap src len =
  let mask = cap - 1 in
  let w = r.(off + head) + r.(off + used) in
  r.(off + base + (w land mask)) <- len;
  for i = 0 to len - 1 do
    r.(off + base + ((w + 1 + i) land mask)) <- Array.unsafe_get src i
  done;
  r.(off + used) <- r.(off + used) + len + 1;
  r.(off + count) <- r.(off + count) + 1

let push t l src len =
  if len < 0 || len > Array.length src then invalid_arg "Ringbuf.push";
  let off = l * stride and s = t.slab in
  if inline t off && s.(off + used) + len + 1 <= inline_capacity then
    write s off inline_capacity src len
  else begin
    let r =
      if inline t off then begin
        let r = spill t l s off inline_capacity (len + 1) in
        s.(off + head) <- -1;
        r
      end
      else
        let r = t.overflow.(l) in
        let cap = Array.length r - base in
        if r.(used) + len + 1 <= cap then r else spill t l r 0 cap (len + 1)
    in
    write r 0 (Array.length r - base) src len
  end

let read r off cap dst =
  if r.(off + count) = 0 then invalid_arg "Ringbuf.peek: empty";
  let mask = cap - 1 in
  let h = r.(off + head) in
  let len = r.(off + base + h) in
  for i = 0 to len - 1 do
    dst.(i) <- r.(off + base + ((h + 1 + i) land mask))
  done;
  len

let peek t l dst =
  let off = l * stride in
  if inline t off then read t.slab off inline_capacity dst
  else
    let r = t.overflow.(l) in
    read r 0 (Array.length r - base) dst

let dequeue r off cap len =
  r.(off + head) <- (r.(off + head) + len + 1) land (cap - 1);
  r.(off + used) <- r.(off + used) - len - 1;
  r.(off + count) <- r.(off + count) - 1

let pop t l dst =
  let off = l * stride in
  let s = t.slab in
  if inline t off then begin
    let len = read s off inline_capacity dst in
    dequeue s off inline_capacity len;
    len
  end
  else begin
    let r = t.overflow.(l) in
    let cap = Array.length r - base in
    let len = read r 0 cap dst in
    dequeue r 0 cap len;
    (* Drained: back to the inline slot; the block stays for reuse. *)
    if r.(count) = 0 then begin
      s.(off + head) <- 0;
      s.(off + used) <- 0;
      s.(off + count) <- 0
    end;
    len
  end
