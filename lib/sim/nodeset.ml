(* Dense bitset of node identifiers with a maintained cardinality.

   The scheduler and the round tracker churn through membership
   updates on every step; the historical [Set.Make (Int)] allocated a
   balanced-tree path per add/remove.  This representation is a flat
   word array plus a count: add/remove/mem are O(1) and allocation
   free, iteration is in increasing order (matching
   {!Config.enabled_nodes}), and the sharded scheduler can hand each
   worker a disjoint word range (see [unsafe_add]/[unsafe_remove]). *)

type t = { mutable words : int array; mutable count : int }

let word_bits = Sys.int_size (* 63 on 64-bit: every bit of a word *)
let nwords capacity = (capacity + word_bits - 1) / word_bits

let create ?(capacity = 0) () =
  { words = Array.make (max 1 (nwords capacity)) 0; count = 0 }

let count t = t.count
let is_empty t = t.count = 0

let grow t p =
  let need = (p / word_bits) + 1 in
  let cur = Array.length t.words in
  if need > cur then begin
    let words = Array.make (max need (2 * cur)) 0 in
    Array.blit t.words 0 words 0 cur;
    t.words <- words
  end

let mem t p =
  let w = p / word_bits in
  w < Array.length t.words
  && t.words.(w) land (1 lsl (p mod word_bits)) <> 0

(* Raw single-word membership flips: they do NOT maintain [count] and
   do NOT grow the array.  A sharded scheduler update lets each worker
   flip bits only inside its own word range and repair the count with
   one [bump] per shard at the deterministic merge (DESIGN.md §12). *)
let unsafe_add t p =
  let w = p / word_bits and b = 1 lsl (p mod word_bits) in
  let old = t.words.(w) in
  if old land b = 0 then begin
    t.words.(w) <- old lor b;
    true
  end
  else false

let unsafe_remove t p =
  let w = p / word_bits and b = 1 lsl (p mod word_bits) in
  let old = t.words.(w) in
  if old land b <> 0 then begin
    t.words.(w) <- old land lnot b;
    true
  end
  else false

let bump t delta = t.count <- t.count + delta

let add t p =
  if p < 0 then invalid_arg "Nodeset.add: negative node";
  grow t p;
  if unsafe_add t p then t.count <- t.count + 1

let remove t p =
  if p >= 0 && p / word_bits < Array.length t.words then
    if unsafe_remove t p then t.count <- t.count - 1

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.count <- 0

let copy t = { words = Array.copy t.words; count = t.count }

let assign t ~src =
  let n = Array.length src.words in
  if Array.length t.words < n then t.words <- Array.make n 0
  else Array.fill t.words n (Array.length t.words - n) 0;
  Array.blit src.words 0 t.words 0 n;
  t.count <- src.count

let popcount w =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 w

(* [t := t ∩ src], recomputing the count from the surviving words.
   Words beyond [src]'s capacity are cleared ([src] has no member
   there). *)
let inter t ~src =
  let tw = t.words and sw = src.words in
  let shared = min (Array.length tw) (Array.length sw) in
  let count = ref 0 in
  for w = 0 to shared - 1 do
    let v = tw.(w) land sw.(w) in
    tw.(w) <- v;
    count := !count + popcount v
  done;
  Array.fill tw shared (Array.length tw - shared) 0;
  t.count <- !count

(* Index of the single set bit of [b], in constant time: a binary
   search over halves of 32/16/8/4/2/1 bits, six tests whatever the
   bit (shifting one bit at a time costs up to 62 steps per member).
   [lsr] is a logical shift, so the sign bit of a 63-bit word —
   [min_int], bit 62 — is found like any other. *)
let bit_index b =
  let i = ref 0 and b = ref b in
  if !b land 0xFFFF_FFFF = 0 then begin i := 32; b := !b lsr 32 end;
  if !b land 0xFFFF = 0 then begin i := !i + 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin i := !i + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin i := !i + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin i := !i + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then !i + 1 else !i

let iter f t =
  let tw = t.words in
  for w = 0 to Array.length tw - 1 do
    let bits = ref tw.(w) in
    let base = w * word_bits in
    while !bits <> 0 do
      f (base + bit_index (!bits land - !bits));
      bits := !bits land (!bits - 1)
    done
  done

(* Fill [out.(0 ..)] with the members in increasing order; returns how
   many were written.  [out] must have at least [count t] cells — the
   scheduler's reusable sorted-array cache refills in place. *)
let fill t out =
  let k = ref 0 in
  iter
    (fun p ->
      out.(!k) <- p;
      incr k)
    t;
  !k

let elements t =
  let acc = ref [] in
  iter (fun p -> acc := p :: !acc) t;
  List.rev !acc

let of_list l =
  let t = create () in
  List.iter (fun p -> add t p) l;
  t

let equal a b =
  a.count = b.count
  &&
  let aw = a.words and bw = b.words in
  let la = Array.length aw and lb = Array.length bw in
  let rec go w =
    w >= max la lb
    || (if w < la then aw.(w) else 0) = (if w < lb then bw.(w) else 0)
       && go (w + 1)
  in
  go 0
