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

(* Number of set bits of a word, in constant time (SWAR): pairwise,
   then nibble, then byte sums, and one multiply gathers the byte sums
   into the top byte.  The 64-bit masks wrap to their low 63 bits, and
   the top byte keeps 7 bits — enough for a count of at most 63. *)
let[@inline] popcount w =
  let w = w - ((w lsr 1) land 0x5555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (w * 0x0101_0101_0101_0101) lsr 56

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

(* Index of the single set bit of [b]: the number of bits below it,
   branch-free.  [lsr] in [popcount] is a logical shift, so the sign
   bit of a 63-bit word — [min_int], bit 62 — is found like any
   other ([min_int - 1 = max_int], 62 bits). *)
let[@inline] bit_index b = popcount (b - 1)

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

(* Index of the highest set bit of a nonzero word: smear it into
   every lower bit, then count. *)
let top_index w =
  let w = w lor (w lsr 1) in
  let w = w lor (w lsr 2) in
  let w = w lor (w lsr 4) in
  let w = w lor (w lsr 8) in
  let w = w lor (w lsr 16) in
  let w = w lor (w lsr 32) in
  popcount w - 1

(* Skip whole words by their popcount, then clear the [k] lowest
   members of the word that holds the answer (at most 62 turns). *)
let nth t k =
  if k < 0 || k >= t.count then invalid_arg "Nodeset.nth: index out of range";
  let tw = t.words in
  let w = ref 0 and k = ref k in
  let c = ref (popcount tw.(0)) in
  while !k >= !c do
    k := !k - !c;
    incr w;
    c := popcount tw.(!w)
  done;
  let bits = ref tw.(!w) in
  for _ = 1 to !k do
    bits := !bits land (!bits - 1)
  done;
  (!w * word_bits) + bit_index (!bits land - !bits)

let min_elt t =
  let tw = t.words in
  let rec go w =
    if w >= Array.length tw then raise Not_found
    else if tw.(w) <> 0 then (w * word_bits) + bit_index (tw.(w) land - tw.(w))
    else go (w + 1)
  in
  go 0

let max_elt t =
  let tw = t.words in
  let rec go w =
    if w < 0 then raise Not_found
    else if tw.(w) <> 0 then (w * word_bits) + top_index tw.(w)
    else go (w - 1)
  in
  go (Array.length tw - 1)

(* Least member above [p]: the rest of [p + 1]'s word, masked below
   it, then whole words. *)
let succ t p =
  let tw = t.words in
  let rec go w bits =
    if bits <> 0 then (w * word_bits) + bit_index (bits land - bits)
    else if w + 1 >= Array.length tw then raise Not_found
    else go (w + 1) tw.(w + 1)
  in
  if p >= (Array.length tw * word_bits) - 1 then raise Not_found
  else
    let q = max 0 (p + 1) in
    go (q / word_bits) (tw.(q / word_bits) land (-1 lsl (q mod word_bits)))

(* Built from the top down, so the list comes out in increasing order
   without a reversal. *)
let elements t =
  let acc = ref [] in
  let tw = t.words in
  for w = Array.length tw - 1 downto 0 do
    let bits = ref tw.(w) in
    let base = w * word_bits in
    while !bits <> 0 do
      let i = top_index !bits in
      acc := (base + i) :: !acc;
      bits := !bits lxor (1 lsl i)
    done
  done;
  !acc

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
