module St = Ss_core.Trans_state
module Cellpack = Ss_core.Cellpack
module Util = Ss_prelude.Util

let canonical_bytes (st : _ St.t) =
  Marshal.to_string (St.snapshot st) [ Marshal.No_sharing ]

let codec_bytes (c : 's Cellpack.codec) (st : 's St.t) =
  let buf = Buffer.create 64 in
  let words = Array.make c.Cellpack.words 0 in
  let add s =
    c.Cellpack.pack words 0 s;
    Array.iter (fun w -> Buffer.add_int64_le buf (Int64.of_int w)) words
  in
  Buffer.add_char buf (match St.status st with St.C -> 'C' | St.E -> 'E');
  add (St.init st);
  St.fold_cells (fun () s -> add s) () st;
  Buffer.contents buf

(* The Marshal reference: one pre-image string per slot, memoized by
   stamp, hashed on every call. *)
type reference = { bytes : string array; bytes_stamp : int array }

(* The resumable codec fold.  Per slot [s], four adjacent words of
   [memo] at [4 * s]: the stamp and digest of the last state proved,
   and the lineage and height up to which the fold's prefix values
   [prefix.(s).(k)] (the fold over cells 1..k) are valid.  One
   strided table instead of four parallel arrays: a proof finds all
   four words next to each other.  [prefix.(s).(0)] is always
   [seed]; a prefix is created at its first use with [prefix_len]
   words (B + 1 under a finite bound, so a slot that stays within B
   never regrows it) and doubles past that. *)
type 's incremental = {
  codec : 's Cellpack.codec;
  words : int array;  (* pack scratch *)
  memo : int array;
  prefix : int array array;
  prefix_len : int;
}

let m_stamp = 0
let m_digest = 1
let m_lineage = 2
let m_valid = 3

type 's t = Reference of reference | Incremental of 's incremental

let reference ~slots =
  Reference { bytes = Array.make slots ""; bytes_stamp = Array.make slots (-1) }

(* A zeroed memo is blank: stamps and lineage ids count from 1. *)
let incremental codec ~slots ~bound =
  Incremental
    {
      codec;
      words = Array.make codec.Cellpack.words 0;
      memo = Array.make (4 * slots) 0;
      prefix = Array.make slots [||];
      prefix_len =
        (match bound with
        | Ss_core.Predicates.Finite b -> b + 1
        | Ss_core.Predicates.Infinite -> 1);
    }

(* One fold step per 63-bit word: xor in, multiply by an odd constant,
   fold the high half down.  Each step is a bijection of the
   accumulator for a fixed word and of the word for a fixed
   accumulator, so sequences differing in one word never collide. *)
let mix acc w =
  let h = (acc lxor w) * 0x2127599bf4325c37 in
  h lxor (h lsr 32)

let seed = 0x0bf29ce484222325

(* The fold over one cell's word image: [n] words of [data] from
   [off]. *)
let mix_words acc data off n =
  let acc = ref acc in
  for w = off to off + n - 1 do
    acc := mix !acc data.(w)
  done;
  !acc

let mix_state p acc s =
  p.codec.Cellpack.pack p.words 0 s;
  mix_words acc p.words 0 p.codec.Cellpack.words

(* [prefix.(s)] with room for index [h], keeping its [valid + 1]
   valid values. *)
let prefix_for p s h valid =
  let pre = p.prefix.(s) in
  if Array.length pre > h then pre
  else begin
    let len = max (max (h + 1) p.prefix_len) (2 * Array.length pre) in
    let grown = Array.make len seed in
    Array.blit pre 0 grown 0 (min (Array.length pre) (valid + 1));
    p.prefix.(s) <- grown;
    grown
  end

let digest_incremental p s st =
  let m = p.memo and at = 4 * s in
  let k = St.stamp st in
  if m.(at + m_stamp) = k then m.(at + m_digest)
  else begin
    (* Same lineage: cells 1..valid are physically the ones folded
       before (the committed prefix is write-once), so resume there. *)
    let r = St.rep_id st in
    if m.(at + m_lineage) <> r then begin
      m.(at + m_lineage) <- r;
      m.(at + m_valid) <- 0
    end;
    let valid = m.(at + m_valid) in
    let h = St.height st in
    let pre = prefix_for p s h valid in
    (* A state packed by this codec folds its cells straight from the
       slab: the words there are what [mix_state] would pack again. *)
    let slab = St.slab p.codec st and nw = p.codec.Cellpack.words in
    if Array.length slab > 0 then
      for i = valid + 1 to h do
        pre.(i) <- mix_words pre.(i - 1) slab (St.slab_offset st i) nw
      done
    else
      for i = valid + 1 to h do
        pre.(i) <- mix_state p pre.(i - 1) (St.cell st i)
      done;
    if h > valid then m.(at + m_valid) <- h;
    let status = match St.status st with St.C -> 0x43 | St.E -> 0x45 in
    let d = mix (mix_state p (mix pre.(h) h) (St.init st)) status in
    m.(at + m_stamp) <- k;
    m.(at + m_digest) <- d;
    d
  end

let digest_reference r s st =
  let k = St.stamp st in
  if r.bytes_stamp.(s) <> k then begin
    r.bytes.(s) <- canonical_bytes st;
    r.bytes_stamp.(s) <- k
  end;
  Util.fnv1a64 r.bytes.(s)

let digest t s st =
  match t with
  | Reference r -> digest_reference r s st
  | Incremental p -> Int64.of_int (digest_incremental p s st)
