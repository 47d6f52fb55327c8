type 's codec = {
  words : int;
  pack : int array -> int -> 's -> unit;
  unpack : int array -> int -> 's;
}

let int_codec =
  {
    words = 1;
    pack = (fun data off v -> data.(off) <- v);
    unpack = (fun data off -> data.(off));
  }

let map ~inj ~prj base =
  {
    words = base.words;
    pack = (fun data off v -> base.pack data off (inj v));
    unpack = (fun data off -> prj (base.unpack data off));
  }

let pair ca cb =
  {
    words = ca.words + cb.words;
    pack =
      (fun data off (a, b) ->
        ca.pack data off a;
        cb.pack data (off + ca.words) b);
    unpack =
      (fun data off -> (ca.unpack data off, cb.unpack data (off + ca.words)));
  }

(* Where a {!Trans_state} handle keeps its cells.  A boxed lineage
   owns one [Buffer]: a capacity-doubling array whose committed prefix
   is write-once.  A packed handle points at its arena's [Slab], the
   one block every handle on that arena shares. *)
type 's store =
  | Buffer of { mutable cells : 's array; mutable frontier : int }
  | Slab of 's arena

and 's arena = {
  codec : 's codec;
  a_n : int;
  a_cap : int;
  data : int array;  (* node p's cell slot i at ((p·cap)+i)·words *)
  committed : int array;  (* per node: committed cell count *)
  rep : int array;
      (* per node: current lineage id, minted by Trans_state from the
         same global counter as boxed buffer ids (0 = no handle yet) *)
  store : 's store;  (* [Slab] of this arena *)
}

let arena ~codec ~n ~cap =
  if n < 1 then invalid_arg "Cellpack.arena: n must be >= 1";
  if cap < 0 then invalid_arg "Cellpack.arena: cap must be >= 0";
  if codec.words < 1 then invalid_arg "Cellpack.arena: codec.words must be >= 1";
  let data = Array.make (max 1 (n * cap * codec.words)) 0 in
  let committed = Array.make n 0 and rep = Array.make n 0 in
  let rec a = { codec; a_n = n; a_cap = cap; data; committed; rep; store = Slab a } in
  a

let n a = a.a_n
let cap a = a.a_cap

let bytes a =
  (* Flat int-array payloads; 8 bytes per word on 64-bit. *)
  8 * (Array.length a.data + (2 * a.a_n) + 8)

let slot a node i = ((node * a.a_cap) + i) * a.codec.words
