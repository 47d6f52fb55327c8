(* Plain loops over unescaping refs: no closure, no allocation, and no
   doubling probe that could overflow past 2^61. *)
let bit_width n =
  if n < 0 then invalid_arg "Util.bit_width";
  let k = ref 1 and m = ref (n lsr 1) in
  while !m > 0 do
    incr k;
    m := !m lsr 1
  done;
  !k

(* The least k with 2^k >= n is the bit width of n - 1 (for n >= 2). *)
let ceil_log2 n =
  if n < 1 then invalid_arg "Util.ceil_log2";
  if n = 1 then 0 else bit_width (n - 1)

let log_star n =
  let k = ref 0 and m = ref n in
  while !m > 1 do
    incr k;
    m := ceil_log2 !m
  done;
  !k

let sum = List.fold_left ( + ) 0

let max_of = function
  | [] -> invalid_arg "Util.max_of: empty list"
  | x :: rest -> List.fold_left max x rest

let min_of = function
  | [] -> invalid_arg "Util.min_of: empty list"
  | x :: rest -> List.fold_left min x rest

let fold_min x a =
  let m = ref x in
  for k = 0 to Array.length a - 1 do
    let y = Array.unsafe_get a k in
    if y < !m then m := y
  done;
  !m

let fold_max x a =
  let m = ref x in
  for k = 0 to Array.length a - 1 do
    let y = Array.unsafe_get a k in
    if y > !m then m := y
  done;
  !m

let range n = List.init n (fun i -> i)

let array_for_all2 f a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (f a.(i) b.(i) && go (i + 1)) in
  go 0

let array_equal eq a b = array_for_all2 eq a b

(* A [for] loop over a local ref that nothing captures: ocamlopt keeps
   the accumulator unboxed, so hashing allocates only the result. *)
let fnv1a64 s =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001B3L
  done;
  !h
