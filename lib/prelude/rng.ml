(* The splitmix64 state lives unboxed in 8 bytes, read and written
   through the native-endian 64-bit primitives.  With [mix64] inlined,
   ocamlopt keeps the whole draw in registers: advancing the state
   allocates nothing, and only [bits64] boxes its result. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let g = Bytes.create 8 in
  set64 g 0 s;
  g

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] next g =
  let s = Int64.add (get64 g 0) golden_gamma in
  set64 g 0 s;
  mix64 s

let bits64 g = next g

let split g = of_state (mix64 (next g))

let split_at ~seed ~index =
  if index < 0 then invalid_arg "Rng.split_at: index must be >= 0";
  (* O(1) indexed derivation: jump the splitmix64 state [index + 1]
     gammas past the seed point and re-mix twice.  Advancing the base
     generator (create/bits64/split) never lands on these states, and
     distinct indices differ by whole gammas, so streams are mutually
     decorrelated and each (seed, index) pair names one reproducible
     stream — the per-task RNG contract of the parallel campaign
     layer. *)
  let base = mix64 (Int64.of_int seed) in
  let z = Int64.add base (Int64.mul golden_gamma (Int64.of_int (index + 1))) in
  of_state (mix64 (mix64 z))

let split_per g l =
  (* Splits happen in list order on the caller's domain, so pairing is
     deterministic no matter where the returned generators are later
     consumed. *)
  List.rev
    (List.fold_left (fun acc x -> (x, split g) :: acc) [] l)

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the top bits to avoid modulo bias.  A
     loop over unescaping refs, so every int64 stays unboxed. *)
  let bound64 = Int64.of_int bound in
  let v = ref 0L in
  let rejected = ref true in
  while !rejected do
    let r = Int64.shift_right_logical (next g) 1 in
    v := Int64.rem r bound64;
    rejected := Int64.sub (Int64.sub r !v) (Int64.sub bound64 1L) < 0L
  done;
  Int64.to_int !v

let int_in g lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int g (hi - lo + 1)

let bool g = Int64.logand (next g) 1L = 1L

let[@inline] unit_float g =
  Int64.to_float (Int64.shift_right_logical (next g) 11)
  /. 9007199254740992.0 (* 2^53 *)

let float g x = x *. unit_float g

(* [unit_float g] is exactly [float g 1.0], without boxing the float. *)
let chance g p =
  if p >= 1.0 then true else if p <= 0.0 then false else unit_float g < p

let pick g a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int g (Array.length a))

let pick_list g l =
  (* Array-backed: one [int] draw (same stream as the historical
     [List.nth] version) followed by an O(1) index instead of a second
     O(length) list traversal. *)
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> pick g (Array.of_list l)

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle g a;
  a

let subset g ~p l = List.filter (fun _ -> chance g p) l

let nonempty_subset g ~p l =
  match l with
  | [] -> invalid_arg "Rng.nonempty_subset: empty list"
  | _ -> (
      match subset g ~p l with [] -> [ pick_list g l ] | s -> s)
