(* Tests for Ss_prelude: the deterministic RNG, numeric helpers and the
   table renderer. *)

module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util
module Table = Ss_prelude.Table

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let da = List.init 32 (fun _ -> Rng.int a 1_000_000) in
  let db = List.init 32 (fun _ -> Rng.int b 1_000_000) in
  check "different seeds differ" true (da <> db)

let test_copy_independent () =
  let a = Rng.create 5 in
  let _ = Rng.int a 10 in
  let b = Rng.copy a in
  let xa = Rng.int a 1000 and xb = Rng.int b 1000 in
  check_int "copy continues the stream" xa xb;
  (* Advancing the copy does not affect the original. *)
  let _ = Rng.int b 1000 in
  let a2 = Rng.copy a in
  check_int "original unaffected" (Rng.int a 1000) (Rng.int a2 1000)

let test_split_differs () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let da = List.init 16 (fun _ -> Rng.int a 1_000_000) in
  let db = List.init 16 (fun _ -> Rng.int b 1_000_000) in
  check "split stream is distinct" true (da <> db)

let test_split_at_reproducible () =
  (* (seed, index) is a pure function naming one stream. *)
  let a = Rng.split_at ~seed:42 ~index:3
  and b = Rng.split_at ~seed:42 ~index:3 in
  for _ = 1 to 64 do
    check_int "same (seed,index), same stream" (Rng.int a 1_000_000)
      (Rng.int b 1_000_000)
  done;
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.split_at: index must be >= 0") (fun () ->
      ignore (Rng.split_at ~seed:1 ~index:(-1)))

let test_split_at_decorrelated () =
  let draws seed index =
    let g = Rng.split_at ~seed ~index in
    List.init 32 (fun _ -> Rng.int g 1_000_000)
  in
  (* Pairwise-distinct streams across adjacent indices... *)
  let streams = List.init 8 (fun i -> (i, draws 7 i)) in
  List.iter
    (fun (i, si) ->
      List.iter
        (fun (j, sj) -> if i < j then check "indices decorrelated" true (si <> sj))
        streams)
    streams;
  (* ...and across seeds; and no collision with the seed's own base
     stream (split_at states sit off the create/bits64 trajectory). *)
  check "seeds decorrelated" true (draws 7 0 <> draws 8 0);
  let base = Rng.create 7 in
  check "disjoint from base stream" true
    (List.init 32 (fun _ -> Rng.int base 1_000_000) <> draws 7 0)

(* Pinned draws: the exact historical splitmix64 streams.  Any change
   to create/bits64/int — including adding [split_at] — must leave the
   single-stream draws bit-for-bit identical, or every recorded table
   in the repo silently shifts. *)
let test_pinned_streams () =
  let g = Rng.create 123 in
  List.iter
    (fun expected -> check_int "create 123 stream" expected (Rng.int g 1_000_000))
    [ 595596; 298333; 913706; 397464 ];
  let g = Rng.create 2024 in
  List.iter
    (fun expected -> check_int "create 2024 stream" expected (Rng.int g 97))
    [ 12; 89; 71; 64 ];
  let check_i64 = Alcotest.(check int64) in
  let g = Rng.create 7 in
  List.iter
    (fun expected -> check_i64 "bits64 stream" expected (Rng.bits64 g))
    [ -8774268681488515761L; 5573481420429128725L; -1088427420777695408L ];
  let g = Rng.create 7 in
  let s = Rng.split g in
  check_i64 "split child" (-8329645779151318480L) (Rng.bits64 s);
  check_i64 "split advances the parent once" 5573481420429128725L (Rng.bits64 g);
  let s = Rng.split_at ~seed:42 ~index:3 in
  check_i64 "split_at first" (-9101881393870088490L) (Rng.bits64 s);
  check_i64 "split_at second" 835767281430137343L (Rng.bits64 s);
  let g = Rng.create 9 in
  ignore (Rng.bits64 g);
  let c = Rng.copy g in
  check_i64 "copy continues" 9098563821330842174L (Rng.bits64 c);
  check_i64 "original continues" 9098563821330842174L (Rng.bits64 g);
  let draws g f n = List.init n (fun _ -> f g) in
  Alcotest.(check (list bool))
    "bool stream"
    [ true; true; true; true; false; false; false; true ]
    (draws (Rng.create 11) Rng.bool 8);
  Alcotest.(check (list (float 0.)))
    "float stream"
    [ 0x1.7720f82d73776p-1; 0x1.6ed1214cc7397p-1; 0x1.b12c838896966p-2 ]
    (draws (Rng.create 12) (fun g -> Rng.float g 1.0) 3);
  Alcotest.(check (list bool))
    "chance stream"
    [ false; false; false; false; false; false; true; false ]
    (draws (Rng.create 13) (fun g -> Rng.chance g 0.3) 8);
  Alcotest.(check (list int))
    "int_in stream" [ 0; 3; -4; -3; -4; 0 ]
    (draws (Rng.create 14) (fun g -> Rng.int_in g (-5) 5) 6);
  let a = Array.init 8 Fun.id in
  Rng.shuffle (Rng.create 15) a;
  Alcotest.(check (array int)) "shuffle" [| 6; 4; 7; 2; 3; 1; 5; 0 |] a;
  (* Bounds past 2^61 exercise the rejection test near the top of the
     63-bit draw range. *)
  let g = Rng.create 16 in
  Alcotest.(check (list int))
    "int max_int stream"
    [ 3645404501289447747; 3666696503559829847; 3571222584647428336 ]
    (draws g (fun g -> Rng.int g max_int) 3);
  Alcotest.(check (list int))
    "int 2^61+12345 stream"
    [ 360151682654433995; 1649047870767490993; 1107540886123373426 ]
    (draws g (fun g -> Rng.int g ((1 lsl 61) + 12345)) 3)

(* Minor words allocated by [f ()], less the cost of measuring an
   empty thunk, so a zero-allocation [f] reads exactly 0. *)
let minor_words f =
  let cost g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  cost f -. cost ignore

(* Allocation tripwire: the generator's state is unboxed, so a bounded
   draw allocates nothing and [bits64] allocates only its boxed
   result (a 3-word custom block). *)
let test_rng_allocation () =
  let g = Rng.create 3 in
  let draws = 10_000 in
  let acc = ref 0 in
  let ints () =
    for _ = 1 to draws do
      acc := !acc + Rng.int g 1_000_003 + Rng.int g max_int
    done
  in
  Alcotest.(check (float 0.)) "Rng.int: 0 words" 0. (minor_words ints);
  let small () =
    for _ = 1 to draws do
      if Rng.bool g && Rng.chance g 0.5 then incr acc;
      acc := !acc + Rng.int_in g (-9) 9
    done
  in
  Alcotest.(check (float 0.)) "bool/chance/int_in: 0 words" 0. (minor_words small);
  let bits () =
    for _ = 1 to draws do
      if Rng.bits64 g = 0L then incr acc
    done
  in
  Alcotest.(check (float 0.))
    "Rng.bits64: only the boxed result" (float_of_int (3 * draws))
    (minor_words bits)

let test_split_per () =
  (* split_per pairs each element with a split drawn in list order —
     the same streams a left-to-right sequence of [Rng.split] yields. *)
  let a = Rng.create 11 and b = Rng.create 11 in
  let pairs = Rng.split_per a [ "x"; "y"; "z" ] in
  let expected =
    List.rev
      (List.fold_left
         (fun acc s -> (s, Rng.split b) :: acc)
         [] [ "x"; "y"; "z" ])
  in
  Alcotest.(check (list string))
    "keys in order" [ "x"; "y"; "z" ]
    (List.map fst pairs);
  List.iter2
    (fun (_, g1) (_, g2) ->
      check_int "stream matches sequential split" (Rng.int g1 1_000_000)
        (Rng.int g2 1_000_000))
    pairs expected

let test_int_bounds () =
  let g = Rng.create 17 in
  for _ = 1 to 1000 do
    let v = Rng.int g 7 in
    check "0 <= v < 7" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int g 0))

let test_int_in () =
  let g = Rng.create 18 in
  for _ = 1 to 500 do
    let v = Rng.int_in g (-3) 3 in
    check "in range" true (v >= -3 && v <= 3)
  done;
  check_int "degenerate range" 5 (Rng.int_in g 5 5);
  Alcotest.check_raises "hi < lo rejected" (Invalid_argument "Rng.int_in: hi < lo")
    (fun () -> ignore (Rng.int_in g 3 2))

let test_int_covers_range () =
  let g = Rng.create 19 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int g 5) <- true
  done;
  check "all residues hit" true (Array.for_all Fun.id seen)

let test_bool_mixes () =
  let g = Rng.create 20 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool g then incr trues
  done;
  check "roughly balanced" true (!trues > 350 && !trues < 650)

let test_float_range () =
  let g = Rng.create 21 in
  for _ = 1 to 500 do
    let x = Rng.float g 2.5 in
    check "in [0, 2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_chance_extremes () =
  let g = Rng.create 22 in
  check "p=1 always true" true (Rng.chance g 1.0);
  check "p=0 always false" false (Rng.chance g 0.0)

let test_pick () =
  let g = Rng.create 23 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    check "pick from array" true (Array.mem (Rng.pick g a) a)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick g [||]));
  Alcotest.check_raises "empty list"
    (Invalid_argument "Rng.pick_list: empty list") (fun () ->
      ignore (Rng.pick_list g []))

let test_shuffle_permutes () =
  let g = Rng.create 24 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 20 Fun.id) sorted

let test_permutation () =
  let g = Rng.create 25 in
  let p = Rng.permutation g 10 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 10 Fun.id) sorted

let test_subset () =
  let g = Rng.create 26 in
  let l = [ 1; 2; 3; 4; 5 ] in
  check "p=1 keeps all" true (Rng.subset g ~p:1.0 l = l);
  check "p=0 drops all" true (Rng.subset g ~p:0.0 l = []);
  let s = Rng.subset g ~p:0.5 l in
  check "subset preserves order" true
    (List.for_all (fun x -> List.mem x l) s && List.sort compare s = s)

let test_nonempty_subset () =
  let g = Rng.create 27 in
  for _ = 1 to 200 do
    let s = Rng.nonempty_subset g ~p:0.01 [ 1; 2; 3 ] in
    check "never empty" true (s <> [])
  done;
  Alcotest.check_raises "empty input"
    (Invalid_argument "Rng.nonempty_subset: empty list") (fun () ->
      ignore (Rng.nonempty_subset g ~p:0.5 []))

(* ------------------------------------------------------------------ *)
(* Util                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ceil_log2 () =
  List.iter
    (fun (n, expect) -> check_int (Printf.sprintf "ceil_log2 %d" n) expect (Util.ceil_log2 n))
    [ (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (8, 3); (9, 4); (1024, 10); (1025, 11);
      (1 lsl 61, 61); ((1 lsl 61) + 1, 62); (max_int, 62) ];
  Alcotest.check_raises "n=0 rejected" (Invalid_argument "Util.ceil_log2")
    (fun () -> ignore (Util.ceil_log2 0))

let test_bit_width () =
  List.iter
    (fun (n, expect) -> check_int (Printf.sprintf "bit_width %d" n) expect (Util.bit_width n))
    [ (0, 1); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4); (255, 8); (256, 9);
      ((1 lsl 61) - 1, 61); (1 lsl 61, 62); ((1 lsl 61) + 1, 62); (max_int, 62) ];
  Alcotest.check_raises "n<0 rejected" (Invalid_argument "Util.bit_width")
    (fun () -> ignore (Util.bit_width (-1)))

let test_log_star () =
  List.iter
    (fun (n, expect) -> check_int (Printf.sprintf "log* %d" n) expect (Util.log_star n))
    [ (0, 0); (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (16, 3); (17, 4); (65536, 4);
      (65537, 5); (1 lsl 61, 5); ((1 lsl 61) + 1, 5); (max_int, 5) ]

let test_list_helpers () =
  check_int "sum" 10 (Util.sum [ 1; 2; 3; 4 ]);
  check_int "sum empty" 0 (Util.sum []);
  check_int "max_of" 9 (Util.max_of [ 3; 9; 1 ]);
  check_int "min_of" 1 (Util.min_of [ 3; 9; 1 ]);
  Alcotest.check_raises "max_of empty" (Invalid_argument "Util.max_of: empty list")
    (fun () -> ignore (Util.max_of []));
  check "range" true (Util.range 4 = [ 0; 1; 2; 3 ]);
  check "range 0" true (Util.range 0 = [])

let test_array_equal () =
  check "equal" true (Util.array_equal Int.equal [| 1; 2 |] [| 1; 2 |]);
  check "length mismatch" false (Util.array_equal Int.equal [| 1 |] [| 1; 2 |]);
  check "content mismatch" false (Util.array_equal Int.equal [| 1; 3 |] [| 1; 2 |]);
  check "empty" true (Util.array_equal Int.equal [||] [||])

let test_fnv1a64 () =
  check "deterministic" true (Util.fnv1a64 "abc" = Util.fnv1a64 "abc");
  check "discriminates" true (Util.fnv1a64 "abc" <> Util.fnv1a64 "abd");
  check "empty vs nonempty" true (Util.fnv1a64 "" <> Util.fnv1a64 "x");
  (* The published FNV-1a-64 test vectors. *)
  List.iter
    (fun (s, h) -> check (Printf.sprintf "vector %S" s) true (Util.fnv1a64 s = h))
    [
      ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L);
    ];
  (* Allocation-free per byte: hashing 4 KiB allocates only the boxed
     result, where boxing the accumulator would cost ~12 words a byte. *)
  let s = String.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  let before = Gc.minor_words () in
  let h = Util.fnv1a64 s in
  let words = Gc.minor_words () -. before in
  check (Printf.sprintf "%.0f words to hash 4 KiB" words) true (words < 64.);
  check "hash of the long string is stable" true (h = Util.fnv1a64 s)

(* ------------------------------------------------------------------ *)
(* Table                                                                *)
(* ------------------------------------------------------------------ *)

let render t =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Table.render ppf t;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_int_row t "beta" [ 42 ];
  let s = render t in
  check "has header" true
    (String.length s > 0
    && String.sub s 0 4 = "name");
  check "has alpha row" true
    (String.split_on_char '\n' s |> List.exists (fun l ->
         String.length l >= 5 && String.sub l 0 5 = "alpha"));
  check "rows in insertion order" true
    (let lines = String.split_on_char '\n' s in
     match lines with
     | _header :: _rule :: r1 :: r2 :: _ ->
         String.sub r1 0 5 = "alpha" && String.sub r2 0 4 = "beta"
     | _ -> false)

let test_table_ragged () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  let s = render t in
  check "short rows padded" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:300 ~name:"Rng.int is uniform in range"
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let g = Rng.create seed in
        let v = Rng.int g bound in
        v >= 0 && v < bound);
    Test.make ~count:100 ~name:"permutation is bijective"
      (pair small_int (int_range 0 50))
      (fun (seed, n) ->
        let g = Rng.create seed in
        let p = Rng.permutation g n in
        let seen = Array.make n false in
        Array.iter (fun i -> seen.(i) <- true) p;
        Array.for_all Fun.id seen);
    Test.make ~count:300 ~name:"ceil_log2 is tight"
      (int_range 1 (1 lsl 20))
      (fun n ->
        let k = Util.ceil_log2 n in
        (1 lsl k) >= n && (k = 0 || 1 lsl (k - 1) < n));
    Test.make ~count:300 ~name:"bit_width is tight"
      (int_range 0 (1 lsl 20))
      (fun n ->
        let w = Util.bit_width n in
        n < (1 lsl w) && (w = 1 || n >= 1 lsl (w - 1)));
  ]

let () =
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split" `Quick test_split_differs;
          Alcotest.test_case "split_at reproducible" `Quick
            test_split_at_reproducible;
          Alcotest.test_case "split_at decorrelated" `Quick
            test_split_at_decorrelated;
          Alcotest.test_case "pinned streams" `Quick test_pinned_streams;
          Alcotest.test_case "split_per" `Quick test_split_per;
          Alcotest.test_case "allocation" `Quick test_rng_allocation;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "int covers range" `Quick test_int_covers_range;
          Alcotest.test_case "bool mixes" `Quick test_bool_mixes;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
          Alcotest.test_case "pick" `Quick test_pick;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "permutation" `Quick test_permutation;
          Alcotest.test_case "subset" `Quick test_subset;
          Alcotest.test_case "nonempty subset" `Quick test_nonempty_subset;
        ] );
      ( "util",
        [
          Alcotest.test_case "ceil_log2" `Quick test_ceil_log2;
          Alcotest.test_case "bit_width" `Quick test_bit_width;
          Alcotest.test_case "log_star" `Quick test_log_star;
          Alcotest.test_case "list helpers" `Quick test_list_helpers;
          Alcotest.test_case "array_equal" `Quick test_array_equal;
          Alcotest.test_case "fnv1a64" `Quick test_fnv1a64;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
