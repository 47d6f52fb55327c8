(* Property tests for the dense node bitset: iteration, elements and
   the order queries ([nth], [succ], [min_elt], [max_elt]) against a
   sorted-unique reference list, the word popcount against a bit-by-bit
   count, and the maintained cardinality across every mutating
   operation (including the raw sharded flips repaired by [bump]).  Ids are drawn with extra weight
   on word boundaries so the top bit of a word — bit 62, the sign bit
   of a 63-bit OCaml int — is always exercised. *)

module Nodeset = Ss_sim.Nodeset

let check = Alcotest.(check bool)
let ints = Alcotest.(list int)

(* Ids stay below [capacity], so the raw flips (which never grow the
   word array) are legal on sets created with it. *)
let capacity = 320
let w = Nodeset.word_bits

let boundary_ids =
  [ 0; 1; w - 2; w - 1; w; w + 1; (2 * w) - 1; 2 * w; (3 * w) - 1; 3 * w; capacity - 1 ]

let gen_id =
  QCheck.Gen.(
    frequency [ (1, oneofl boundary_ids); (2, int_range 0 (capacity - 1)) ])

let arb_ids =
  QCheck.make ~print:QCheck.Print.(list int) QCheck.Gen.(list_size (int_range 0 60) gen_id)

let reference ids = List.sort_uniq compare ids

let contents s =
  let via_iter = ref [] in
  Nodeset.iter (fun p -> via_iter := p :: !via_iter) s;
  ( List.rev !via_iter,
    List.init (Nodeset.count s) (Nodeset.nth s),
    Nodeset.elements s )

(* Every observation of [s] agrees with the reference member list. *)
let agrees s expected =
  let via_iter, via_nth, via_elements = contents s in
  via_iter = expected && via_nth = expected && via_elements = expected
  && Nodeset.count s = List.length expected
  && Nodeset.is_empty s = (expected = [])
  && List.for_all
       (fun p -> Nodeset.mem s p = List.mem p expected)
       (List.init (capacity + w) Fun.id)

let prop_iteration =
  QCheck.Test.make ~count:500 ~name:"iter/nth/elements ≡ sorted-unique reference"
    arb_ids (fun ids ->
      let expected = reference ids in
      agrees (Nodeset.of_list ids) expected
      &&
      let s = Nodeset.create ~capacity () in
      List.iter (Nodeset.add s) ids;
      agrees s expected)

let raises_not_found f =
  match f () with _ -> false | exception Not_found -> true

(* [nth] out of range, [min_elt]/[max_elt] on the empty set, and
   [succ] past the last member (probed from -1 to beyond the capacity,
   and at both ends of the int range) all agree with the reference
   list. *)
let prop_order =
  QCheck.Test.make ~count:500
    ~name:"nth/succ/min_elt/max_elt ≡ sorted-list reference" arb_ids
    (fun ids ->
      let expected = reference ids in
      let s = Nodeset.of_list ids in
      let k = List.length expected in
      List.init k (Nodeset.nth s) = expected
      && List.for_all
           (fun i ->
             match Nodeset.nth s i with
             | _ -> false
             | exception Invalid_argument _ -> true)
           [ -1; k ]
      && (match expected with
         | [] ->
             raises_not_found (fun () -> Nodeset.min_elt s)
             && raises_not_found (fun () -> Nodeset.max_elt s)
         | lo :: _ ->
             Nodeset.min_elt s = lo
             && Nodeset.max_elt s = List.nth expected (k - 1))
      && List.for_all
           (fun p ->
             match List.find_opt (fun q -> q > p) expected with
             | Some q -> Nodeset.succ s p = q
             | None -> raises_not_found (fun () -> Nodeset.succ s p))
           (max_int :: min_int :: List.init (capacity + w + 2) (fun i -> i - 1)))

(* The bit-by-bit count the constant-time popcount replaces. *)
let popcount_ref x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let prop_popcount =
  let words =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun a b -> a lxor (b lsl 31)) (int_bound max_int) (int_bound max_int));
          (1, oneofl [ 0; -1; min_int; max_int; 1; min_int lor 1 ]);
          (1, map (fun i -> 1 lsl i) (int_range 0 (w - 1)));
        ])
  in
  QCheck.Test.make ~count:2000 ~name:"popcount ≡ bit-by-bit count"
    (QCheck.make ~print:string_of_int words)
    (fun x -> Nodeset.popcount x = popcount_ref x)

(* One step of the operation model: [a] and [b] are the sets under
   test, [ra]/[rb] their sorted-unique reference lists. *)
type op =
  | Add of int
  | Remove of int
  | Add_b of int
  | Remove_b of int
  | Inter
  | Assign
  | Copy
  | Clear
  | Raw of (bool * int) list  (** raw flips (add?, id) then one [bump] *)

let pp_op = function
  | Add p -> Printf.sprintf "add %d" p
  | Remove p -> Printf.sprintf "remove %d" p
  | Add_b p -> Printf.sprintf "add_b %d" p
  | Remove_b p -> Printf.sprintf "remove_b %d" p
  | Inter -> "inter"
  | Assign -> "assign"
  | Copy -> "copy"
  | Clear -> "clear"
  | Raw flips ->
      "raw ["
      ^ String.concat ";"
          (List.map (fun (a, p) -> Printf.sprintf "%s%d" (if a then "+" else "-") p) flips)
      ^ "]"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun p -> Add p) gen_id);
        (3, map (fun p -> Remove p) gen_id);
        (4, map (fun p -> Add_b p) gen_id);
        (2, map (fun p -> Remove_b p) gen_id);
        (1, return Inter);
        (1, return Assign);
        (1, return Copy);
        (1, return Clear);
        (3, map (fun l -> Raw l) (list_size (int_range 1 8) (pair bool gen_id)));
      ])

let arb_ops =
  QCheck.make ~print:QCheck.Print.(list pp_op) QCheck.Gen.(list_size (int_range 1 80) gen_op)

let insert p l = reference (p :: l)
let delete p l = List.filter (( <> ) p) l

let prop_count =
  QCheck.Test.make ~count:500
    ~name:"count exact across add/remove/inter/assign/copy/raw+bump" arb_ops
    (fun ops ->
      let a = ref (Nodeset.create ~capacity ()) and ra = ref [] in
      let b = Nodeset.create ~capacity () and rb = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Add p ->
              Nodeset.add !a p;
              ra := insert p !ra
          | Remove p ->
              Nodeset.remove !a p;
              ra := delete p !ra
          | Add_b p ->
              Nodeset.add b p;
              rb := insert p !rb
          | Remove_b p ->
              Nodeset.remove b p;
              rb := delete p !rb
          | Inter ->
              Nodeset.inter !a ~src:b;
              ra := List.filter (fun p -> List.mem p !rb) !ra
          | Assign ->
              Nodeset.assign !a ~src:b;
              ra := !rb
          | Copy ->
              (* A copy is independent of its source: later ops on
                 either side are checked against separate references. *)
              a := Nodeset.copy b;
              ra := !rb
          | Clear ->
              Nodeset.clear !a;
              ra := []
          | Raw flips ->
              let delta =
                List.fold_left
                  (fun d (add, p) ->
                    if add then begin
                      let changed = Nodeset.unsafe_add !a p in
                      ra := insert p !ra;
                      if changed then d + 1 else d
                    end
                    else begin
                      let changed = Nodeset.unsafe_remove !a p in
                      ra := delete p !ra;
                      if changed then d - 1 else d
                    end)
                  0 flips
              in
              Nodeset.bump !a delta);
          agrees !a !ra && agrees b !rb)
        ops)

(* ------------------------------------------------------------------ *)
(* Word boundaries                                                      *)
(* ------------------------------------------------------------------ *)

let test_every_bit_of_a_word () =
  (* A full word, including its sign bit, then each bit alone. *)
  let all = List.init w Fun.id in
  Alcotest.check ints "full word" all (Nodeset.elements (Nodeset.of_list all));
  List.iter
    (fun p ->
      let ps = [ p; p + w; p + (2 * w) ] in
      Alcotest.check ints
        (Printf.sprintf "bit %d in three words" p)
        ps
        (Nodeset.elements (Nodeset.of_list ps)))
    all

let test_sign_bit () =
  let s = Nodeset.of_list [ w - 1; (2 * w) - 1 ] in
  check "bit 62 member" true (Nodeset.mem s (w - 1));
  Alcotest.check ints "bit 62 of two words" [ w - 1; (2 * w) - 1 ]
    (Nodeset.elements s);
  Alcotest.(check (list int)) "nth order" [ w - 1; (2 * w) - 1 ]
    [ Nodeset.nth s 0; Nodeset.nth s 1 ];
  Alcotest.(check int) "max_elt" ((2 * w) - 1) (Nodeset.max_elt s);
  Alcotest.(check int) "succ across words" ((2 * w) - 1) (Nodeset.succ s (w - 1));
  Alcotest.(check int) "popcount of the sign bit" 1 (Nodeset.popcount min_int);
  Nodeset.remove s (w - 1);
  Alcotest.check ints "after removing bit 62" [ (2 * w) - 1 ] (Nodeset.elements s)

let test_negative_rejected () =
  check "negative add raises" true
    (try
       Nodeset.add (Nodeset.create ()) (-1);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "nodeset"
    [
      ( "boundaries",
        [
          Alcotest.test_case "every bit of a word" `Quick test_every_bit_of_a_word;
          Alcotest.test_case "sign bit" `Quick test_sign_bit;
          Alcotest.test_case "negative id rejected" `Quick test_negative_rejected;
        ] );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [ prop_iteration; prop_count; prop_order; prop_popcount ] );
    ]
