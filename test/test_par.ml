(* Tests for Ss_par: the domain pool behind the parallel campaign
   layer — index-ordered merge, exception capture, pool reuse, nested
   degradation — and the end-to-end determinism contract ([-j 1] ≡
   [-j N] on a real campaign, including under cross-domain
   contention).  DESIGN.md §11. *)

module Pool = Ss_par.Pool
module Par = Ss_par.Par
module Rng = Ss_prelude.Rng
module Json = Ss_report.Json
module Run_report = Ss_report.Run_report

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

let test_map_matches_sequential () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 100 (fun i -> i) in
      let f x = (x * x) + 1 in
      Alcotest.(check (array int))
        "index-ordered merge" (Array.map f xs) (Pool.map pool f xs);
      Alcotest.(check (list string))
        "map_list preserves order"
        [ "0"; "1"; "2" ]
        (Pool.map_list pool string_of_int [ 0; 1; 2 ]))

let test_exception_propagation () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (* Several tasks raise; the lowest input index wins
         deterministically, regardless of which domain ran it. *)
      Alcotest.check_raises "lowest-index error re-raised" (Boom 2)
        (fun () ->
          ignore
            (Pool.map pool
               (fun i -> if i >= 2 then raise (Boom i) else i)
               (Array.init 16 Fun.id)));
      (* The raising call did not kill a worker: the pool still works. *)
      check_int "pool survives an exception" 16
        (Array.fold_left ( + ) 0
           (Pool.map pool (fun _ -> 1) (Array.make 16 ()))))

let test_pool_reuse () =
  Pool.with_pool ~jobs:3 (fun pool ->
      check_int "size" 3 (Pool.size pool);
      for round = 1 to 20 do
        Alcotest.(check (list int))
          "reused pool, fresh call"
          (List.map (fun i -> i * round) [ 1; 2; 3; 4; 5 ])
          (Pool.map_list pool (fun i -> i * round) [ 1; 2; 3; 4; 5 ])
      done);
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool (fun x -> x) [| 1; 2 |]));
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0))

let test_nested_map_degrades () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (* Tasks only return what they saw: Alcotest's checks are not
         domain-safe, so they run on the caller after the merge. *)
      let out =
        Pool.map pool
          (fun i ->
            (* A nested map runs sequentially in this task's domain —
               no re-entrancy, identical result. *)
            ( Pool.in_worker (),
              Array.fold_left ( + ) 0
                (Pool.map pool (fun j -> (i * 10) + j) (Array.init 5 Fun.id)) ))
          (Array.init 8 Fun.id)
      in
      check "every task sees in_worker" true (Array.for_all fst out);
      Alcotest.(check (array int))
        "nested ≡ sequential"
        (Array.init 8 (fun i -> (5 * i * 10) + 10))
        (Array.map snd out));
  check "caller is not a worker" false (Pool.in_worker ())

(* The merge contract as a property: for any job count and input, map
   is extensionally Array.map — order-independent of scheduling. *)
let qcheck_merge =
  QCheck.Test.make ~count:30 ~name:"pool map ≡ Array.map for any jobs"
    QCheck.(pair (int_range 1 4) (small_list small_int))
    (fun (jobs, l) ->
      let xs = Array.of_list l in
      let f x = (x * 37) land 255 in
      Pool.with_pool ~jobs (fun pool -> Pool.map pool f xs = Array.map f xs))

(* ------------------------------------------------------------------ *)
(* Par: the shared process-wide pool                                    *)
(* ------------------------------------------------------------------ *)

let test_par_knob () =
  check "default jobs >= 1" true (Par.default_jobs () >= 1);
  Par.set_jobs 3;
  check_int "set_jobs visible" 3 (Par.jobs ());
  Alcotest.(check (list int))
    "Par.map ≡ List.map" (List.map succ [ 1; 2; 3 ])
    (Par.map succ [ 1; 2; 3 ]);
  Par.set_jobs 1

(* ------------------------------------------------------------------ *)
(* End-to-end determinism of a real campaign                            *)
(* ------------------------------------------------------------------ *)

(* A small Table 1 campaign rendered exactly as `fasst table1 --json`
   renders it; corruption, daemon portfolios and the predicate caches
   all sit on this path. *)
let render_campaign () =
  Json.to_string
    (Run_report.of_table ~label:"t1-lazy"
       (Ss_expt.Table1.lazy_rows ~seeds:[ 1 ] (Rng.create 5)))

let test_j1_equals_j4 () =
  Par.set_jobs 1;
  let sequential = render_campaign () in
  Par.set_jobs 4;
  let parallel = render_campaign () in
  Par.set_jobs 1;
  Alcotest.(check string) "-j 1 ≡ -j 4 byte-identical" sequential parallel

(* Domain-safety stress: several campaigns run concurrently from
   independent domains, all fanning out on the shared pool at -j 4.
   Every task constructs its own algorithm/config/rng (the §11
   invariant), and the only cross-domain mutable state — the
   Trans_state stamp/buffer counters — is atomic, so contention must
   not change a byte of any campaign's output. *)
let test_concurrent_campaigns () =
  Par.set_jobs 4;
  let expected = render_campaign () in
  let outs =
    List.map Domain.join
      (List.init 3 (fun _ -> Domain.spawn render_campaign))
  in
  Par.set_jobs 1;
  List.iteri
    (fun i out ->
      Alcotest.(check string)
        (Printf.sprintf "campaign %d identical under contention" i)
        expected out)
    outs

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "pool reuse and shutdown" `Quick test_pool_reuse;
          Alcotest.test_case "nested map degrades" `Quick
            test_nested_map_degrades;
          QCheck_alcotest.to_alcotest qcheck_merge;
        ] );
      ("par", [ Alcotest.test_case "shared pool knob" `Quick test_par_knob ]);
      ( "determinism",
        [
          Alcotest.test_case "-j1 ≡ -j4 campaign" `Quick test_j1_equals_j4;
          Alcotest.test_case "concurrent campaigns" `Quick
            test_concurrent_campaigns;
        ] );
    ]
