(* Differential tests for the message-network layer:

   1. Msgnet.run's final TRUE states (mirrors are scaffolding) must
      equal the atomic-state Engine.run silent configuration for the
      §5 instances — leader election, BFS tree, Cole-Vishkin — across
      both encodings and several seeds.  When faults corrupt only the
      states (mirrors start accurate), the transformer's terminal
      configuration is schedule-independent, so the asynchronous
      message-passing realization and the atomic-state engine land on
      exactly the same states.  When mirrors are ALSO independently
      corrupted, a tall bogus mirror can trigger extra lazy catch-up
      moves, so the common terminal height may legitimately exceed the
      engine's — for that regime we assert quiescence and legitimacy
      (same simulated history, uniform height) rather than bit-equal
      states.

   2. The indexed channel scheduler (Msgnet.run) and the O(m)
      full-scan reference path (Msgnet.run_naive) must both reach that
      same configuration: they draw different interleavings from the
      rng, but the terminal states are unique.

   3. Chanset, the O(1) non-empty-channel set behind the indexed
      scheduler, is exercised against a reference set model.

   4. Channel.rings, the flat link storage of Msgnet.run, is checked
      against Channel.queues, the boxed reference of Msgnet.run_naive,
      and a list model on random operation sequences. *)

module Graph = Ss_graph.Graph
module Builders = Ss_graph.Builders
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Sync_algo = Ss_sync.Sync_algo
module Sync_runner = Ss_sync.Sync_runner
module St = Ss_core.Trans_state
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module Checker = Ss_core.Checker
module M = Ss_msgnet.Msgnet
module Chanset = Ss_msgnet.Chanset
module Channel = Ss_msgnet.Channel
module Leader = Ss_algos.Leader_election
module Bfs = Ss_algos.Bfs_tree
module Cv = Ss_algos.Cole_vishkin
module Rng = Ss_prelude.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let seeds = [ 1; 2; 3 ]

(* The §5 instances are heterogeneous in their state/input types, so
   each test builds its instance and hands everything to this generic
   checker. *)
let assert_matches_engine ~msg params ~eq ~hist start =
  let engine_final =
    let stats = Transformer.run params Daemon.synchronous start in
    check (msg ^ ": engine terminated") true stats.Engine.terminated;
    stats.Engine.final
  in
  check
    (msg ^ ": engine final legitimate")
    true
    (Checker.legitimate_terminal params hist engine_final = Ok ());
  List.iter
    (fun (enc_name, encoding) ->
      List.iter
        (fun seed ->
          List.iter
            (fun (path_name, run) ->
              let m =
                Printf.sprintf "%s/%s/%s/seed%d" msg enc_name path_name seed
              in
              let rng = Rng.create (1000 * seed + Hashtbl.hash enc_name) in
              let final, stats =
                run ~encoding ~rng ~corrupt_mirrors:false params start
              in
              check (m ^ ": quiescent") true stats.M.quiescent;
              check (m ^ ": legitimate") true
                (Checker.legitimate_terminal params hist final = Ok ());
              check (m ^ ": states match engine silent config") true
                (Config.equal (St.equal eq) final engine_final);
              (* Corrupted-mirror regime: terminal height is
                 schedule-dependent, so assert recovery, not equality. *)
              let rng = Rng.create (7000 * seed + Hashtbl.hash enc_name) in
              let final, stats =
                run ~encoding ~rng ~corrupt_mirrors:true params start
              in
              check (m ^ ": quiescent (corrupt mirrors)") true
                stats.M.quiescent;
              check (m ^ ": legitimate (corrupt mirrors)") true
                (Checker.legitimate_terminal params hist final = Ok ()))
            [
              ( "indexed",
                fun ~encoding ~rng ~corrupt_mirrors p s ->
                  M.run ~encoding ~rng ~corrupt_mirrors p s );
              ( "naive",
                fun ~encoding ~rng ~corrupt_mirrors p s ->
                  M.run_naive ~encoding ~rng ~corrupt_mirrors p s );
            ])
        seeds)
    [ ("full", M.Full_state); ("delta", M.Delta) ]

let test_leader () =
  List.iter
    (fun (gname, g) ->
      let rng = Rng.create 31 in
      let inputs = Leader.random_ids rng g in
      let params = Transformer.params Leader.algo in
      let hist = Sync_runner.run Leader.algo g ~inputs in
      let start =
        Transformer.corrupt rng
          ~max_height:(hist.Sync_runner.t + 4)
          params
          (Transformer.clean_config params g ~inputs)
      in
      assert_matches_engine
        ~msg:("leader/" ^ gname)
        params ~eq:Leader.algo.Sync_algo.equal ~hist start)
    [
      ("cycle8", Builders.cycle 8);
      ( "random10",
        Builders.random_connected (Rng.create 5) ~n:10 ~extra_edges:4 );
    ]

let test_bfs () =
  let rng = Rng.create 37 in
  let g = Builders.random_connected rng ~n:10 ~extra_edges:4 in
  let inputs = Bfs.inputs g ~root:0 in
  let params = Transformer.params Bfs.algo in
  let hist = Sync_runner.run Bfs.algo g ~inputs in
  let start =
    Transformer.corrupt rng
      ~max_height:(hist.Sync_runner.t + 4)
      params
      (Transformer.clean_config params g ~inputs)
  in
  assert_matches_engine ~msg:"bfs/random10" params
    ~eq:Bfs.algo.Sync_algo.equal ~hist start

let test_cole_vishkin () =
  let rng = Rng.create 41 in
  let n = 9 and width = 6 in
  let g = Builders.cycle n in
  let ids = Cv.random_ring_ids rng ~n ~width in
  let inputs = Cv.inputs ~ids ~width g in
  let b = Cv.schedule_length width in
  let params =
    Transformer.params ~mode:P.Greedy ~bound:(P.Finite b) Cv.algo
  in
  let hist = Sync_runner.run Cv.algo g ~inputs in
  let start =
    Transformer.corrupt rng ~max_height:b params
      (Transformer.clean_config params g ~inputs)
  in
  assert_matches_engine ~msg:"cv/cycle9" params ~eq:Cv.algo.Sync_algo.equal
    ~hist start

(* ------------------------------------------------------------------ *)
(* Chanset vs a reference set model                                     *)
(* ------------------------------------------------------------------ *)

module IntSet = Set.Make (Int)

let test_chanset_model () =
  let capacity = 64 in
  let t = Chanset.create capacity in
  let reference = ref IntSet.empty in
  let rng = Rng.create 97 in
  for _ = 1 to 5_000 do
    let id = Rng.int rng capacity in
    (match Rng.int rng 3 with
    | 0 ->
        Chanset.add t id;
        reference := IntSet.add id !reference
    | 1 ->
        Chanset.remove t id;
        reference := IntSet.remove id !reference
    | _ ->
        if not (Chanset.is_empty t) then begin
          let picked = Chanset.pick t rng in
          check "pick is a member" true (IntSet.mem picked !reference)
        end);
    check_int "cardinal" (IntSet.cardinal !reference) (Chanset.cardinal t);
    check "mem agrees" true (Chanset.mem t id = IntSet.mem id !reference)
  done;
  Alcotest.(check (list int))
    "elements agree with the model"
    (IntSet.elements !reference) (Chanset.elements t)

let test_chanset_pick_covers_members () =
  (* Over many draws, every member of a small active set is picked:
     the swap-with-last removal must not shadow any element. *)
  let t = Chanset.create 10 in
  List.iter (Chanset.add t) [ 0; 3; 4; 7; 9 ];
  Chanset.remove t 3;
  Chanset.remove t 9;
  Chanset.add t 5;
  let rng = Rng.create 13 in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 500 do
    Hashtbl.replace seen (Chanset.pick t rng) ()
  done;
  Alcotest.(check (list int))
    "all members picked" [ 0; 4; 5; 7 ]
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []))

(* ------------------------------------------------------------------ *)
(* Channel.rings vs Channel.queues                                      *)
(* ------------------------------------------------------------------ *)

(* Messages of three shapes: two flat records of different lengths and
   one with no flat form, which [Channel.rings] keeps boxed in its side
   queue behind an empty ring record. *)
type msg = Short of int | Long of int * int | Boxed of string

let test_wire =
  {
    Channel.words = 3;
    encode =
      (fun w -> function
        | Short k ->
            w.(0) <- 1;
            w.(1) <- k;
            2
        | Long (a, b) ->
            w.(0) <- 2;
            w.(1) <- a;
            w.(2) <- b;
            3
        | Boxed _ -> 0);
    decode =
      (fun w -> if w.(0) = 1 then Short w.(1) else Long (w.(1), w.(2)));
  }

let msg_of k =
  match k mod 3 with
  | 0 -> Boxed (string_of_int k)
  | 1 -> Short k
  | _ -> Long (k, -k)

(* Four links between three nodes.  Each op is (code, link, payload):
   push (two codes, so links fill up), pop, peek, rotate, pick.  Both
   implementations and a list-per-link model run the same sequence;
   heads must agree with the model on every pop and peek, rotations
   must agree on whether they moved anything, and a pick must name a
   non-empty link (or -1 exactly when all are empty).  Every
   implementation is drained in the end, so a boxed payload that fell
   out of step with its ring marker shows up as a wrong head. *)
let channel_differential ops =
  let src = [| 0; 0; 1; 2 |] and dst = [| 1; 2; 0; 1 |] in
  let nlinks = Array.length src in
  let rings = Channel.rings test_wire ~src ~dst in
  let queues = Channel.queues test_wire ~src ~dst in
  let model = Array.make nlinks [] in
  let ring_rng = Rng.create 5 and queue_rng = Rng.create 6 in
  let ok = ref true in
  let expect b = if not b then ok := false in
  let valid_pick id =
    if Array.for_all (( = ) []) model then id = -1
    else id >= 0 && id < nlinks && model.(id) <> []
  in
  List.iter
    (fun (code, link, k) ->
      match (code, model.(link)) with
      | (0 | 1), _ ->
          let m = msg_of k in
          Channel.push rings link m;
          Channel.push queues link m;
          model.(link) <- model.(link) @ [ m ]
      | 2, head :: rest ->
          expect (Channel.pop rings link = head);
          expect (Channel.pop queues link = head);
          model.(link) <- rest
      | 3, head :: _ ->
          expect (Channel.peek rings link = head);
          expect (Channel.peek queues link = head)
      | 4, q ->
          let moved = List.length q >= 2 in
          expect (Channel.rotate rings link = moved);
          expect (Channel.rotate queues link = moved);
          if moved then model.(link) <- List.tl q @ [ List.hd q ]
      | 5, _ ->
          expect (valid_pick (Channel.pick rings ring_rng));
          expect (valid_pick (Channel.pick queues queue_rng))
      | _ -> ())
    ops;
  Array.iteri
    (fun link q ->
      List.iter
        (fun m ->
          expect (Channel.pop rings link = m);
          expect (Channel.pop queues link = m))
        q)
    model;
  expect (Channel.pick rings ring_rng = -1);
  expect (Channel.pick queues queue_rng = -1);
  !ok

let channel_qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:500 ~name:"rings agree with queues and the model"
      (list_of_size (Gen.int_range 0 120)
         (triple (int_bound 5) (int_bound 3) small_nat))
      channel_differential;
  ]

let () =
  Alcotest.run "msgnet-equiv"
    [
      ( "engine-vs-msgnet",
        [
          Alcotest.test_case "leader election" `Quick test_leader;
          Alcotest.test_case "BFS tree" `Quick test_bfs;
          Alcotest.test_case "Cole-Vishkin" `Quick test_cole_vishkin;
        ] );
      ( "chanset",
        [
          Alcotest.test_case "reference model" `Quick test_chanset_model;
          Alcotest.test_case "pick covers members" `Quick
            test_chanset_pick_covers_members;
        ] );
      ("channel", List.map QCheck_alcotest.to_alcotest channel_qcheck_tests);
    ]
