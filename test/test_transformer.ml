(* Unit tests for the transformer core (paper §3): each predicate on
   hand-crafted local views, rule actions, rule priorities, parameter
   validation, fault injection, and the global Checker. *)

module Graph = Ss_graph.Graph
module Builders = Ss_graph.Builders
module Algorithm = Ss_sim.Algorithm
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Sync_runner = Ss_sync.Sync_runner
module Min_flood = Ss_algos.Min_flood
module St = Ss_core.Trans_state
module P = Ss_core.Predicates
module Transformer = Ss_core.Registry.Trans
module Checker = Ss_core.Checker
module Rng = Ss_prelude.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lazy_params = Transformer.params Min_flood.algo
let greedy_params b =
  Transformer.params ~mode:P.Greedy ~bound:(P.Finite b) Min_flood.algo

(* A view of a min-flood transformer node: [input] is the node's own
   initial value. *)
let view ?(input = 5) self neighbors =
  { Algorithm.input; self; neighbors = Array.of_list neighbors; node = 0 }

let st ?(status = St.C) init cells =
  St.make ~init ~status ~cells:(Array.of_list cells)

(* ------------------------------------------------------------------ *)
(* Trans_state                                                          *)
(* ------------------------------------------------------------------ *)

let test_state_accessors () =
  let s = st 5 [ 4; 3 ] in
  check_int "height" 2 (St.height s);
  check_int "cell 0 = init" 5 (St.cell s 0);
  check_int "cell 1" 4 (St.cell s 1);
  check_int "cell 2" 3 (St.cell s 2);
  check_int "top" 3 (St.top s);
  check "cell out of range" true
    (try
       ignore (St.cell s 3);
       false
     with Invalid_argument _ -> true)

let test_state_truncate_extend () =
  let s = st 5 [ 4; 3; 2 ] in
  let t = St.truncate s 1 in
  check_int "truncated height" 1 (St.height t);
  check_int "kept prefix" 4 (St.cell t 1);
  let e = St.extend t 9 in
  check_int "extended height" 2 (St.height e);
  check_int "appended" 9 (St.top e);
  check "truncate out of range" true
    (try
       ignore (St.truncate s 4);
       false
     with Invalid_argument _ -> true)

let test_state_equal () =
  let eq = St.equal Int.equal in
  check "equal" true (eq (st 5 [ 4 ]) (st 5 [ 4 ]));
  check "status differs" false (eq (st 5 [ 4 ]) (st ~status:St.E 5 [ 4 ]));
  check "cells differ" false (eq (st 5 [ 4 ]) (st 5 [ 3 ]));
  check "height differs" false (eq (st 5 [ 4 ]) (st 5 [ 4; 4 ]));
  check "init differs" false (eq (st 5 [ 4 ]) (st 6 [ 4 ]))

let test_clean () =
  let s = St.clean 7 in
  check_int "height 0" 0 (St.height s);
  check "status C" true (not (St.in_error s));
  check_int "top = init" 7 (St.top s)

let test_boxed_divergence () =
  (* Branches extended from a shared prefix with physically distinct
     cells must not clobber each other (copy-on-write), while
     re-appending the physically identical cell re-adopts the
     committed slot in place. *)
  let eq = St.equal (List.equal Int.equal) in
  let mk cells = St.make ~init:[ 0 ] ~status:St.C ~cells in
  let base = mk [| [ 1 ]; [ 2 ] |] in
  let t = St.truncate base 1 in
  let a = St.extend t [ 9 ] in
  (* A fresh box structurally equal to base's cell 2 — built at runtime
     because the compiler shares equal constant literals. *)
  let b = St.extend t (List.init 1 (fun _ -> 2)) in
  check "base unchanged" true (eq base (mk [| [ 1 ]; [ 2 ] |]));
  check "diverged branch" true (eq a (mk [| [ 1 ]; [ 9 ] |]));
  check "equal-content branch" true (eq b base);
  let c = St.extend t (St.cell base 2) in
  check "aliased re-extension re-adopts" true (eq c base);
  check "same backing buffer" true (St.rep_id c = St.rep_id base);
  check "copy-on-write minted a buffer" true (St.rep_id b <> St.rep_id base)

let test_stamps () =
  let s = st 5 [ 4 ] in
  check "same construction, same stamp" true (St.stamp s = St.stamp s);
  check "equal values, distinct constructions" true
    (St.stamp (st 5 [ 4 ]) <> St.stamp s);
  check "extend restamps" true (St.stamp (St.extend s 1) <> St.stamp s);
  check "truncate restamps" true (St.stamp (St.truncate s 0) <> St.stamp s);
  check "no-op with_status keeps the stamp" true
    (St.stamp (St.with_status s St.C) = St.stamp s)

(* ------------------------------------------------------------------ *)
(* Predicates: algoErr                                                  *)
(* ------------------------------------------------------------------ *)

let test_algo_hat () =
  (* algô(p, i) = min over the closed neighborhood's cells i. *)
  let v = view ~input:5 (st 5 [ 4 ]) [ st 9 [ 2 ]; st 7 [ 8 ] ] in
  check_int "at 0" 5 (P.algo_hat lazy_params v 0);
  check_int "at 1" 2 (P.algo_hat lazy_params v 1)

let test_algo_err_detects_wrong_cell () =
  (* Cell 2 should be min(5, 9) = 5 but holds 7. *)
  let v = view ~input:5 (st 5 [ 5; 7 ]) [ st 9 [ 9 ] ] in
  check "detected" true (P.algo_err lazy_params v)

let test_algo_err_ok_cells () =
  let v = view ~input:5 (st 5 [ 5; 5 ]) [ st 9 [ 9; 9 ] ] in
  check "no error" false (P.algo_err lazy_params v)

let test_algo_err_ignores_unverifiable_cells () =
  (* The neighbor's list is too short to check cell 2: only cell 1 is
     checkable and it is fine. *)
  let v = view ~input:5 (st 5 [ 5; 777 ]) [ st 9 [] ] in
  check "missing dependency masks the bad cell" false
    (P.algo_err lazy_params v)

let test_algo_err_checks_first_cell () =
  (* Cell 1 = algô(p, 0) is always checkable (L(0) = init exists). *)
  let v = view ~input:5 (st 5 [ 4 ]) [ st 9 [] ] in
  check "wrong first cell detected" true (P.algo_err lazy_params v)

let test_algo_err_no_neighbors () =
  (* Isolated node: every cell is checkable against its own init. *)
  let v = view ~input:5 (st 5 [ 5; 6 ]) [] in
  check "detected without neighbors" true (P.algo_err lazy_params v)

(* ------------------------------------------------------------------ *)
(* Predicates: depErr / root                                            *)
(* ------------------------------------------------------------------ *)

let test_dep_err_error_without_parent () =
  (* In error with no error neighbor of smaller height: a root. *)
  let v = view (st ~status:St.E 5 [ 5; 5 ]) [ st 9 [ 9 ] ] in
  check "detected" true (P.dep_err lazy_params v);
  (* An error neighbor strictly below excuses it. *)
  let v' =
    view (st ~status:St.E 5 [ 5; 5 ]) [ st ~status:St.E 9 [ 9 ] ]
  in
  check "error parent excuses" false (P.dep_err lazy_params v')

let test_dep_err_error_equal_height_neighbor () =
  (* The error neighbor must be strictly lower. *)
  let v =
    view (st ~status:St.E 5 [ 5 ]) [ st ~status:St.E 9 [ 9 ] ]
  in
  check "equal height does not excuse" true (P.dep_err lazy_params v)

let test_dep_err_cliff () =
  (* Correct node with a neighbor towering >= h + 2 above it. *)
  let v = view (st 5 []) [ st 9 [ 9; 9 ] ] in
  check "cliff detected" true (P.dep_err lazy_params v);
  let v' = view (st 5 []) [ st 9 [ 9 ] ] in
  check "height + 1 is fine" false (P.dep_err lazy_params v')

let test_root_is_disjunction () =
  let v = view ~input:5 (st 5 [ 4 ]) [ st 9 [] ] in
  check "algoErr implies root" true (P.is_root lazy_params v);
  let v' = view (st 5 []) [ st 9 [ 9; 9 ] ] in
  check "depErr implies root" true (P.is_root lazy_params v');
  let ok = view ~input:5 (st 5 [ 5 ]) [ st 9 [ 9 ] ] in
  check "clean view is not a root" false (P.is_root lazy_params ok)

(* ------------------------------------------------------------------ *)
(* Predicates: errProp / canClearE / updatable                          *)
(* ------------------------------------------------------------------ *)

let test_err_prop_minimal_index () =
  (* Error neighbors at heights 2 and 3; own height 6: the smallest
     valid truncation point is 3. *)
  let self = st 5 [ 5; 5; 5; 5; 5; 5 ] in
  let v =
    view self
      [
        st ~status:St.E 9 [ 9; 9 ];
        st ~status:St.E 8 [ 8; 8; 8 ];
        st 7 [ 7; 7; 7; 7; 7; 7 ];
      ]
  in
  check "index is min error height + 1" true
    (P.err_prop_index lazy_params v = Some 3)

let test_err_prop_requires_room () =
  (* q.h < i < p.h requires q.h <= p.h - 2. *)
  let v = view (st 5 [ 5; 5 ]) [ st ~status:St.E 9 [ 9 ] ] in
  check "no room" true (P.err_prop_index lazy_params v = None);
  let v' = view (st 5 [ 5; 5; 5 ]) [ st ~status:St.E 9 [ 9 ] ] in
  check "room at h-1" true (P.err_prop_index lazy_params v' = Some 2)

let test_err_prop_ignores_correct_neighbors () =
  let v = view (st 5 [ 5; 5; 5 ]) [ st 9 [] ] in
  check "correct neighbors do not propagate" true
    (P.err_prop_index lazy_params v = None)

let test_can_clear_e () =
  let v =
    view (st ~status:St.E 5 [ 5; 5 ]) [ st 9 [ 9 ]; st 7 [ 7; 7; 7 ] ]
  in
  check "clearable" true (P.can_clear_e lazy_params v);
  (* A higher neighbor still in error blocks the feedback. *)
  let v' =
    view (st ~status:St.E 5 [ 5; 5 ]) [ st ~status:St.E 7 [ 7; 7; 7 ] ]
  in
  check "higher error neighbor blocks" false (P.can_clear_e lazy_params v');
  (* A neighbor two levels apart blocks it too. *)
  let v'' = view (st ~status:St.E 5 [ 5; 5 ]) [ st 9 [] ] in
  check "cliff blocks" false (P.can_clear_e lazy_params v'');
  (* Only error nodes can clear. *)
  let v''' = view (st 5 [ 5 ]) [ st 9 [ 9 ] ] in
  check "status C cannot clear" false (P.can_clear_e lazy_params v''')

let test_updatable_lazy_stops_at_fixpoint () =
  (* min-flood already stable at height 1, no neighbor ahead: lazily
     silent. *)
  let v = view ~input:5 (st 5 [ 5 ]) [ st 9 [ 9 ] ] in
  check "lazy does not extend" false (P.updatable lazy_params v);
  check "greedy extends" true (P.updatable (greedy_params 10) v)

let test_updatable_lazy_continues_when_needed () =
  (* Simulation not finished: the next cell would differ. *)
  let v = view ~input:9 (st 9 [ 9 ]) [ st 5 [ 5 ] ] in
  check "value still changing" true (P.updatable lazy_params v);
  (* Or a neighbor is already ahead. *)
  let v' = view ~input:5 (st 5 [ 5 ]) [ st 9 [ 9; 9 ] ] in
  check "neighbor ahead" true (P.updatable lazy_params v')

let test_updatable_requires_aligned_neighbors () =
  (* A neighbor strictly below blocks RU. *)
  let v = view ~input:9 (st 9 [ 9 ]) [ st 5 [] ] in
  check "lower neighbor blocks" false (P.updatable lazy_params v);
  (* An error status blocks RU. *)
  let v' = view ~input:9 (st ~status:St.E 9 [ 9 ]) [ st 5 [ 5 ] ] in
  check "error status blocks" false (P.updatable lazy_params v')

let test_updatable_respects_bound () =
  let v = view ~input:9 (st 9 [ 9 ]) [ st 5 [ 5 ] ] in
  check "B=1 full" false (P.updatable (greedy_params 1) v);
  check "B=2 has room" true (P.updatable (greedy_params 2) v)

let test_below_bound () =
  check "finite" true (P.below_bound (P.Finite 3) 2);
  check "finite limit" false (P.below_bound (P.Finite 3) 3);
  check "infinite" true (P.below_bound P.Infinite max_int)

(* ------------------------------------------------------------------ *)
(* Rules and priorities                                                 *)
(* ------------------------------------------------------------------ *)

let algo = Transformer.algorithm lazy_params

let rule_of v =
  match Algorithm.enabled_rule algo v with
  | Some r -> r.Algorithm.rule_name
  | None -> "none"

let test_rr_has_highest_priority () =
  (* Root with an error-propagation opportunity: RR wins. *)
  let self = st 5 [ 5; 5; 5; 5 ] in
  let v =
    view self [ st ~status:St.E 9 [ 9 ]; st 7 [ 7; 7; 7; 7; 7; 7 ] ]
  in
  check "is root (cliff above)" true (P.is_root lazy_params v);
  check "errProp also enabled" true (P.err_prop_index lazy_params v <> None);
  Alcotest.(check string) "RR fires" Transformer.rr (rule_of v)

let test_rr_action_resets () =
  let v = view ~input:5 (st 5 [ 4 ]) [ st 9 [] ] in
  Alcotest.(check string) "RR enabled" Transformer.rr (rule_of v);
  let r = Option.get (Algorithm.enabled_rule algo v) in
  let s' = r.Algorithm.action v in
  check_int "height reset" 0 (St.height s');
  check "in error" true (St.in_error s');
  check_int "init preserved" 5 (St.init s')

let test_rr_not_reenabled_at_zero () =
  (* A root in error with an empty list must not fire RR again (guard
     p.h > 0 ∨ p.s = C). *)
  let v = view ~input:5 (st ~status:St.E 5 []) [ st 9 [] ] in
  check "still a root" true (P.is_root lazy_params v);
  check "RR not enabled" true (rule_of v <> Transformer.rr)

let test_rp_action_truncates () =
  let self = st 5 [ 5; 5; 5; 5 ] in
  let v = view self [ st ~status:St.E 9 [ 9 ] ] in
  Alcotest.(check string) "RP enabled" Transformer.rp (rule_of v);
  let r = Option.get (Algorithm.enabled_rule algo v) in
  let s' = r.Algorithm.action v in
  check_int "truncated to min index" 2 (St.height s');
  check "in error" true (St.in_error s')

let test_rc_action_clears () =
  (* In error with an error parent below (so not a root) and a correct
     higher neighbor: the feedback rule RC applies. *)
  let v =
    view ~input:5
      (st ~status:St.E 5 [ 5 ])
      [ st ~status:St.E 9 []; st 7 [ 5; 5 ] ]
  in
  check "not a root" false (P.is_root lazy_params v);
  Alcotest.(check string) "RC enabled" Transformer.rc (rule_of v);
  let r = Option.get (Algorithm.enabled_rule algo v) in
  let s' = r.Algorithm.action v in
  check "cleared" true (not (St.in_error s'));
  check_int "height unchanged" 1 (St.height s')

let test_orphaned_error_node_is_root () =
  (* An error node whose parent has already left the DAG satisfies
     depErr and resets via RR rather than clearing via RC. *)
  let v = view ~input:5 (st ~status:St.E 5 [ 5 ]) [ st 9 [ 9 ] ] in
  check "is root" true (P.is_root lazy_params v);
  Alcotest.(check string) "RR fires" Transformer.rr (rule_of v)

let test_ru_action_extends () =
  (* A consistent node whose next simulated value differs: only RU. *)
  let v = view ~input:7 (st 7 []) [ st 5 []; st 9 [] ] in
  check "not a root" false (P.is_root lazy_params v);
  Alcotest.(check string) "RU enabled" Transformer.ru (rule_of v);
  let r = Option.get (Algorithm.enabled_rule algo v) in
  let s' = r.Algorithm.action v in
  check_int "extended" 1 (St.height s');
  check_int "computed cell" 5 (St.top s')

let test_quiescent_view_disabled () =
  let v = view ~input:5 (st 5 [ 5 ]) [ st 9 [ 9 ] ] in
  check "no rule enabled" true (rule_of v = "none")

(* Allocation tripwire for the guard sweep both run loops pay on every
   event.  Once a node's verification watermark is cached, a full
   [enabled_rule] evaluation of the four rules allocates at most its
   [Some] result and, for a lazy RU check, the dependency array of one
   [algo_hat].  This instance measures ~2 words per evaluation, against
   ~17 when the guards went through closures, options and a fresh
   dependency array per scan. *)
let test_cached_guard_allocation () =
  let n = 64 in
  let g = Builders.cycle n in
  let params = lazy_params in
  let algo = Transformer.algorithm params in
  let clean = Transformer.clean_config params g ~inputs:(fun p -> (p * 37) mod n) in
  let config = Transformer.corrupt (Rng.create 4) ~max_height:12 params clean in
  let views = Array.init n (Config.view config) in
  let enabled = ref 0 in
  let sweep () =
    Array.iter
      (fun v -> if Option.is_some (Algorithm.enabled_rule algo v) then incr enabled)
      views
  in
  sweep ();
  check "some rule enabled" true (!enabled > 0);
  let rounds = 50 in
  let (), words =
    Alloc.words (fun () ->
        for _ = 1 to rounds do
          sweep ()
        done)
  in
  let per_eval = words /. float_of_int (rounds * n) in
  check (Printf.sprintf "%.1f words per cached evaluation <= 4" per_eval) true
    (per_eval <= 4.)

(* ------------------------------------------------------------------ *)
(* Params and corruption                                                *)
(* ------------------------------------------------------------------ *)

let test_params_validation () =
  check "greedy + infinite rejected" true
    (try
       ignore (Transformer.params ~mode:P.Greedy Min_flood.algo);
       false
     with Invalid_argument _ -> true);
  check "non-positive bound rejected" true
    (try
       ignore (Transformer.params ~bound:(P.Finite 0) Min_flood.algo);
       false
     with Invalid_argument _ -> true);
  check "lazy infinite accepted" true
    (ignore (Transformer.params Min_flood.algo);
     true)

let test_corrupt_preserves_init_and_caps () =
  let g = Builders.cycle 8 in
  let params = greedy_params 5 in
  let clean = Transformer.clean_config params g ~inputs:(fun p -> p) in
  let rng = Rng.create 99 in
  for _ = 1 to 50 do
    let c = Transformer.corrupt (Rng.split rng) ~max_height:20 params clean in
    Graph.iter_nodes g (fun p ->
        let s = Config.state c p in
        check_int "init preserved" p (St.init s);
        check "height capped at B" true (St.height s <= 5))
  done

let test_corrupt_p_zero () =
  let g = Builders.path 4 in
  let params = lazy_params in
  let clean = Transformer.clean_config params g ~inputs:(fun p -> p) in
  let rng = Rng.create 1 in
  let c = Transformer.corrupt rng ~p:0.0 ~max_height:5 params clean in
  check "untouched" true (Config.equal (St.equal Int.equal) clean c)

let test_clean_config_shape () =
  let g = Builders.path 3 in
  let c = Transformer.clean_config lazy_params g ~inputs:(fun p -> 10 * p) in
  Graph.iter_nodes g (fun p ->
      let s = Config.state c p in
      check_int "init from sync init" (10 * p) (St.init s);
      check_int "empty list" 0 (St.height s);
      check "status C" true (not (St.in_error s)))

(* ------------------------------------------------------------------ *)
(* End-to-end behaviour on small systems                                *)
(* ------------------------------------------------------------------ *)

let test_clean_run_simulates_synchronous_execution () =
  let g = Builders.path 5 in
  let inputs p = [| 7; 3; 9; 8; 5 |].(p) in
  let hist = Sync_runner.run Min_flood.algo g ~inputs in
  let stats =
    Transformer.run lazy_params Daemon.synchronous
      (Transformer.clean_config lazy_params g ~inputs)
  in
  check "terminated" true stats.Engine.terminated;
  check "legitimate" true
    (Checker.legitimate_terminal lazy_params hist stats.Engine.final = Ok ());
  (* From a clean start only RU ever fires. *)
  List.iter
    (fun (r, c) ->
      if r <> Transformer.ru then check_int (r ^ " never fires") 0 c)
    stats.Engine.moves_per_rule;
  (* Final height is exactly T. *)
  Alcotest.(check (array int)) "heights = T"
    (Array.make 5 hist.Sync_runner.t)
    (Checker.heights stats.Engine.final)

let test_greedy_fills_to_bound () =
  let b = 9 in
  let params = greedy_params b in
  let g = Builders.cycle 4 in
  let inputs p = p + 1 in
  let stats =
    Transformer.run params Daemon.synchronous
      (Transformer.clean_config params g ~inputs)
  in
  check "terminated" true stats.Engine.terminated;
  Alcotest.(check (array int)) "heights = B" (Array.make 4 b)
    (Checker.heights stats.Engine.final);
  let hist = Sync_runner.run Min_flood.algo g ~inputs in
  check "legitimate" true
    (Checker.legitimate_terminal params hist stats.Engine.final = Ok ())

let test_lazy_final_height_with_tall_corruption () =
  (* §4.1: when some initial height exceeds T, the final common height
     is at least T and at most the maximum initial height. *)
  let g = Builders.path 4 in
  let inputs p = p in
  let hist = Sync_runner.run Min_flood.algo g ~inputs in
  let t = hist.Sync_runner.t in
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let start =
      Transformer.corrupt (Rng.split rng) ~max_height:(t + 5) lazy_params
        (Transformer.clean_config lazy_params g ~inputs)
    in
    let h0 = Checker.heights start in
    let max_h0 = Array.fold_left max 0 h0 in
    let stats =
      Transformer.run lazy_params
        (Daemon.distributed_random (Rng.split rng) ~p:0.5)
        start
    in
    check "terminated" true stats.Engine.terminated;
    let hf = (Checker.heights stats.Engine.final).(0) in
    check "T <= final height" true (t <= hf);
    check "final height <= max(T, initial max)" true (hf <= max t max_h0);
    check "simulation correct" true
      (Checker.simulates_history lazy_params hist stats.Engine.final)
  done

let test_outputs () =
  let g = Builders.path 3 in
  let inputs p = p + 4 in
  let stats =
    Transformer.run lazy_params Daemon.synchronous
      (Transformer.clean_config lazy_params g ~inputs)
  in
  Alcotest.(check (array int)) "outputs are the simulated results"
    [| 4; 4; 4 |]
    (Transformer.outputs stats.Engine.final)

(* ------------------------------------------------------------------ *)
(* Checker                                                              *)
(* ------------------------------------------------------------------ *)

let two_node_config self other =
  let g = Builders.path 2 in
  Config.make g
    ~inputs:(fun p -> [| 5; 9 |].(p))
    ~states:(fun p -> if p = 0 then self else other)

let test_checker_roots () =
  (* Node 0 has a wrong first cell: it is a root. *)
  let c = two_node_config (st 5 [ 4 ]) (st 9 [ 5 ]) in
  Alcotest.(check (list int)) "roots" [ 0 ] (Checker.roots lazy_params c);
  check "has root" true (Checker.has_root lazy_params c);
  let ok = two_node_config (st 5 [ 5 ]) (st 9 [ 5 ]) in
  check "clean config rootless" false (Checker.has_root lazy_params ok)

let test_checker_counters () =
  let c = two_node_config (st ~status:St.E 5 []) (st 9 [ 5; 5; 5 ]) in
  check_int "error count" 1 (Checker.error_count c);
  check_int "max cliff" 3 (Checker.max_cliff c);
  Alcotest.(check (array int)) "heights" [| 0; 3 |] (Checker.heights c)

let test_checker_space_bits () =
  let c = two_node_config (st 5 [ 4; 3 ]) (st 9 []) in
  (* Node 0: 1 status bit + bits(5)=4 + bits(4)=4 + bits(3)=3 = 12.
     (min-flood state_bits x = 1 + bit_width |x|.) *)
  check_int "space bits" 12 (Checker.space_bits lazy_params c)

let test_legitimate_terminal_diagnostics () =
  let g = Builders.path 2 in
  let inputs p = [| 5; 9 |].(p) in
  let hist = Sync_runner.run Min_flood.algo g ~inputs in
  let mk s0 s1 =
    Config.make g ~inputs ~states:(fun p -> if p = 0 then s0 else s1)
  in
  (* Proper terminal configuration: both at height T = 1, correct
     contents. *)
  let good = mk (st 5 [ 5 ]) (st 9 [ 5 ]) in
  check "good accepted" true
    (Checker.legitimate_terminal lazy_params hist good = Ok ());
  (* Not terminal: node 1 can still fix its cell (it is a root). *)
  let active = mk (st 5 [ 5 ]) (st 9 [ 9 ]) in
  check "non-terminal rejected" true
    (Checker.legitimate_terminal lazy_params hist active <> Ok ())

let test_simulates_history_negative () =
  let g = Builders.path 2 in
  let inputs p = [| 5; 9 |].(p) in
  let hist = Sync_runner.run Min_flood.algo g ~inputs in
  let mk s0 s1 =
    Config.make g ~inputs ~states:(fun p -> if p = 0 then s0 else s1)
  in
  check "correct contents pass" true
    (Checker.simulates_history lazy_params hist (mk (st 5 [ 5 ]) (st 9 [ 5 ])));
  check "wrong cell fails" false
    (Checker.simulates_history lazy_params hist (mk (st 5 [ 6 ]) (st 9 [ 5 ])));
  check "error status fails" false
    (Checker.simulates_history lazy_params hist
       (mk (st ~status:St.E 5 [ 5 ]) (st 9 [ 5 ])));
  check "beyond T clamps to fixpoint" true
    (Checker.simulates_history lazy_params hist
       (mk (st 5 [ 5; 5 ]) (st 9 [ 5; 5 ])))

(* ------------------------------------------------------------------ *)
(* Random-view properties of the predicates                             *)
(* ------------------------------------------------------------------ *)

let random_trans_state rng =
  let h = Rng.int rng 5 in
  St.make
    ~init:(Rng.int rng 30)
    ~status:(if Rng.bool rng then St.C else St.E)
    ~cells:(Array.init h (fun _ -> Rng.int rng 30))

let random_view rng =
  let deg = Rng.int rng 5 in
  {
    Algorithm.input = Rng.int rng 30;
    self = random_trans_state rng;
    neighbors = Array.init deg (fun _ -> random_trans_state rng);
    node = 0;
  }

(* Model-based equivalence: Trans_state against a pure (status, init,
   cells-array) model, under random interleavings of the whole API —
   including branching (value semantics: operations on one branch must
   never disturb another) and aliased re-extensions from a shared
   prefix. *)
let qcheck_state_model =
  QCheck.Test.make ~count:100
    ~name:"Trans_state matches the pure-array model under random ops"
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let max_pool = 24 in
      let pool = ref [] and size = ref 0 in
      let add m s =
        if !size < max_pool then begin
          pool := (m, s) :: !pool;
          incr size
        end
        else begin
          let victim = Rng.int rng max_pool in
          pool := List.mapi (fun i p -> if i = victim then (m, s) else p) !pool
        end
      in
      let model_of s = (St.status s, St.init s, St.cells s) in
      let seed_state () =
        let s =
          St.make ~init:(Rng.int rng 20)
            ~status:(if Rng.bool rng then St.C else St.E)
            ~cells:(Array.init (Rng.int rng 4) (fun _ -> Rng.int rng 20))
        in
        add (model_of s) s
      in
      seed_state ();
      seed_state ();
      let pick () = List.nth !pool (Rng.int rng !size) in
      let ok = ref true in
      let matches ((status, init, cells), s) =
        St.status s = status
        && St.init s = init
        && St.height s = Array.length cells
        && St.cell s 0 = init
        && Array.for_all Fun.id
             (Array.mapi (fun i c -> St.cell s (i + 1) = c) cells)
        && St.snapshot s = (status, init, cells)
        && St.cells s = cells
        && St.fold_cells (fun acc c -> c :: acc) [] s
           = List.rev (Array.to_list cells)
      in
      for _ = 1 to 120 do
        (match Rng.int rng 6 with
        | 0 -> seed_state ()
        | 1 ->
            let (st_, i, cells), s = pick () in
            let x = Rng.int rng 20 in
            add (st_, i, Array.append cells [| x |]) (St.extend s x)
        | 2 ->
            let (st_, i, cells), s = pick () in
            let k = Rng.int rng (Array.length cells + 1) in
            add (st_, i, Array.sub cells 0 k) (St.truncate s k)
        | 3 ->
            let (_, i, cells), s = pick () in
            let status = if Rng.bool rng then St.C else St.E in
            add (status, i, cells) (St.with_status s status)
        | 4 ->
            let (_, i, _), s = pick () in
            add (St.E, i, [||]) (St.wipe s)
        | _ ->
            (* Branch below the frontier, then re-extend — half the
               time with the committed value (the alias path), half
               with a fresh one (copy-on-write). *)
            let (st_, i, cells), s = pick () in
            let h = Array.length cells in
            if h = 0 then seed_state ()
            else begin
              let k = Rng.int rng h in
              let t = St.truncate s k in
              let x = if Rng.bool rng then cells.(k) else Rng.int rng 20 in
              add
                (st_, i, Array.append (Array.sub cells 0 k) [| x |])
                (St.extend t x)
            end);
        List.iter (fun p -> if not (matches p) then ok := false) !pool;
        let m1, s1 = pick () and m2, s2 = pick () in
        if St.equal Int.equal s1 s2 <> (m1 = m2) then ok := false
      done;
      !ok)

(* Differential for the watermark memo: one cached algorithm instance
   (and one explicit cache) against the reference predicates, node by
   node, while a random sequence of moves and faults rewrites boxed or
   packed configurations.  The sequence covers what the memo's tokens
   must catch: a state aliased at two nodes with different inputs, a
   node's view under another input, RR wipes, packed overwrites below
   the frontier, views whose node index lies past the table or names
   another node's entry, and the same instance reused on a second,
   larger graph.  Min-flood ignores its input and the clock reads it,
   so the input token is exercised too. *)
let qcheck_memo_differential =
  QCheck.Test.make ~count:150
    ~name:"cached predicates = uncached, node by node, boxed and packed"
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let cap = 6 in
      let sync = if Rng.bool rng then Min_flood.algo else Ss_algos.Toy.clock in
      let params =
        Transformer.params
          ~mode:(if Rng.bool rng then P.Lazy else P.Greedy)
          ~bound:(P.Finite cap) sync
      in
      let packed = Rng.bool rng in
      let cached = Transformer.algorithm params in
      let reference = Transformer.algorithm_uncached params in
      let cache = P.make_cache () in
      let ok = ref true in
      let rule_name algo v =
        match Algorithm.enabled_rule algo v with
        | Some r -> r.Algorithm.rule_name
        | None -> "none"
      in
      let agree v =
        if
          rule_name cached v <> rule_name reference v
          || P.algo_err_cached cache params v <> P.algo_err params v
        then ok := false
      in
      let trial n =
        let g = Builders.random_connected rng ~n ~extra_edges:(Rng.int rng 4) in
        let inputs_arr = Array.init n (fun _ -> Rng.int rng 8) in
        let inputs p = inputs_arr.(p) in
        let clean =
          if packed then
            Transformer.packed_config params ~codec:Ss_core.Cellpack.int_codec g
              ~inputs
          else Transformer.clean_config params g ~inputs
        in
        let config = Transformer.corrupt rng ~max_height:cap params clean in
        let states = config.Config.states in
        for _ = 1 to 40 do
          let p = Rng.int rng n in
          (match Rng.int rng 6 with
          | 0 | 1 -> (
              (* A move of [p], if enabled. *)
              match Algorithm.enabled_rule reference (Config.view config p) with
              | Some r -> states.(p) <- r.Algorithm.action (Config.view config p)
              | None -> ())
          | 2 ->
              states.(p) <-
                Transformer.corrupt_state rng ~max_height:cap params (inputs p)
                  states.(p)
          | 3 -> states.(p) <- St.wipe states.(p)
          | 4 ->
              (* Rewrite below the frontier with the committed value or
                 a fresh one (a new lineage when it differs). *)
              let s = states.(p) in
              let h = St.height s in
              if h > 0 then begin
                let i = Rng.int rng h in
                let x = if Rng.bool rng then St.cell s (i + 1) else Rng.int rng 8 in
                states.(p) <- St.extend (St.truncate s i) x
              end
          | _ ->
              (* Alias another node's boxed state at [p] (its input
                 differs in general).  Packed handles stay linear: one
                 slot, one owner. *)
              if not packed then states.(p) <- states.(Rng.int rng n));
          for q = 0 to n - 1 do
            agree (Config.view config q)
          done;
          (* A view under foreign indices (past the table's current
             size, or another node's entry), then one under another
             input, then the node's own view again. *)
          let q = Rng.int rng n in
          agree { (Config.view config q) with Algorithm.node = Rng.int rng (4 * n) };
          agree { (Config.view config q) with Algorithm.input = Rng.int rng 8 };
          agree (Config.view config q)
        done
      in
      let n1 = 3 + Rng.int rng 6 in
      trial n1;
      trial (n1 + 1 + Rng.int rng 8);
      !ok)

(* The verdict [Checker.legitimate_terminal] gave as a composition of
   whole-configuration scans, before it became one pass: terminal, then
   no root, then equal heights, then the history. *)
let composed_legitimate params hist config =
  let algo = Transformer.algorithm_uncached params in
  if not (Config.is_terminal algo config) then
    Error "configuration is not terminal"
  else if Checker.has_root params config then
    Error "terminal configuration has a root"
  else begin
    let h = Checker.heights config in
    let h0 = if Array.length h = 0 then 0 else h.(0) in
    if not (Array.for_all (fun x -> x = h0) h) then
      Error "terminal heights are not all equal"
    else if not (Checker.simulates_history params hist config) then
      Error "terminal lists do not match the synchronous history"
    else Ok ()
  end

(* A configuration to judge and the history to judge it against.  The
   graph has one or two random connected components (two components can
   hold a terminal, rootless configuration of unequal heights); every
   node holds its history up to its component's height, in a boxed or a
   packed lazy configuration.  Then, at random, a few nodes are
   corrupted or one node's top cell is rewritten, and the judging
   history is that of other inputs. *)
let legitimacy_case seed =
  let rng = Rng.create (seed + 1) in
  let sync = if Rng.bool rng then Min_flood.algo else Ss_algos.Toy.clock in
  let cap = 8 in
  let packed = Rng.bool rng in
  (* 0-1: corrupt a few nodes; 2: rewrite one node's top cell; 3: none. *)
  let perturbation = Rng.int rng 4 in
  let wrong_top = perturbation = 2 in
  let bound =
    if wrong_top || packed || Rng.bool rng then P.Finite cap else P.Infinite
  in
  let params = Transformer.params ~bound sync in
  let component () =
    Builders.random_connected rng ~n:(3 + Rng.int rng 4) ~extra_edges:(Rng.int rng 3)
  in
  let parts = if Rng.bool rng then [ component () ] else [ component (); component () ] in
  let n = List.fold_left (fun acc g -> acc + Graph.n g) 0 parts in
  let edges, _ =
    List.fold_left
      (fun (edges, base) g ->
        ( List.map (fun (u, v) -> (u + base, v + base)) (Graph.edges g) @ edges,
          base + Graph.n g ))
      ([], 0) parts
  in
  (* [component.(p)] is the index of [p]'s part. *)
  let component =
    Array.of_list
      (List.concat (List.mapi (fun k g -> List.init (Graph.n g) (fun _ -> k)) parts))
  in
  let g = Graph.of_edges ~n edges in
  let values = Array.init n (fun _ -> Rng.int rng 5) in
  let inputs p = values.(p) in
  let hist = Sync_runner.run sync g ~inputs in
  let heights =
    Array.of_list
      (List.map
         (fun _ ->
           if wrong_top || Rng.int rng 3 = 0 then cap
           else min cap (Rng.int rng (hist.Sync_runner.t + 3)))
         parts)
  in
  let height p = heights.(component.(p)) in
  let start =
    if packed then
      Transformer.packed_config params ~codec:Ss_core.Cellpack.int_codec g ~inputs
    else Transformer.clean_config params g ~inputs
  in
  let states =
    Array.mapi
      (fun p st ->
        let st = ref st in
        for i = 1 to height p do
          st := St.extend !st (Sync_runner.state_at hist ~round:i ~node:p)
        done;
        !st)
      start.Config.states
  in
  (match perturbation with
  | 0 | 1 ->
      for _ = 1 to 1 + Rng.int rng 2 do
        let p = Rng.int rng n in
        states.(p) <-
          Transformer.corrupt_state rng ~max_height:cap params (inputs p) states.(p)
      done
  | 2 ->
      (* A wrong top cell at height B: no neighbour reads it, so the
         node is a root by algoErr alone, and only RR enables it. *)
      let p = Rng.int rng n in
      let st = states.(p) in
      let h = St.height st in
      if h > 0 then
        states.(p) <-
          St.extend (St.truncate st (h - 1)) (sync.Ss_sync.Sync_algo.random_state rng (inputs p))
  | _ -> ());
  let judge =
    if Rng.int rng 4 = 0 then Sync_runner.run sync g ~inputs:(fun p -> values.(p) + 1)
    else hist
  in
  (params, judge, Config.with_states start states)

let qcheck_legitimate_one_pass =
  QCheck.Test.make ~count:300
    ~name:"one-pass legitimate_terminal = the composed scans"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let params, hist, config = legitimacy_case seed in
      Checker.legitimate_terminal params hist config
      = composed_legitimate params hist config)

(* The cases above reach every verdict but the root one: a terminal
   configuration has no root (paper §4), so that verdict is the
   oracle's defence against a broken transformer. *)
let test_legitimacy_cases_reach_verdicts () =
  let seen = Hashtbl.create 5 in
  for seed = 0 to 299 do
    let params, hist, config = legitimacy_case seed in
    Hashtbl.replace seen (composed_legitimate params hist config) ()
  done;
  List.iter
    (fun verdict ->
      check
        (match verdict with Ok () -> "Ok" | Error e -> e)
        true (Hashtbl.mem seen verdict))
    [
      Ok ();
      Error "configuration is not terminal";
      Error "terminal heights are not all equal";
      Error "terminal lists do not match the synchronous history";
    ]

let qcheck_tests =
  let open QCheck in
  [
    qcheck_state_model;
    qcheck_memo_differential;
    qcheck_legitimate_one_pass;
    Test.make ~count:500 ~name:"RC and RU guards are mutually exclusive"
      small_int
      (fun seed ->
        let rng = Rng.create (seed + 1) in
        let v = random_view rng in
        not (P.can_clear_e lazy_params v && P.updatable lazy_params v));
    Test.make ~count:500
      ~name:"an error node always has RR, RP or RC available unless frozen"
      small_int
      (fun seed ->
        (* Not a theorem about single views — just guard totality: the
           predicates never raise on arbitrary states. *)
        let rng = Rng.create (seed + 1) in
        let v = random_view rng in
        let _ = P.is_root lazy_params v in
        let _ = P.err_prop_index lazy_params v in
        let _ = P.can_clear_e lazy_params v in
        let _ = P.updatable lazy_params v in
        let _ = P.algo_err lazy_params v in
        let _ = P.dep_err lazy_params v in
        true);
    Test.make ~count:500 ~name:"greedy updatable implies lazy-or-greedy shape"
      small_int
      (fun seed ->
        (* Lazy updatable implies greedy updatable (same bound): the
           lazy condition only restricts. *)
        let rng = Rng.create (seed + 1) in
        let v = random_view rng in
        let g10 = greedy_params 10 in
        let lazy10 =
          Transformer.params ~bound:(P.Finite 10) Min_flood.algo
        in
        (not (P.updatable lazy10 v)) || P.updatable g10 v);
    Test.make ~count:200
      ~name:"terminal lazy configuration is terminal for greedy with B = h"
      small_int
      (fun seed ->
        let rng = Rng.create (seed + 1) in
        let n = 2 + Rng.int rng 6 in
        let g = Builders.random_connected rng ~n ~extra_edges:2 in
        let inputs p = (p * 11) mod 7 in
        let stats =
          Transformer.run lazy_params Daemon.synchronous
            (Transformer.clean_config lazy_params g ~inputs)
        in
        let h = (Checker.heights stats.Engine.final).(0) in
        h = 0
        ||
        let gp = greedy_params h in
        Ss_sim.Config.is_terminal (Transformer.algorithm gp)
          (Ss_sim.Config.with_states
             (Transformer.clean_config gp g ~inputs)
             stats.Engine.final.Ss_sim.Config.states));
  ]

let () =
  Alcotest.run "transformer"
    [
      ( "trans-state",
        [
          Alcotest.test_case "accessors" `Quick test_state_accessors;
          Alcotest.test_case "truncate/extend" `Quick test_state_truncate_extend;
          Alcotest.test_case "equality" `Quick test_state_equal;
          Alcotest.test_case "clean" `Quick test_clean;
          Alcotest.test_case "boxed divergence" `Quick test_boxed_divergence;
          Alcotest.test_case "stamps" `Quick test_stamps;
        ] );
      ( "algo-err",
        [
          Alcotest.test_case "algo_hat" `Quick test_algo_hat;
          Alcotest.test_case "wrong cell" `Quick test_algo_err_detects_wrong_cell;
          Alcotest.test_case "correct cells" `Quick test_algo_err_ok_cells;
          Alcotest.test_case "unverifiable cells" `Quick
            test_algo_err_ignores_unverifiable_cells;
          Alcotest.test_case "first cell" `Quick test_algo_err_checks_first_cell;
          Alcotest.test_case "no neighbors" `Quick test_algo_err_no_neighbors;
        ] );
      ( "dep-err",
        [
          Alcotest.test_case "error without parent" `Quick
            test_dep_err_error_without_parent;
          Alcotest.test_case "equal-height neighbor" `Quick
            test_dep_err_error_equal_height_neighbor;
          Alcotest.test_case "cliff" `Quick test_dep_err_cliff;
          Alcotest.test_case "root disjunction" `Quick test_root_is_disjunction;
        ] );
      ( "err-prop / clear / update",
        [
          Alcotest.test_case "minimal index" `Quick test_err_prop_minimal_index;
          Alcotest.test_case "needs room" `Quick test_err_prop_requires_room;
          Alcotest.test_case "ignores correct neighbors" `Quick
            test_err_prop_ignores_correct_neighbors;
          Alcotest.test_case "canClearE" `Quick test_can_clear_e;
          Alcotest.test_case "lazy stops at fixpoint" `Quick
            test_updatable_lazy_stops_at_fixpoint;
          Alcotest.test_case "lazy continues when needed" `Quick
            test_updatable_lazy_continues_when_needed;
          Alcotest.test_case "alignment required" `Quick
            test_updatable_requires_aligned_neighbors;
          Alcotest.test_case "bound respected" `Quick test_updatable_respects_bound;
          Alcotest.test_case "below_bound" `Quick test_below_bound;
        ] );
      ( "rules",
        [
          Alcotest.test_case "RR priority" `Quick test_rr_has_highest_priority;
          Alcotest.test_case "RR action" `Quick test_rr_action_resets;
          Alcotest.test_case "RR not re-enabled at 0" `Quick
            test_rr_not_reenabled_at_zero;
          Alcotest.test_case "RP action" `Quick test_rp_action_truncates;
          Alcotest.test_case "RC action" `Quick test_rc_action_clears;
          Alcotest.test_case "orphaned error node is root" `Quick
            test_orphaned_error_node_is_root;
          Alcotest.test_case "RU action" `Quick test_ru_action_extends;
          Alcotest.test_case "quiescence" `Quick test_quiescent_view_disabled;
          Alcotest.test_case "cached guard allocation" `Quick
            test_cached_guard_allocation;
        ] );
      ( "params / faults",
        [
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "corrupt caps" `Quick
            test_corrupt_preserves_init_and_caps;
          Alcotest.test_case "corrupt p=0" `Quick test_corrupt_p_zero;
          Alcotest.test_case "clean config" `Quick test_clean_config_shape;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "clean run = synchronous execution" `Quick
            test_clean_run_simulates_synchronous_execution;
          Alcotest.test_case "greedy fills to B" `Quick test_greedy_fills_to_bound;
          Alcotest.test_case "lazy with tall corruption" `Quick
            test_lazy_final_height_with_tall_corruption;
          Alcotest.test_case "outputs" `Quick test_outputs;
        ] );
      ( "checker",
        [
          Alcotest.test_case "roots" `Quick test_checker_roots;
          Alcotest.test_case "counters" `Quick test_checker_counters;
          Alcotest.test_case "space bits" `Quick test_checker_space_bits;
          Alcotest.test_case "terminal diagnostics" `Quick
            test_legitimate_terminal_diagnostics;
          Alcotest.test_case "simulates history" `Quick
            test_simulates_history_negative;
          Alcotest.test_case "one-pass cases reach the verdicts" `Quick
            test_legitimacy_cases_reach_verdicts;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
