(* Tests for the ablated transformer variants: each removed mechanism
   must demonstrably break (no-RP: stuck illegitimate configurations;
   eager-RC: loss of silence) while the full rule set recovers. *)

module Builders = Ss_graph.Builders
module Algorithm = Ss_sim.Algorithm
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Transformer = Ss_core.Registry.Trans
module Ablation = Ss_core.Ablation
module Checker = Ss_core.Checker
module St = Ss_core.Trans_state
module Leader = Ss_algos.Leader_election
module Stabilization = Ss_verify.Stabilization
module Rng = Ss_prelude.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_variant_rule_sets () =
  let params = Transformer.params Leader.algo in
  let names a = Algorithm.rule_names a in
  Alcotest.(check (list string)) "full" [ "RR"; "RP"; "RC"; "RU" ]
    (names (Transformer.algorithm params));
  Alcotest.(check (list string)) "no-RP" [ "RR"; "RC"; "RU" ]
    (names (Ablation.without_rp params));
  Alcotest.(check (list string)) "eager-RC keeps arity"
    [ "RR"; "RP"; "RC"; "RU" ]
    (names (Ablation.with_eager_clear params))

let test_witness_deadlocks_without_rp () =
  let params, config = Ablation.deadlock_witness () in
  let ablated = Ablation.without_rp params in
  (* The witness is immediately terminal for the ablated algorithm... *)
  check "terminal under no-RP" true (Config.is_terminal ablated config);
  (* ...but a root remains: stuck in an illegitimate configuration. *)
  check "root remains" true (Checker.has_root params config)

let test_witness_recovers_with_full_rules () =
  let params, config = Ablation.deadlock_witness () in
  check "full transformer is enabled here" false
    (Config.is_terminal (Transformer.algorithm params) config);
  let stats = Transformer.run params Daemon.synchronous config in
  check "terminates" true stats.Engine.terminated;
  check "no root left" false (Checker.has_root params stats.Engine.final);
  (* Both nodes end at equal heights holding the minimum 5. *)
  let outputs = Transformer.outputs stats.Engine.final in
  Alcotest.(check (array int)) "simulated min" [| 5; 5 |] outputs

let test_witness_first_move_is_rp () =
  let params, config = Ablation.deadlock_witness () in
  let algo = Transformer.algorithm params in
  let enabled = Config.enabled_nodes algo config in
  Alcotest.(check (list int)) "only the tall neighbor is enabled" [ 0 ] enabled;
  let _, moved = Engine.step algo config [ 0 ] in
  Alcotest.(check (list (pair int string))) "RP fires" [ (0, "RP") ] moved

let test_no_rp_stuck_rate_nonzero () =
  (* Over random corruptions some runs of the no-RP variant must end
     illegitimately — RP is a correctness ingredient, not an
     optimization. *)
  let rng = Rng.create 11 in
  let g = Builders.path 12 in
  let inputs = Leader.random_ids rng g in
  let params = Transformer.params Leader.algo in
  let sc = { Stabilization.params; graph = g; inputs } in
  let hist = Stabilization.history sc in
  let ablated = Ablation.without_rp params in
  let stuck = ref 0 in
  for _ = 1 to 15 do
    List.iter
      (fun (_d, daemon) ->
        let start =
          Stabilization.corrupted_start (Rng.split rng) ~max_height:12 sc
        in
        let stats =
          Engine.run ~budget:(Ss_report.Budget.v ~steps:100_000 ()) ablated
            daemon start
        in
        if
          (not stats.Engine.terminated)
          || Checker.legitimate_terminal params hist stats.Engine.final <> Ok ()
        then incr stuck)
      (Stabilization.daemon_portfolio (Rng.split rng))
  done;
  check "some runs get stuck" true (!stuck > 0)

let test_full_rules_never_stuck_same_settings () =
  (* Control group: identical corruptions, full rule set — always
     legitimate. *)
  let rng = Rng.create 11 in
  let g = Builders.path 12 in
  let inputs = Leader.random_ids rng g in
  let params = Transformer.params Leader.algo in
  let sc = { Stabilization.params; graph = g; inputs } in
  let hist = Stabilization.history sc in
  for _ = 1 to 40 do
    let start = Stabilization.corrupted_start (Rng.split rng) ~max_height:12 sc in
    let stats = Transformer.run params Daemon.synchronous start in
    check "terminated" true stats.Engine.terminated;
    check "legitimate" true
      (Checker.legitimate_terminal params hist stats.Engine.final = Ok ())
  done

let test_eager_rc_can_lose_silence () =
  (* The eager-RC variant drops the freeze window; over the portfolio
     some executions must fail to reach a terminal configuration (or
     end illegitimately) within a generous budget. *)
  let rng = Rng.create 13 in
  let params = Transformer.params Leader.algo in
  let bad = ref 0 in
  let total = ref 0 in
  for seed = 1 to 12 do
    let seed_rng = Rng.create seed in
    let g = Builders.cycle 12 in
    let inputs = Leader.random_ids (Rng.split rng) g in
    let sc = { Stabilization.params; graph = g; inputs } in
    let hist = Stabilization.history sc in
    let algo = Ablation.with_eager_clear params in
    List.iter
      (fun (_d, daemon) ->
        let start =
          Stabilization.corrupted_start (Rng.split seed_rng) ~max_height:10 sc
        in
        let stats =
          Engine.run ~budget:(Ss_report.Budget.v ~steps:100_000 ()) algo daemon
            start
        in
        incr total;
        if
          (not stats.Engine.terminated)
          || Checker.legitimate_terminal params hist stats.Engine.final <> Ok ()
        then incr bad)
      (Stabilization.daemon_portfolio seed_rng)
  done;
  check "some runs break" true (!bad > 0);
  check "but not all (it often still converges)" true (!bad < !total)

let test_ablation_table_smoke () =
  let t = Ss_expt.Ablation_expt.rows ~seeds:[ 1 ] (Rng.create 3) in
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  Ss_prelude.Table.render ppf t;
  Format.pp_print_flush ppf ();
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  check_int "three variants + header + rule" 5 (List.length lines)

let () =
  Alcotest.run "ablation"
    [
      ( "variants",
        [
          Alcotest.test_case "rule sets" `Quick test_variant_rule_sets;
          Alcotest.test_case "witness deadlocks without RP" `Quick
            test_witness_deadlocks_without_rp;
          Alcotest.test_case "witness recovers with full rules" `Quick
            test_witness_recovers_with_full_rules;
          Alcotest.test_case "witness first move is RP" `Quick
            test_witness_first_move_is_rp;
          Alcotest.test_case "no-RP gets stuck sometimes" `Quick
            test_no_rp_stuck_rate_nonzero;
          Alcotest.test_case "full rules never stuck (control)" `Quick
            test_full_rules_never_stuck_same_settings;
          Alcotest.test_case "eager-RC loses silence sometimes" `Slow
            test_eager_rc_can_lose_silence;
          Alcotest.test_case "table smoke" `Slow test_ablation_table_smoke;
        ] );
    ]
