module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module Engine = Ss_sim.Engine
module Transformer = Ss_core.Registry.Trans
module Ablation = Ss_core.Ablation
module Checker = Ss_core.Checker
module Stabilization = Ss_verify.Stabilization

(* A rule-set variant, applied to whichever instance a row builds. *)
type variant = {
  name : string;
  make :
    's 'i.
    ('s, 'i) Transformer.params ->
    ('s Ss_core.Trans_state.t, 'i) Ss_sim.Algorithm.t;
}

let rows ~seeds rng =
  let workloads =
    [
      Ss_graph.Builders.path 12;
      Ss_graph.Builders.cycle 12;
      Ss_graph.Builders.binary_tree 15;
      Ss_graph.Builders.random_connected (Rng.split rng) ~n:14 ~extra_edges:6;
    ]
  in
  let variants =
    [
      { name = "full"; make = Transformer.algorithm };
      { name = "no-RP"; make = Ablation.without_rp };
      { name = "eager-RC"; make = Ablation.with_eager_clear };
    ]
  in
  (* One row per variant.  The per-(variant, workload) input streams
     are split before any row runs, in the historical variant-major
     order.  Every run builds its own algorithm: the cached predicate
     table inside [variant.make params] is mutable and must not be
     shared across domains (DESIGN.md §11). *)
  let row (variant, workloads) () =
    let runs =
      List.concat_map
        (fun (g, rng) ->
          let inst =
            Catalog.instance Catalog.lazy_infinite
              (Catalog.instantiate "leader" rng g)
              g
          in
          let max_height = Catalog.max_height inst in
          let (Catalog.Instance { sc; hist; _ }) = inst in
          Measure.replicas ~seeds (fun rng daemon ->
              let start = Stabilization.corrupted_start rng ~max_height sc in
              (* A step budget: non-stabilizing variants may stall in a
                 live-lock rather than a deadlock. *)
              let stats =
                Engine.run
                  ~budget:(Ss_report.Budget.v ~steps:200_000 ())
                  (variant.make sc.params) daemon start
              in
              let terminated = stats.Engine.terminated in
              ( terminated,
                terminated
                && Checker.legitimate_terminal sc.params hist
                     stats.Engine.final
                   = Ok (),
                [ Table.I stats.Engine.moves; Table.I stats.Engine.rounds ] )))
        workloads
    in
    let count f = Table.I (List.length (List.filter f runs)) in
    [
      Table.S variant.name;
      Table.I (List.length runs);
      count (fun (terminated, _, _) -> terminated);
      count (fun (_, legitimate, _) -> legitimate);
    ]
    @ Measure.worst (List.map (fun (_, _, cells) -> cells) runs)
  in
  Measure.table
    [ "variant"; "runs"; "terminated"; "legitimate"; "max-moves"; "max-rounds" ]
    (List.rev_map row
       (List.fold_left
          (fun acc variant -> (variant, Rng.split_per rng workloads) :: acc)
          [] variants))
