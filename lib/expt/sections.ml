module Rng = Ss_prelude.Rng
module Table = Ss_prelude.Table

type t = {
  name : string;
  title : string;
  run : seeds:int list -> Rng.t -> Table.t;
}

let v name title run = { name; title; run }

let table1 =
  [
    v "lazy" "Table 1 / lazy mode (leader election)" Table1.lazy_rows;
    v "greedy" "Table 1 / greedy mode" Table1.greedy_rows;
    v "recovery" "Table 1 / error recovery" Table1.recovery_rows;
    v "space" "Table 1 / space" Table1.space_rows;
  ]

let instances =
  [
    v "leader" "§5.1 leader election" Instances.leader_rows;
    v "bfs" "§5.2 BFS spanning tree" Instances.bfs_rows;
    v "cv" "§5.3 Cole-Vishkin ring coloring" Instances.cv_rows;
    v "sp" "shortest-path trees (§1 Bellman-Ford input)"
      Instances.shortest_path_rows;
  ]

let rollback ~max_k =
  v "rollback" "§7 / Figure 1: rollback blow-up vs transformer"
    (Blowup_expt.rows ~max_k)

let energy = v "energy" "§6 message/energy accounting" Energy_expt.rows

let msgnet =
  v "msgnet" "§6 end-to-end: transformer over message passing"
    Msgnet_expt.rows

let ablation =
  v "ablation" "ablation: removing RP or the RC window breaks the transformer"
    Ablation_expt.rows

let baselines =
  [
    v "bfs" "hand-crafted min+1 BFS vs transformed BFS" Baselines_expt.bfs_rows;
    v "dijkstra" "Dijkstra's token ring [27]" Baselines_expt.dijkstra_rows;
  ]

let locality =
  v "locality" "§1.3 locality: LOCAL views, S = Theta(Delta^r), space vs B*S"
    Locality_expt.rows

let transformers =
  v "transformers" "transformer comparison: trans | rollback | adaptive"
    (fun ~seeds rng -> Transformers_expt.rows ~seeds rng)

let all =
  table1 @ instances
  @ [ rollback ~max_k:10; energy; msgnet; ablation ]
  @ baselines @ [ locality ]

let print ppf ~json title table =
  if json then
    Format.fprintf ppf "%s@."
      (Ss_report.Json.to_string (Ss_report.Json.of_table ~label:title table))
  else Format.fprintf ppf "== %s ==@.%a@." title Table.render table

let run ppf ~json ~seed ~seeds sections =
  let ok =
    List.fold_left
      (fun ok s ->
        let table = s.run ~seeds (Rng.create seed) in
        print ppf ~json s.title table;
        ok && Measure.ok table)
      true sections
  in
  if ok then 0 else 1
