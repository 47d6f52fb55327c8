module Config = Ss_sim.Config
module Graph = Ss_graph.Graph
module Sync_algo = Ss_sync.Sync_algo
module Sync_runner = Ss_sync.Sync_runner
module St = Trans_state

let is_root params config p = Predicates.is_root params (Config.view config p)

let roots params config =
  let acc = ref [] in
  for p = Config.n config - 1 downto 0 do
    if is_root params config p then acc := p :: !acc
  done;
  !acc

let has_root params config =
  let n = Config.n config in
  let rec go p = p < n && (is_root params config p || go (p + 1)) in
  go 0

let heights config = Array.map St.height config.Config.states

let error_count config =
  Array.fold_left
    (fun acc st -> if St.in_error st then acc + 1 else acc)
    0 config.Config.states

let max_cliff config =
  let h = heights config in
  List.fold_left
    (fun acc (u, v) -> max acc (abs (h.(u) - h.(v))))
    0
    (Graph.edges config.Config.graph)

let space_bits params config =
  let bits = params.Transformer.sync.Sync_algo.state_bits in
  Array.fold_left
    (fun acc st ->
      let cell_bits = St.fold_cells (fun b s -> b + bits s) 0 st in
      max acc (1 + bits (St.init st) + cell_bits))
    0 config.Config.states

let simulates_history params history config =
  let eq = params.Transformer.sync.Sync_algo.equal in
  let ok p =
    let st = Config.state config p in
    (not (St.in_error st))
    && eq (St.init st) (Sync_runner.state_at history ~round:0 ~node:p)
    &&
    let rec cells i =
      i > St.height st
      || (eq (St.cell st i) (Sync_runner.state_at history ~round:i ~node:p)
         && cells (i + 1))
    in
    cells 1
  in
  let rec go p = p >= Config.n config || (ok p && go (p + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* LCL output checkers                                                  *)
(* ------------------------------------------------------------------ *)

let mis_legitimate g ~in_set =
  let independent =
    List.for_all (fun (u, v) -> not (in_set u && in_set v)) (Graph.edges g)
  in
  let dominated p =
    in_set p || Array.exists in_set (Graph.neighbors g p)
  in
  independent && Graph.fold_nodes g ~init:true ~f:(fun acc p -> acc && dominated p)

let matching_legitimate g ~partner =
  let adjacent u v = Array.exists (fun w -> w = v) (Graph.neighbors g u) in
  let consistent p =
    match partner p with
    | None -> true
    | Some q ->
        q <> p && q >= 0 && q < Graph.n g && adjacent p q
        && partner q = Some p
  in
  let maximal =
    List.for_all
      (fun (u, v) -> partner u <> None || partner v <> None)
      (Graph.edges g)
  in
  maximal
  && Graph.fold_nodes g ~init:true ~f:(fun acc p -> acc && consistent p)

let coloring_legitimate g ~max_colors ~color =
  let in_range p = color p >= 0 && color p < max_colors in
  let proper = List.for_all (fun (u, v) -> color u <> color v) (Graph.edges g) in
  proper && Graph.fold_nodes g ~init:true ~f:(fun acc p -> acc && in_range p)

let legitimate_terminal params history config =
  (* The reference predicates: the oracle must not read (or fill) the
     watermark memo whose runs it judges. *)
  let algo = Transformer.algorithm_uncached params in
  if not (Config.is_terminal algo config) then
    Error "configuration is not terminal"
  else if has_root params config then Error "terminal configuration has a root"
  else begin
    let h = heights config in
    let h0 = if Array.length h = 0 then 0 else h.(0) in
    if not (Array.for_all (fun x -> x = h0) h) then
      Error "terminal heights are not all equal"
    else if not (simulates_history params history config) then
      Error "terminal lists do not match the synchronous history"
    else Ok ()
  end
