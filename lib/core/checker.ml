module Algorithm = Ss_sim.Algorithm
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
  let sync = params.Transformer.sync in
  Array.fold_left
    (fun acc st -> max acc (Transformer.full_state_bits sync st))
    0 config.Config.states

(* Node [p]'s list is correct and equals its synchronous history. *)
let simulates_node eq history p st =
  (not (St.in_error st))
  && eq (St.init st) (Sync_runner.state_at history ~round:0 ~node:p)
  &&
  let rec cells i =
    i > St.height st
    || (eq (St.cell st i) (Sync_runner.state_at history ~round:i ~node:p)
       && cells (i + 1))
  in
  cells 1

let simulates_history params history config =
  let eq = params.Transformer.sync.Sync_algo.equal in
  let rec go p =
    p >= Config.n config
    || (simulates_node eq history p (Config.state config p) && go (p + 1))
  in
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

(* One pass over the nodes, one borrowed view each, judging with the
   reference predicates: the oracle must not read (or fill) the
   watermark memo whose runs it judges.  The reference [algoErr] of the
   node under judgement is computed once, and both [RR]'s guard and the
   root test read it.  The verdict is the first failing check of the
   sequence terminal, no root, equal heights, history: an enabled node
   ends the pass at once; a root, an uneven height or a history mismatch
   only stops the later checks, since an enabled node further on still
   takes precedence. *)
let legitimate_terminal params history config =
  let err = ref false in
  let algo = Transformer.with_algo_err ~algo_err:(fun _ _ -> !err) params in
  let eq = params.Transformer.sync.Sync_algo.equal in
  let views = Ss_prelude.Scratch.create () in
  let n = Config.n config in
  let h0 = if n = 0 then 0 else St.height (Config.state config 0) in
  let rec go p ~rooted ~uneven ~mismatch =
    if p >= n then
      if rooted then Error "terminal configuration has a root"
      else if uneven then Error "terminal heights are not all equal"
      else if mismatch then
        Error "terminal lists do not match the synchronous history"
      else Ok ()
    else begin
      let v = Config.borrowed_view views config p in
      err := Predicates.algo_err params v;
      if Algorithm.is_enabled algo v then Error "configuration is not terminal"
      else
        let rooted = rooted || !err || Predicates.dep_err params v in
        let st = v.Algorithm.self in
        let uneven = uneven || St.height st <> h0 in
        let mismatch =
          mismatch
          || (not (rooted || uneven)) && not (simulates_node eq history p st)
        in
        go (p + 1) ~rooted ~uneven ~mismatch
    end
  in
  go 0 ~rooted:false ~uneven:false ~mismatch:false
