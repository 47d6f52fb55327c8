module Algorithm = Ss_sim.Algorithm
module Graph = Ss_graph.Graph
module Properties = Ss_graph.Properties

type state = int
type input = { is_root : bool; dmax : int }

let target (v : (state, input) Algorithm.view) =
  if v.Algorithm.input.is_root then 0
  else begin
    let best =
      Array.fold_left (fun acc d -> min acc d) max_int v.Algorithm.neighbors
    in
    let candidate = if best = max_int then v.Algorithm.input.dmax else best + 1 in
    min candidate v.Algorithm.input.dmax
  end

let algo : (state, input) Algorithm.t =
  {
    Algorithm.algo_name = "naive-bfs";
    equal = Int.equal;
    rules =
      [
        {
          Algorithm.rule_name = "ADJUST";
          guard = (fun v -> v.Algorithm.self <> target v);
          action = target;
        };
      ];
    pp_state = Format.pp_print_int;
  }

let inputs g ~root ?dmax () =
  let dmax = match dmax with Some d -> d | None -> Graph.n g in
  fun p -> { is_root = p = root; dmax }

let spec_holds g ~root ~final =
  let dist = Properties.bfs_distances g root in
  let rec go p = p >= Graph.n g || (final.(p) = dist.(p) && go (p + 1)) in
  go 0

let adversarial_run config =
  let max_steps = 10_000_000 in
  let module Config = Ss_sim.Config in
  let module Engine = Ss_sim.Engine in
  let rec go config steps moves =
    if steps >= max_steps then (moves, false)
    else begin
      match Config.enabled_nodes algo config with
      | [] -> (moves, true)
      | enabled ->
          (* Pick the enabled node with the smallest resulting value. *)
          (* Smallest new value, ties broken towards the highest id
             (the nodes farthest from typical roots), maximizing the
             number of later re-increments. *)
          let best =
            List.fold_left
              (fun acc p ->
                let value = target (Config.view config p) in
                match acc with
                | Some (_, v) when v < value -> acc
                | Some (q, v) when v = value && q > p -> acc
                | _ -> Some (p, value))
              None enabled
          in
          let p = match best with Some (p, _) -> p | None -> assert false in
          let config', moved = Engine.step algo config [ p ] in
          go config' (steps + 1) (moves + List.length moved)
    end
  in
  go config 0 0
