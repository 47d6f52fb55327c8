module Algorithm = Ss_sim.Algorithm
module Config = Ss_sim.Config
module Daemon = Ss_sim.Daemon
module Engine = Ss_sim.Engine
module Nodeset = Ss_sim.Nodeset

type state = int
type input = { index : int; n : int; k : int }

(* On Builders.cycle, port 0 is the clockwise neighbor (i+1) and port 1
   the counterclockwise one (i-1); the token travels clockwise, so a
   machine reads its predecessor on port 1. *)
let predecessor (v : (state, input) Algorithm.view) = v.Algorithm.neighbors.(1)

let algo : (state, input) Algorithm.t =
  {
    Algorithm.algo_name = "dijkstra-token-ring";
    equal = Int.equal;
    rules =
      [
        {
          Algorithm.rule_name = "BOTTOM";
          guard =
            (fun v ->
              v.Algorithm.input.index = 0 && v.Algorithm.self = predecessor v);
          action = (fun v -> (v.Algorithm.self + 1) mod v.Algorithm.input.k);
        };
        {
          Algorithm.rule_name = "COPY";
          guard =
            (fun v ->
              v.Algorithm.input.index <> 0 && v.Algorithm.self <> predecessor v);
          action = (fun v -> predecessor v);
        };
      ];
    pp_state = Format.pp_print_int;
  }

let inputs ~n ?k () =
  let k = match k with Some k -> k | None -> n + 1 in
  if k < n then invalid_arg "Dijkstra_ring.inputs: k must be >= n";
  fun index -> { index; n; k }

let privileged config = Config.enabled_nodes algo config
let legitimate config = List.length (privileged config) = 1

let run_to_legitimacy ?(max_steps = 1_000_000) daemon config =
  let rec go config steps moves =
    if legitimate config then Some (steps, moves, config)
    else if steps >= max_steps then None
    else begin
      let enabled = Config.enabled_nodes algo config in
      let selected =
        daemon.Daemon.select ~step:steps ~enabled:(Nodeset.of_list enabled)
      in
      let config', moved = Engine.step algo config selected in
      go config' (steps + 1) (moves + List.length moved)
    end
  in
  go config 0 0

let closure_holds ?(steps = 200) daemon config =
  let rec go config i =
    i >= steps
    || legitimate config
       &&
       let enabled = Config.enabled_nodes algo config in
       let selected =
         daemon.Daemon.select ~step:i ~enabled:(Nodeset.of_list enabled)
       in
       let config', _ = Engine.step algo config selected in
       go config' (i + 1)
  in
  legitimate config && go config 0
