module Rng = Ss_prelude.Rng

type ('s, 'i) mutator = Rng.t -> 'i -> 's -> 's

let corrupt rng ?(p = 1.0) mutator config =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Fault.corrupt: p = %g not in [0, 1]" p);
  let states =
    Array.mapi
      (fun v s ->
        if Rng.chance rng p then mutator rng (Config.input config v) s else s)
      config.Config.states
  in
  Config.with_states config states

let corrupt_nodes rng mutator nodes config =
  let states = Array.copy config.Config.states in
  let n = Array.length states in
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Fault.corrupt_nodes: node %d out of range [0, %d)" v
             n))
    nodes;
  (* Dedupe (and order canonically): a repeated id would corrupt the
     same node twice, consuming extra RNG draws and shifting every
     later draw — a replay-determinism hazard for scenarios built from
     node lists. *)
  let nodes = List.sort_uniq compare nodes in
  List.iter
    (fun v -> states.(v) <- mutator rng (Config.input config v) states.(v))
    nodes;
  Config.with_states config states
