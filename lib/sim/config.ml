module Graph = Ss_graph.Graph

type ('s, 'i) t = { graph : Graph.t; inputs : 'i array; states : 's array }

let make g ~inputs ~states =
  {
    graph = g;
    inputs = Array.init (Graph.n g) inputs;
    states = Array.init (Graph.n g) states;
  }

let n c = Array.length c.states
let state c p = c.states.(p)
let input c p = c.inputs.(p)

let view c p =
  {
    Algorithm.input = c.inputs.(p);
    self = c.states.(p);
    neighbors =
      Array.init (Graph.degree c.graph p) (fun i ->
          c.states.(Graph.nbr c.graph p i));
    node = p;
  }

let borrowed_view scratch c p =
  let g = c.graph in
  let deg = Graph.degree g p in
  let self = c.states.(p) in
  let buf = Ss_prelude.Scratch.get scratch deg self in
  for i = 0 to deg - 1 do
    buf.(i) <- c.states.(Graph.nbr g p i)
  done;
  { Algorithm.input = c.inputs.(p); self; neighbors = buf; node = p }

let with_states c states = { c with states }

let set_state c p s =
  let states = Array.copy c.states in
  states.(p) <- s;
  { c with states }

let map_states f c = { c with states = Array.map f c.states }

let equal eq c1 c2 = Ss_prelude.Util.array_equal eq c1.states c2.states

let enabled_nodes algo c =
  let acc = ref [] in
  for p = n c - 1 downto 0 do
    if Algorithm.is_enabled algo (view c p) then acc := p :: !acc
  done;
  !acc

let is_terminal algo c =
  let rec go p =
    p >= n c || ((not (Algorithm.is_enabled algo (view c p))) && go (p + 1))
  in
  go 0

let pp pp_state ppf c =
  for p = 0 to n c - 1 do
    Format.fprintf ppf "%3d: %a@." p pp_state c.states.(p)
  done
