module Sync_algo = Ss_sync.Sync_algo
module Graph = Ss_graph.Graph
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util

type state = { color : int; round : int }
type input = { id : int; width : int; schedule : int }

let reduction_iters_loop w =
  let rec go w acc = if w <= 3 then acc else go (Util.ceil_log2 w + 1) (acc + 1) in
  go (max w 1) 0 + 1

(* [step] asks for the count on every call, so the widths an id can
   have (0..62) are tabulated once; the loop answers any other. *)
let reduction_table = Array.init 63 reduction_iters_loop

let reduction_iters w =
  if w >= 0 && w < Array.length reduction_table then reduction_table.(w)
  else reduction_iters_loop w

let schedule_length w = reduction_iters w + 3

let equal_state a b = a.color = b.color && a.round = b.round

let pp_state ppf s = Format.fprintf ppf "(c=%d, r=%d)" s.color s.round

(* Lowest bit position where [x] and [y] differ; they must differ. *)
let lowest_diff_bit x y =
  let d = x lxor y in
  let rec go i = if d land (1 lsl i) <> 0 then i else go (i + 1) in
  go 0

let reduce ~own ~pred =
  if own = pred then
    (* Cannot happen on legal executions (properness is invariant); be
       total anyway for corrupted cells fed in by the transformer. *)
    own land 1
  else begin
    let i = lowest_diff_bit own pred in
    (2 * i) + ((own lsr i) land 1)
  end

let step input self neighbors =
  let k = input.schedule in
  if self.round >= k || Array.length neighbors <> 2 then self
  else begin
    let r = self.round in
    let nb_cw = neighbors.(0).color and nb_ccw = neighbors.(1).color in
    let color =
      if r < reduction_iters input.width then
        reduce ~own:self.color ~pred:nb_ccw
      else begin
        (* Shift-down rounds eliminate colors 5, 4, 3 in that order. *)
        let target = 5 - (r - reduction_iters input.width) in
        if self.color = target then begin
          let free c = c <> nb_cw && c <> nb_ccw in
          if free 0 then 0 else if free 1 then 1 else 2
        end
        else self.color
      end
    in
    { color; round = r + 1 }
  end

let algo =
  {
    Sync_algo.sync_name = "cole-vishkin";
    equal = equal_state;
    init = (fun input -> { color = input.id; round = 0 });
    step;
    random_state =
      (fun rng input ->
        {
          color = Rng.int rng (1 lsl min input.width 16);
          round = Rng.int rng (input.schedule + 2);
        });
    state_bits = (fun s -> Util.bit_width s.color + Util.bit_width s.round);
    pp_state;
  }

let codec =
  Ss_core.Cellpack.map
    ~inj:(fun s -> (s.color, s.round))
    ~prj:(fun (color, round) -> { color; round })
    (Ss_core.Cellpack.pair Ss_core.Cellpack.int_codec Ss_core.Cellpack.int_codec)

let inputs ~ids ~width _g p = { id = ids p; width; schedule = schedule_length width }

let random_ring_ids rng ~n ~width =
  if n > 1 lsl width then invalid_arg "Cole_vishkin.random_ring_ids: width too small";
  (* Sample n distinct ids from [0, 2^width). *)
  let chosen = Hashtbl.create (2 * n) in
  let ids = Array.make n 0 in
  let space = 1 lsl width in
  for p = 0 to n - 1 do
    let rec draw () =
      let id = Rng.int rng space in
      if Hashtbl.mem chosen id then draw ()
      else begin
        Hashtbl.add chosen id ();
        id
      end
    in
    ids.(p) <- draw ()
  done;
  fun p -> ids.(p)

let spec_holds g ~final =
  let ok p =
    let c = final.(p).color in
    c >= 0 && c <= 2
    && Array.for_all (fun q -> final.(q).color <> c) (Graph.neighbors g p)
  in
  let rec go p = p >= Graph.n g || (ok p && go (p + 1)) in
  go 0
