module G = Ss_graph
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util
module Sync_algo = Ss_sync.Sync_algo
module Registry = Ss_core.Registry

(* ------------------------------------------------------------------ *)
(* Transformers                                                         *)
(* ------------------------------------------------------------------ *)

(* The §3 transformer registers itself inside [Ss_core.Registry]; the
   out-of-core transformers enter the table here, when the campaign
   layer is linked.  Everything downstream (fasst run/list/
   transformers, the bench archives, the tests) enumerates through
   this module, so the side effect is guaranteed to have run. *)
let () =
  Registry.register Ss_rollback.Rollback.transformer;
  Registry.register Ss_adaptive.Adaptive.transformer

let transformers () = Registry.all ()
let transformer_names () = List.map Registry.name (transformers ())
let find_transformer = Registry.find_exn

(* ------------------------------------------------------------------ *)
(* Workload algorithms                                                  *)
(* ------------------------------------------------------------------ *)

type algo_inst =
  | Inst : {
      sync : ('s, 'i) Sync_algo.t;
      inputs : int -> 'i;
      spec : 's array -> bool;
      codec : 's Ss_core.Cellpack.codec option;
    }
      -> algo_inst

type algo = {
  algo_name : string;
  algo_doc : string;
  ring_only : bool;
  in_sim_grid : bool;
  instantiate : Rng.t -> G.Graph.t -> algo_inst;
}

let algorithms =
  [
    {
      algo_name = "leader";
      algo_doc = "leader election by minimum-id flooding (§5.1)";
      ring_only = false;
      in_sim_grid = true;
      instantiate =
        (fun rng g ->
          let module A = Ss_algos.Leader_election in
          let inputs = A.random_ids rng g in
          Inst
            {
              sync = A.algo;
              inputs;
              spec = (fun final -> A.spec_holds g ~inputs ~final);
              codec = Some A.codec;
            });
    };
    {
      algo_name = "minflood";
      algo_doc = "minimum computation by flooding (§7's input algorithm)";
      ring_only = false;
      in_sim_grid = false;
      instantiate =
        (fun _rng g ->
          let module A = Ss_algos.Min_flood in
          ignore g;
          let inputs p = p * 31 mod 17 in
          Inst
            {
              sync = A.algo;
              inputs;
              spec = (fun final -> A.spec_holds g ~inputs ~final);
              codec = Some A.codec;
            });
    };
    {
      algo_name = "bfs";
      algo_doc = "BFS spanning tree, root 0 (§5.2)";
      ring_only = false;
      in_sim_grid = true;
      instantiate =
        (fun _rng g ->
          let module A = Ss_algos.Bfs_tree in
          Inst
            {
              sync = A.algo;
              inputs = A.inputs g ~root:0;
              spec = (fun final -> A.spec_holds g ~root:0 ~final);
              codec = Some A.codec;
            });
    };
    {
      algo_name = "sp";
      algo_doc = "shortest-path tree over random weights (Bellman-Ford)";
      ring_only = false;
      in_sim_grid = false;
      instantiate =
        (fun rng g ->
          let module A = Ss_algos.Shortest_path in
          let weight = A.random_weights rng g ~max_weight:8 in
          Inst
            {
              sync = A.algo;
              inputs = A.inputs g ~weight ~root:0;
              spec = (fun final -> A.spec_holds g ~weight ~root:0 ~final);
              codec = None;
            });
    };
    {
      algo_name = "leaderbfs";
      algo_doc = "composed leader election + BFS tree";
      ring_only = false;
      in_sim_grid = false;
      instantiate =
        (fun rng g ->
          let module A = Ss_algos.Leader_bfs in
          let ids = Ss_algos.Leader_election.random_ids rng g in
          let inputs = A.inputs ~ids g in
          Inst
            {
              sync = A.algo;
              inputs;
              spec = (fun final -> A.spec_holds g ~inputs ~final);
              codec = None;
            });
    };
    {
      algo_name = "cv";
      algo_doc = "Cole-Vishkin 3-coloring on oriented rings (§5.3)";
      ring_only = true;
      in_sim_grid = true;
      instantiate =
        (fun rng g ->
          let module A = Ss_algos.Cole_vishkin in
          let n = G.Graph.n g in
          let width = max 8 (Util.bit_width n) in
          let ids = A.random_ring_ids rng ~n ~width in
          Inst
            {
              sync = A.algo;
              inputs = A.inputs ~ids ~width g;
              spec = (fun final -> A.spec_holds g ~final);
              codec = Some A.codec;
            });
    };
    {
      algo_name = "mis";
      algo_doc = "maximal independent set, greedy local-max (general graphs)";
      ring_only = false;
      in_sim_grid = false;
      instantiate =
        (fun rng g ->
          let module A = Ss_algos.Mis in
          let inputs = Ss_algos.Leader_election.random_ids rng g in
          Inst
            {
              sync = A.algo;
              inputs;
              spec = (fun final -> A.spec_holds g ~inputs ~final);
              codec = Some A.codec;
            });
    };
    {
      algo_name = "matching";
      algo_doc = "maximal matching, propose-to-minimum (general graphs)";
      ring_only = false;
      in_sim_grid = false;
      instantiate =
        (fun rng g ->
          let module A = Ss_algos.Matching in
          let inputs = Ss_algos.Leader_election.random_ids rng g in
          Inst
            {
              sync = A.algo;
              inputs;
              spec = (fun final -> A.spec_holds g ~inputs ~final);
              codec = Some A.codec;
            });
    };
    {
      algo_name = "coloring";
      algo_doc = "greedy (Delta+1)-coloring (general graphs)";
      ring_only = false;
      in_sim_grid = false;
      instantiate =
        (fun rng g ->
          let module A = Ss_algos.Coloring in
          let inputs = Ss_algos.Leader_election.random_ids rng g in
          Inst
            {
              sync = A.algo;
              inputs;
              spec = (fun final -> A.spec_holds g ~inputs ~final);
              codec = Some A.codec;
            });
    };
    {
      algo_name = "ringmis";
      algo_doc = "MIS on oriented rings, composed on Cole-Vishkin";
      ring_only = true;
      in_sim_grid = false;
      instantiate =
        (fun rng g ->
          let module A = Ss_algos.Ring_mis in
          let n = G.Graph.n g in
          let width = max 8 (Util.bit_width n) in
          let ids = Ss_algos.Cole_vishkin.random_ring_ids rng ~n ~width in
          Inst
            {
              sync = A.algo;
              inputs = A.inputs ~ids ~width g;
              spec = (fun final -> A.spec_holds g ~final);
              codec = None;
            });
    };
  ]

let algo_names () = List.map (fun a -> a.algo_name) algorithms
let sim_algo_names () =
  List.filter_map
    (fun a -> if a.in_sim_grid then Some a.algo_name else None)
    algorithms

let find_algo name =
  match List.find_opt (fun a -> a.algo_name = name) algorithms with
  | Some a -> a
  | None ->
      failwith
        (Printf.sprintf "unknown algorithm: %s (known: %s)" name
           (String.concat ", " (algo_names ())))

let is_ring g =
  G.Graph.m g = G.Graph.n g
  && G.Graph.fold_nodes g ~init:true ~f:(fun acc v ->
         acc && G.Graph.degree g v = 2)

let validate_topology a g =
  if a.ring_only && not (is_ring g) then
    Error
      (Printf.sprintf "algorithm %s is ring-only (n = m, all degrees 2)"
         a.algo_name)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Topologies                                                           *)
(* ------------------------------------------------------------------ *)

(* The single source of the CLI topology syntax and of each family's
   smallest accepted size: a family takes one integer ([ring:N]) or two
   joined by 'x' ([torus:RxC]), each at least its minimum.  The
   builders keep their own checks as the library guard; these minima
   let the CLI reject a too-small size as a usage error instead.  Kept
   as data so [fasst list] renders the syntax. *)
type family =
  | N of { min : int; build : Rng.t -> int -> G.Graph.t }
  | AxB of { min : int * int; build : Rng.t -> int -> int -> G.Graph.t }

let topologies =
  let n min build = N { min; build = (fun _ a -> build a) } in
  let axb min build = AxB { min; build = (fun _ a b -> build a b) } in
  [
    ("path", "path:N", n 1 G.Builders.path);
    ("ring", "ring:N", n 3 G.Builders.cycle);
    ("cycle", "cycle:N", n 3 G.Builders.cycle);
    ("star", "star:N", n 2 G.Builders.star);
    ("tree", "tree:N", n 1 G.Builders.binary_tree);
    ("complete", "complete:N", n 1 G.Builders.complete);
    ("hypercube", "hypercube:D", n 0 G.Builders.hypercube);
    ( "grid",
      "grid:RxC",
      axb (1, 1) (fun rows cols -> G.Builders.grid ~rows ~cols) );
    ( "torus",
      "torus:RxC",
      axb (3, 3) (fun rows cols -> G.Builders.torus ~rows ~cols) );
    ( "random",
      "random:N",
      N
        {
          min = 1;
          build =
            (fun rng n ->
              G.Builders.random_connected rng ~n ~extra_edges:(n / 2));
        } );
    ("random4", "random4:N", N { min = 8; build = G.Builders.random4 });
    ( "lollipop",
      "lollipop:CxT",
      axb (1, 0) (fun clique tail -> G.Builders.lollipop ~clique ~tail) );
    ("wheel", "wheel:N", n 4 G.Builders.wheel);
    ("bipartite", "bipartite:AxB", axb (1, 1) G.Builders.complete_bipartite);
    ( "caterpillar",
      "caterpillar:SxL",
      axb (1, 0) (fun spine legs -> G.Builders.caterpillar ~spine ~legs) );
    ("gk", "gk:K", n 1 G.Gk.make);
  ]

let topology_syntax () = List.map (fun (_, syntax, _) -> syntax) topologies

(* [Ok build] when [spec] names a known family and its tail has the
   family's shape with every size at least the family's minimum. *)
let split_topology spec =
  let unknown () =
    Error
      (Printf.sprintf "unknown topology: %s (families: %s)" spec
         (String.concat ", " (List.map (fun (name, _, _) -> name) topologies)))
  in
  match String.index_opt spec ':' with
  | None -> unknown ()
  | Some i -> (
      let family = String.sub spec 0 i in
      let tail = String.sub spec (i + 1) (String.length spec - i - 1) in
      match List.find_opt (fun (name, _, _) -> name = family) topologies with
      | None -> unknown ()
      | Some (_, syntax, shape) -> (
          let malformed () =
            Error
              (Printf.sprintf "malformed topology %s: expected %s" spec syntax)
          in
          let too_small smallest =
            Error
              (Printf.sprintf "topology %s is too small: the smallest is %s:%s"
                 spec family smallest)
          in
          match shape with
          | N { min; build } -> (
              match int_of_string_opt tail with
              | None -> malformed ()
              | Some a when a < min -> too_small (string_of_int min)
              | Some a -> Ok (fun rng -> build rng a))
          | AxB { min = ma, mb; build } -> (
              let dims = String.split_on_char 'x' tail in
              match List.map int_of_string_opt dims with
              | [ Some a; Some b ] when a >= ma && b >= mb ->
                  Ok (fun rng -> build rng a b)
              | [ Some _; Some _ ] -> too_small (Printf.sprintf "%dx%d" ma mb)
              | _ -> malformed ())))

let check_topology spec = Result.map ignore (split_topology spec)

let parse_topology rng spec =
  match split_topology spec with
  | Ok build -> build rng
  | Error e -> failwith e
