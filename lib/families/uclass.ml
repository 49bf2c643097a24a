module Port_graph = Shades_graph.Port_graph
module Paths = Shades_graph.Paths
module View_tree = Shades_views.View_tree
module Task = Shades_election.Task
module Scheme = Shades_election.Scheme

type vertex = Port_graph.vertex

type params = { delta : int; k : int }

let check { delta; k } =
  if delta < 4 || k < 1 then
    invalid_arg "Uclass: need delta >= 4 and k >= 1"

let num_trees p =
  check p;
  let z = Blocks.z ~delta:p.delta ~k:p.k in
  let base = p.delta - 1 in
  let rec go acc e =
    if e = 0 then Some acc
    else if acc > max_int / base then None
    else go (acc * base) (e - 1)
  in
  go 1 z

let num_graphs_log2 p =
  match num_trees p with
  | Some y -> float_of_int y *. (log (float_of_int (p.delta - 1)) /. log 2.0)
  | None -> infinity

type t = {
  params : params;
  sigma : int array;
  graph : Port_graph.t;
  cycle_roots : vertex array array;
  heavy : vertex array array;
}

let uniform_sigma p s =
  check p;
  match num_trees p with
  | Some y ->
      if s < 1 || s > p.delta - 1 then invalid_arg "Uclass.uniform_sigma";
      Array.make y s
  | None -> invalid_arg "Uclass.uniform_sigma: class too large"

let build ({ delta; k } as params) ~sigma =
  check params;
  let y =
    match num_trees params with
    | Some y -> y
    | None -> invalid_arg "Uclass.build: class too large to instantiate"
  in
  if Array.length sigma <> y then invalid_arg "Uclass.build: |sigma| <> y";
  Array.iter
    (fun s ->
      if s < 1 || s > delta - 1 then
        invalid_arg "Uclass.build: sigma entry out of range")
    sigma;
  let proto = Proto.create () in
  (* Trees T_{j,b} whose roots form the cycle. *)
  let cycle_roots =
    Array.init y (fun j0 ->
        let x = Blocks.sequence_of_index ~delta ~k (j0 + 1) in
        Array.init 2 (fun b0 ->
            Blocks.add_t_x_b proto ~delta ~k ~x ~variant:(b0 + 1)))
  in
  (* The cycle r_{1,1}, r_{1,2}, r_{2,1}, ..., r_{y,2}: each root's port
     ∆+1 leads to the next root and ∆−1 to the previous. *)
  let ring = Array.init (2 * y) (fun i -> cycle_roots.(i / 2).(i mod 2)) in
  Array.iteri
    (fun i r ->
      Proto.link proto (r, delta + 1) (ring.((i + 1) mod (2 * y)), delta - 1))
    ring;
  (* Heavy copies T_{j,1,1}, T_{j,1,2} (copies of T_{j,1}); the σ_j port
     swap is applied directly: the connecting path towards the cycle
     lands on port ∆−1+σ_j instead of ∆−1, and the decoy path that would
     have used ∆−1+σ_j takes ∆−1. *)
  let heavy =
    Array.init y (fun j0 ->
        let x = Blocks.sequence_of_index ~delta ~k (j0 + 1) in
        Array.init 2 (fun _ ->
            Blocks.add_t_x_b proto ~delta ~k ~x ~variant:1))
  in
  let swap j0 p =
    let s = sigma.(j0) in
    if p = delta - 1 then delta - 1 + s
    else if p = delta - 1 + s then delta - 1
    else p
  in
  for j0 = 0 to y - 1 do
    for c0 = 0 to 1 do
      let r = cycle_roots.(j0).(c0) and h = heavy.(j0).(c0) in
      (* Connecting path of length k+1: port ∆ at r_{j,b}, (swapped)
         port ∆−1 at r_{j,1,b}; interior ports 1 towards the cycle, 0
         towards the heavy node. *)
      let q = Proto.fresh_many proto k in
      Proto.link proto (r, delta) (q.(0), 1);
      for i = 0 to k - 2 do
        Proto.link proto (q.(i), 0) (q.(i + 1), 1)
      done;
      Proto.link proto (q.(k - 1), 0) (h, swap j0 (delta - 1));
      (* ∆−1 decoy paths of length k+1 on (swapped) ports ∆..2∆−2;
         interior ports 0 towards the heavy node, 1 outwards. *)
      for d = 0 to delta - 2 do
        let w = Proto.fresh_many proto (k + 1) in
        Proto.link proto (h, swap j0 (delta + d)) (w.(0), 0);
        for i = 0 to k - 1 do
          Proto.link proto (w.(i), 1) (w.(i + 1), 0)
        done
      done
    done
  done;
  { params; sigma; graph = Proto.build proto; cycle_roots; heavy }

let rmin t =
  let k = t.params.k in
  let best = ref None in
  Array.iter
    (fun pair ->
      Array.iter
        (fun r ->
          let view = View_tree.of_graph t.graph r ~depth:k in
          match !best with
          | Some (_, bv) when View_tree.compare bv view <= 0 -> ()
          | _ -> best := Some (r, view))
        pair)
    t.cycle_roots;
  fst (Option.get !best)

(* --- The Lemma 3.9 algorithm, advice = the full map. --- *)

type plan = {
  delta : int;
  k : int;
  rmin_key : string; (* encoded B^k of the elected cycle node *)
  heavy_port : (string, int) Hashtbl.t; (* encoded heavy view -> port *)
}

let view_key v = Shades_bits.Bitstring.to_string (View_tree.encode v)

(* First port of a BFS shortest path from [w] to the nearest vertex
   satisfying [target]. *)
let first_port_towards g w ~target =
  let n = Port_graph.order g in
  let parent_port = Array.make n (-1) in
  let first = Array.make n (-1) in
  let queue = Queue.create () in
  let found = ref None in
  parent_port.(w) <- 0;
  Queue.add w queue;
  while !found = None && not (Queue.is_empty queue) do
    let x = Queue.take queue in
    for p = 0 to Port_graph.degree g x - 1 do
      if !found = None then begin
        let u = Port_graph.neighbor_vertex g x p in
        if parent_port.(u) < 0 then begin
          parent_port.(u) <- p;
          first.(u) <- (if x = w then p else first.(x));
          Queue.add u queue;
          if target u then found := Some u
        end
      end
    done
  done;
  match !found with
  | Some u -> first.(u)
  | None -> invalid_arg "Uclass.first_port_towards: no target"

let compute_plan advice =
  let map = Port_graph.decode advice in
  let maxdeg = Port_graph.max_degree map in
  let delta = (maxdeg + 1) / 2 in
  let is_cycle v = Port_graph.degree map v = delta + 2 in
  let heavies =
    List.filter
      (fun v -> Port_graph.degree map v = (2 * delta) - 1)
      (Port_graph.vertices map)
  in
  let k =
    let h = List.hd heavies in
    let dist = Paths.bfs_distances map h in
    let best = ref max_int in
    List.iter
      (fun v -> if is_cycle v && dist.(v) < !best then best := dist.(v))
      (Port_graph.vertices map);
    !best - 1
  in
  let rmin_key =
    let best = ref None in
    List.iter
      (fun v ->
        if is_cycle v then begin
          let view = View_tree.of_graph map v ~depth:k in
          match !best with
          | Some bv when View_tree.compare bv view <= 0 -> ()
          | _ -> best := Some view
        end)
      (Port_graph.vertices map);
    view_key (Option.get !best)
  in
  let heavy_port = Hashtbl.create 64 in
  List.iter
    (fun h ->
      let key = view_key (View_tree.of_graph map h ~depth:k) in
      let port = first_port_towards map h ~target:is_cycle in
      match Hashtbl.find_opt heavy_port key with
      | None -> Hashtbl.add heavy_port key port
      | Some p -> assert (p = port) (* Claim 1: twins answer alike *))
    heavies;
  { delta; k; rmin_key; heavy_port }

let plan_of = Scheme.plan compute_plan

let pe_scheme =
  {
    Scheme.name = "U-class PE (Lemma 3.9)";
    oracle = Port_graph.encode;
    rounds_of = (fun ~advice ~degree:_ -> (plan_of advice).k);
    decide =
      (fun ~advice view ->
        let plan = plan_of advice in
        let d = view.View_tree.degree in
        if d = 1 then Task.Follower 0
        else if d = plan.delta + 2 then
          if String.equal (view_key view) plan.rmin_key then Task.Leader
          else Task.Follower (plan.delta + 1)
        else if d = (2 * plan.delta) - 1 then
          Task.Follower (Hashtbl.find plan.heavy_port (view_key view))
        else begin
          match View_tree.port_towards_degree view (plan.delta + 2) with
          | Some p -> Task.Follower p
          | None -> (
              match
                View_tree.port_towards_degree view ((2 * plan.delta) - 1)
              with
              | Some p -> Task.Follower p
              | None ->
                  invalid_arg
                    "Uclass.pe_scheme: light node sees no anchor node")
        end);
  }
