module Port_graph = Shades_graph.Port_graph
module Cview = Shades_views.Cview

(* Each node independently recomputes the same deterministic solution
   from the map; anonymity is respected because a node locates itself in
   the map only up to view equivalence, and the solution is constant on
   view classes by construction.  [plan] and [lookup] run once per advice. *)
let make name psi solve =
  let plan advice =
    let map = Port_graph.decode advice in
    match psi map with
    | None -> invalid_arg "Map_advice: infeasible graph"
    | Some k -> (map, k)
  in
  let plan = Scheme.plan plan in
  let lookup =
    Scheme.plan (fun advice ->
        let map, k = plan advice in
        let answers =
          match solve map ~depth:k with
          | Some a -> a
          | None -> assert false (* k = ψ is solvable by definition *)
        in
        let ctx = Cview.create_ctx () and by_id = Hashtbl.create 64 in
        (* downwards, so a view class answers as its least vertex *)
        for v = Port_graph.order map - 1 downto 0 do
          let view = Cview.of_graph ctx map v ~depth:k in
          Hashtbl.replace by_id view.Cview.id answers.(v)
        done;
        (ctx, by_id))
  in
  {
    Scheme.name;
    oracle = Port_graph.encode;
    rounds_of = (fun ~advice ~degree:_ -> snd (plan advice));
    decide =
      (fun ~advice view ->
        let ctx, by_id = lookup advice in
        match Cview.find_tree ctx view with
        | Some c when Hashtbl.mem by_id c.Cview.id -> Hashtbl.find by_id c.id
        | _ -> invalid_arg "Map_advice: view not found in map");
  }

let selection = make "map-advice S" Index.psi_s Index.solve_s
let port_election = make "map-advice PE" Index.psi_pe Index.solve_pe

let port_path_election =
  make "map-advice PPE" Index.psi_ppe Index.solve_ppe

let complete_port_path_election =
  make "map-advice CPPE" Index.psi_cppe Index.solve_cppe
