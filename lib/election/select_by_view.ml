module Refinement = Shades_views.Refinement
module View_tree = Shades_views.View_tree

let chosen_view g =
  match Refinement.min_unique_depth g with
  | None -> invalid_arg "Select_by_view: infeasible graph"
  | Some k ->
      let refinement = Refinement.compute g ~depth:k in
      let candidates = Refinement.singletons refinement ~depth:k in
      let views = List.map (fun v -> View_tree.of_graph g v ~depth:k) candidates in
      List.fold_left
        (fun best view ->
          if View_tree.compare view best < 0 then view else best)
        (List.hd views) (List.tl views)

let oracle g = View_tree.encode (chosen_view g)
let chosen = Scheme.plan View_tree.decode

let scheme =
  {
    Scheme.name = "select-by-view (Thm 2.2)";
    oracle;
    rounds_of = (fun ~advice ~degree:_ -> View_tree.height (chosen advice));
    decide =
      (fun ~advice view ->
        if View_tree.equal (chosen advice) view then Task.Leader
        else Task.Follower ());
  }

let advice_bits g = Shades_bits.Bitstring.length (oracle g)
