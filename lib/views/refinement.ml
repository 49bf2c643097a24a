module Port_graph = Shades_graph.Port_graph

type t = {
  graph : Port_graph.t;
  levels : int array array; (* levels.(d).(v) = class id of v at depth d *)
  counts : int array; (* counts.(d) = number of classes at depth d *)
}

(* One refinement step: the new color of [v] is a dense id for the
   signature (old color of v, [(q_p, old color of neighbor_p)]).
   Including the old color is redundant (it is determined by degree and
   children) but harmless and keeps signatures short-lived. *)
let refine_step g prev =
  let n = Port_graph.order g in
  let table = Hashtbl.create (2 * n) in
  let next = Array.make n 0 in
  let fresh = ref 0 in
  for v = 0 to n - 1 do
    let d = Port_graph.degree g v in
    let sig_v =
      ( prev.(v),
        Array.init d (fun p ->
            let u, q = Port_graph.neighbor g v p in
            (q, prev.(u))) )
    in
    let id =
      match Hashtbl.find_opt table sig_v with
      | Some id -> id
      | None ->
          let id = !fresh in
          incr fresh;
          Hashtbl.add table sig_v id;
          id
    in
    next.(v) <- id
  done;
  (next, !fresh)

let level0 g =
  let n = Port_graph.order g in
  let table = Hashtbl.create 16 in
  let colors = Array.make n 0 in
  let fresh = ref 0 in
  for v = 0 to n - 1 do
    let d = Port_graph.degree g v in
    let id =
      match Hashtbl.find_opt table d with
      | Some id -> id
      | None ->
          let id = !fresh in
          incr fresh;
          Hashtbl.add table d id;
          id
    in
    colors.(v) <- id
  done;
  (colors, !fresh)

let compute g ~depth =
  if depth < 0 then invalid_arg "Refinement.compute";
  let l0, c0 = level0 g in
  let levels = Array.make (depth + 1) l0 in
  let counts = Array.make (depth + 1) c0 in
  for d = 1 to depth do
    let next, count = refine_step g levels.(d - 1) in
    levels.(d) <- next;
    counts.(d) <- count
  done;
  { graph = g; levels; counts }

let fixpoint g =
  let rec go levels counts prev prev_count d =
    let next, count = refine_step g prev in
    if count = prev_count then
      (* Partition at depth d-1 is stable: deeper partitions refine it and
         have the same size, hence are equal to it. *)
      {
        graph = g;
        levels = Array.of_list (List.rev levels);
        counts = Array.of_list (List.rev counts);
      }
    else go (next :: levels) (count :: counts) next count (d + 1)
  in
  let l0, c0 = level0 g in
  go [ l0 ] [ c0 ] l0 c0 1

let depth t = Array.length t.levels - 1

let check_depth t d =
  if d < 0 || d > depth t then invalid_arg "Refinement: depth out of range"

let class_of t ~depth v =
  check_depth t depth;
  t.levels.(depth).(v)

let class_count t ~depth =
  check_depth t depth;
  t.counts.(depth)

let classes t ~depth:d =
  check_depth t d;
  let groups = Array.make t.counts.(d) [] in
  let lev = t.levels.(d) in
  for v = Port_graph.order t.graph - 1 downto 0 do
    groups.(lev.(v)) <- v :: groups.(lev.(v))
  done;
  groups

let singletons t ~depth:d =
  let groups = classes t ~depth:d in
  Array.to_list groups
  |> List.filter_map (function [ v ] -> Some v | _ -> None)

let equal_views t ~depth v u =
  check_depth t depth;
  t.levels.(depth).(v) = t.levels.(depth).(u)

let equal_views_cross ga va gb vb ~depth =
  let union, off = Port_graph.disjoint_union [ ga; gb ] in
  let t = compute union ~depth in
  equal_views t ~depth (off.(0) + va) (off.(1) + vb)

let first_singleton_depth t =
  let rec go d =
    if d > depth t then None
    else if singletons t ~depth:d <> [] then Some d
    else go (d + 1)
  in
  go 0

let min_unique_depth g = first_singleton_depth (fixpoint g)

let feasible g =
  let t = fixpoint g in
  class_count t ~depth:(depth t) = Port_graph.order g

let canonical_order g =
  let n = Port_graph.order g in
  (* Like [fixpoint], but new color ids are the sorted ranks of the
     round's signatures rather than first-encounter ids, which makes
     them isomorphism-invariant. *)
  let rank_by signatures =
    let sorted = List.sort_uniq compare (Array.to_list signatures) in
    let ranks = Hashtbl.create (2 * n) in
    List.iteri (fun i s -> Hashtbl.replace ranks s i) sorted;
    (Array.map (Hashtbl.find ranks) signatures, List.length sorted)
  in
  let step prev =
    rank_by
      (Array.init n (fun v ->
           ( prev.(v),
             Array.init (Port_graph.degree g v) (fun p ->
                 let u, q = Port_graph.neighbor g v p in
                 (q, prev.(u))) )))
  in
  let rec go prev prev_count =
    let next, count = step prev in
    if count = prev_count then
      if count = n then Some next else None
    else go next count
  in
  let colors0, count0 =
    rank_by (Array.init n (fun v -> (0, [| (Port_graph.degree g v, 0) |])))
  in
  go colors0 count0
