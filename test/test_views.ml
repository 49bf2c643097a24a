(* Tests for view trees and refinement-based view equivalence. *)

open Shades_graph
open Shades_views

let view = Alcotest.testable View_tree.pp View_tree.equal

let three_node_line () = Gen.path_with_ports [ (0, 0); (1, 0) ]

let test_explicit_views () =
  let g = three_node_line () in
  let b0 = View_tree.of_graph g 1 ~depth:0 in
  Alcotest.(check int) "B0 degree" 2 b0.View_tree.degree;
  Alcotest.(check int) "B0 nodes" 1 (View_tree.node_count b0);
  let b1 = View_tree.of_graph g 1 ~depth:1 in
  Alcotest.(check int) "B1 height" 1 (View_tree.height b1);
  Alcotest.(check int) "B1 nodes" 3 (View_tree.node_count b1);
  (* port 0 of the middle node leads to the left leaf, arriving on 0 *)
  let q, sub = b1.View_tree.children.(0) in
  Alcotest.(check int) "arrival port" 0 q;
  Alcotest.(check int) "leaf degree" 1 sub.View_tree.degree

let test_view_includes_backtracking () =
  (* Views are trees of all paths, including non-simple ones: at depth 2
     the left leaf sees the middle node and then both of its neighbours,
     one of which is the leaf itself. *)
  let g = three_node_line () in
  let b2 = View_tree.of_graph g 0 ~depth:2 in
  Alcotest.(check int) "nodes" 4 (View_tree.node_count b2)

let test_truncate () =
  let g = Gen.oriented_ring 5 in
  let b3 = View_tree.of_graph g 0 ~depth:3 in
  Alcotest.check view "truncate = shallow build"
    (View_tree.of_graph g 0 ~depth:1)
    (View_tree.truncate b3 ~depth:1)

let test_compare_order () =
  let g = Gen.path 4 in
  let a = View_tree.of_graph g 0 ~depth:1 in
  let b = View_tree.of_graph g 1 ~depth:1 in
  Alcotest.(check bool) "degree-first order" true (View_tree.compare a b < 0);
  Alcotest.(check int) "self" 0 (View_tree.compare a a)

let test_contains_degree () =
  let g = Gen.star 5 in
  let b1 = View_tree.of_graph g 1 ~depth:1 in
  Alcotest.(check bool) "sees center" true (View_tree.contains_degree b1 4);
  Alcotest.(check bool) "no degree 3" false (View_tree.contains_degree b1 3)

let test_encode_decode () =
  let g = Gen.oriented_ring 5 in
  let b = View_tree.of_graph g 2 ~depth:3 in
  Alcotest.check view "roundtrip" b (View_tree.decode (View_tree.encode b))

let test_ring_symmetric () =
  (* The oriented ring is vertex-transitive: a single class forever. *)
  let g = Gen.oriented_ring 7 in
  let t = Refinement.fixpoint g in
  Alcotest.(check int) "one class" 1
    (Refinement.class_count t ~depth:(Refinement.depth t));
  Alcotest.(check bool) "infeasible" false (Refinement.feasible g)

let test_path_classes () =
  (* Gen.path's convention (port 0 rightwards) breaks the mirror symmetry:
     the two leaves arrive on different far ports, so depth 1 is already
     discrete. *)
  let g = Gen.path 4 in
  let t = Refinement.compute g ~depth:2 in
  Alcotest.(check int) "depth0: leaves vs interior" 2
    (Refinement.class_count t ~depth:0);
  Alcotest.(check int) "depth1 discrete" 4 (Refinement.class_count t ~depth:1);
  Alcotest.(check (list int)) "depth1 singletons" [ 0; 1; 2; 3 ]
    (List.sort Int.compare (Refinement.singletons t ~depth:1));
  Alcotest.(check (option int)) "min unique depth" (Some 1)
    (Refinement.min_unique_depth g);
  Alcotest.(check bool) "feasible" true (Refinement.feasible g)

let test_k2_infeasible () =
  let g = Port_graph.of_edges 2 [ ((0, 0), (1, 0)) ] in
  Alcotest.(check bool) "K2 infeasible" false (Refinement.feasible g);
  Alcotest.(check (option int)) "no unique depth" None
    (Refinement.min_unique_depth g)

let test_mirror_path_infeasible () =
  (* Mirror-symmetric port labeling admits the end-swapping automorphism,
     so no node ever has a unique view. *)
  let g = Gen.path_with_ports [ (0, 0); (1, 1); (0, 0) ] in
  Alcotest.(check bool) "mirror path infeasible" false (Refinement.feasible g);
  (* ... while the sorted-port clique is rigid, hence feasible. *)
  Alcotest.(check bool) "sorted clique feasible" true
    (Refinement.feasible (Gen.clique 4))

let test_cross_graph () =
  (* Oriented rings of any two sizes share the same universal cover (the
     bi-infinite oriented path), so their views agree at EVERY depth:
     this is why no map-less algorithm can distinguish them. *)
  let a = Gen.oriented_ring 5 and b = Gen.oriented_ring 9 in
  Alcotest.(check bool) "rings equal at depth 2" true
    (Refinement.equal_views_cross a 0 b 0 ~depth:2);
  Alcotest.(check bool) "rings equal at depth 7" true
    (Refinement.equal_views_cross a 0 b 0 ~depth:7);
  (* A ring and a path differ as soon as a leaf enters the view. *)
  let p = Gen.path 9 in
  Alcotest.(check bool) "ring vs path centre" false
    (Refinement.equal_views_cross a 0 p 4 ~depth:7)

let test_star_min_depth_zero () =
  Alcotest.(check (option int)) "center unique at depth 0" (Some 0)
    (Refinement.min_unique_depth (Gen.star 5))

let test_quotient () =
  (* Oriented ring: one class, the whole ring is one fiber. *)
  let q = Quotient.of_graph (Gen.oriented_ring 6) in
  Alcotest.(check int) "ring classes" 1 q.Quotient.classes;
  Alcotest.(check int) "ring fiber" 6 q.Quotient.fiber_size;
  Alcotest.(check (array (pair int int)))
    "ring port map loops" [| (0, 1); (0, 0) |] q.Quotient.port_map.(0);
  Alcotest.(check bool) "nontrivial" false (Quotient.is_trivial q);
  (* Mirror path: the end-swapping automorphism gives fibers of 2. *)
  let q = Quotient.of_graph (Gen.path_with_ports [ (0, 0); (1, 1); (0, 0) ]) in
  Alcotest.(check int) "mirror classes" 2 q.Quotient.classes;
  Alcotest.(check int) "mirror fiber" 2 q.Quotient.fiber_size;
  (* Feasible graph: trivial quotient. *)
  let q = Quotient.of_graph (Gen.path 4) in
  Alcotest.(check bool) "path trivial" true (Quotient.is_trivial q);
  Alcotest.(check int) "path classes" 4 q.Quotient.classes

(* Property tests: refinement agrees with explicit view trees. *)

let rand_graph =
  QCheck.make
    ~print:(fun (seed, n, e, d) ->
      Printf.sprintf "seed=%d n=%d extra=%d depth=%d" seed n e d)
    QCheck.Gen.(
      quad (int_bound 10_000) (int_range 2 12) (int_bound 6) (int_range 0 3))

let build (seed, n, extra, _) =
  Gen.random (Random.State.make [| seed |]) n ~extra_edges:extra

let prop_refinement_matches_trees =
  QCheck.Test.make ~name:"refinement classes = explicit view equality"
    ~count:100 rand_graph (fun ((_, n, _, depth) as params) ->
      let g = build params in
      let t = Refinement.compute g ~depth in
      let views =
        Array.init n (fun v -> View_tree.of_graph g v ~depth)
      in
      let ok = ref true in
      for v = 0 to n - 1 do
        for u = 0 to n - 1 do
          let by_tree = View_tree.equal views.(v) views.(u) in
          let by_ref = Refinement.equal_views t ~depth v u in
          if by_tree <> by_ref then ok := false
        done
      done;
      !ok)

let prop_refinement_monotone =
  QCheck.Test.make ~name:"deeper views refine shallower" ~count:100 rand_graph
    (fun ((_, n, _, _) as params) ->
      let g = build params in
      let t = Refinement.fixpoint g in
      let d = Refinement.depth t in
      let ok = ref true in
      for depth = 1 to d do
        for v = 0 to n - 1 do
          for u = 0 to n - 1 do
            if
              Refinement.equal_views t ~depth v u
              && not (Refinement.equal_views t ~depth:(depth - 1) v u)
            then ok := false
          done
        done
      done;
      !ok)

let prop_encode_roundtrip =
  QCheck.Test.make ~name:"view encode/decode roundtrip" ~count:100 rand_graph
    (fun ((_, _, _, depth) as params) ->
      let g = build params in
      let b = View_tree.of_graph g 0 ~depth in
      View_tree.equal b (View_tree.decode (View_tree.encode b)))

let prop_truncate_consistent =
  QCheck.Test.make ~name:"truncate agrees with direct build" ~count:100
    rand_graph (fun ((_, _, _, depth) as params) ->
      let g = build params in
      let deep = View_tree.of_graph g 0 ~depth in
      List.for_all
        (fun d ->
          View_tree.equal
            (View_tree.truncate deep ~depth:d)
            (View_tree.of_graph g 0 ~depth:d))
        (List.init (depth + 1) Fun.id))

let prop_compare_total =
  QCheck.Test.make ~name:"view compare is antisymmetric" ~count:100 rand_graph
    (fun ((_, n, _, depth) as params) ->
      let g = build params in
      let vs = Array.init n (fun v -> View_tree.of_graph g v ~depth) in
      let ok = ref true in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              if View_tree.compare a b <> -View_tree.compare b a then
                ok := false)
            vs)
        vs;
      !ok)

let prop_quotient_covering =
  (* The graph covers its quotient: classes divide n evenly and the
     quotient port map is consistent with every member. *)
  QCheck.Test.make ~name:"quotient is a well-defined covering" ~count:100
    rand_graph (fun ((_, n, _, _) as params) ->
      let g = build params in
      let q = Quotient.of_graph g in
      q.Quotient.classes * q.Quotient.fiber_size = n
      && List.for_all
           (fun v ->
             let c = q.Quotient.class_of.(v) in
             q.Quotient.degree.(c) = Port_graph.degree g v
             && List.for_all
                  (fun p ->
                    let u, arr = Port_graph.neighbor g v p in
                    q.Quotient.port_map.(c).(p)
                    = (q.Quotient.class_of.(u), arr))
                  (List.init (Port_graph.degree g v) Fun.id))
           (Port_graph.vertices g))

let prop_class_sizes_equal =
  (* Yamashita–Kameda: at the fixpoint all classes of a connected graph
     have the same cardinality. *)
  QCheck.Test.make ~name:"fixpoint classes have equal size" ~count:100
    rand_graph (fun params ->
      let g = build params in
      let t = Refinement.fixpoint g in
      let classes = Refinement.classes t ~depth:(Refinement.depth t) in
      let sizes = Array.map List.length classes in
      Array.for_all (fun s -> s = sizes.(0)) sizes)

(* Views as the full-information protocol gathers them: DAGs whose
   subtrees are shared between neighbours and rounds. *)
let gathered g ~depth =
  Shades_localsim.Full_info.run g ~rounds:depth
    ~advice:Shades_bits.Bitstring.empty ~decide:(fun ~advice:_ view -> view)

let rec explicit_count t =
  Array.fold_left (fun acc (_, sub) -> acc + explicit_count sub) 1
    t.View_tree.children

let prop_node_count_shared =
  QCheck.Test.make ~name:"node_count of a shared view = explicit count"
    ~count:100 rand_graph (fun ((_, _, _, depth) as params) ->
      let g = build params in
      Array.for_all
        (fun view -> View_tree.node_count view = explicit_count view)
        (gathered g ~depth))

(* [find_tree] is exact: it finds a gathered view iff some interned map
   view is equal to it as an explicit tree, and then it returns that
   view's cell.  Views gathered on a second graph exercise misses; a view
   one round deeper than anything interned must miss. *)
let prop_find_tree_exact =
  QCheck.Test.make ~name:"Cview.find_tree = explicit-tree scan" ~count:100
    rand_graph (fun ((seed, n, extra, depth) as params) ->
      let g = build params in
      let other = build (seed + 1, n, extra, depth) in
      let ctx = Cview.create_ctx () in
      let cells = Array.init n (fun v -> Cview.of_graph ctx g v ~depth) in
      let trees = Array.init n (fun v -> View_tree.of_graph g v ~depth) in
      let agrees view =
        let expected =
          List.find_opt
            (fun v -> View_tree.equal trees.(v) view)
            (List.init n Fun.id)
        in
        match (Cview.find_tree ctx view, expected) with
        | None, None -> true
        | Some c, Some v -> Cview.equal c cells.(v)
        | _ -> false
      in
      Array.for_all2
        (fun view cell ->
          match Cview.find_tree ctx view with
          | Some c -> Cview.equal c cell
          | None -> false)
        (gathered g ~depth) cells
      && Array.for_all agrees (gathered other ~depth)
      && Array.for_all
           (fun view -> Option.is_none (Cview.find_tree ctx view))
           (gathered g ~depth:(depth + 1)))

let () =
  Alcotest.run "shades_views"
    [
      ( "view_tree",
        [
          Alcotest.test_case "explicit views" `Quick test_explicit_views;
          Alcotest.test_case "backtracking paths" `Quick
            test_view_includes_backtracking;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "compare" `Quick test_compare_order;
          Alcotest.test_case "contains degree" `Quick test_contains_degree;
          Alcotest.test_case "encode/decode" `Quick test_encode_decode;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "ring symmetric" `Quick test_ring_symmetric;
          Alcotest.test_case "path classes" `Quick test_path_classes;
          Alcotest.test_case "K2 infeasible" `Quick test_k2_infeasible;
          Alcotest.test_case "mirror path infeasible" `Quick
            test_mirror_path_infeasible;
          Alcotest.test_case "cross graph" `Quick test_cross_graph;
          Alcotest.test_case "star depth 0" `Quick test_star_min_depth_zero;
          Alcotest.test_case "quotient" `Quick test_quotient;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_refinement_matches_trees;
            prop_refinement_monotone;
            prop_encode_roundtrip;
            prop_truncate_consistent;
            prop_compare_total;
            prop_quotient_covering;
            prop_class_sizes_equal;
            prop_node_count_shared;
            prop_find_tree_exact;
          ] );
    ]
