(* Tests for the class G_{∆,k} (Section 2.2): structure, Lemmas 2.5-2.8,
   minimum election time, and the Theorem 2.9 fooling mechanism. *)

open Shades_graph
open Shades_views
open Shades_election
open Shades_families

let build delta k i = Gclass.build { Gclass.delta; k } ~i

let test_fact_2_3 () =
  (* |G_{∆,k}| = (∆−1)^{(∆−2)(∆−1)^{k−1}} *)
  let count d k = Gclass.num_graphs { Gclass.delta = d; k } in
  Alcotest.(check (option int)) "3,1" (Some 2) (count 3 1);
  Alcotest.(check (option int)) "3,2" (Some 4) (count 3 2);
  Alcotest.(check (option int)) "4,1" (Some 9) (count 4 1);
  Alcotest.(check (option int)) "4,2" (Some 729) (count 4 2);
  Alcotest.(check (option int)) "5,2" (Some 16777216) (count 5 2);
  (* ∆=6, k=3: (5)^(4·25)=5^100 overflows — the formula still has a log. *)
  Alcotest.(check (option int)) "6,3 overflows" None
    (count 6 3);
  let log2 = Gclass.num_graphs_log2 { Gclass.delta = 6; k = 3 } in
  Alcotest.(check bool) "log2 5^100" true (abs_float (log2 -. 232.19) < 0.1)

let test_structure () =
  let { Gclass.graph = g; cycle; trees; special_root; _ } = build 4 2 3 in
  (* cycle: 4i−1 = 11 nodes of degree 3 with the tree on port 2 *)
  Alcotest.(check int) "cycle length" 11 (Array.length cycle);
  Array.iter
    (fun c -> Alcotest.(check int) "cycle degree" 3 (Port_graph.degree g c))
    cycle;
  (* 11 hanging trees: two copies of T_{j,1} for j<=3, two of T_{j,2}
     for j<3, one T_{3,2} *)
  Alcotest.(check int) "tree count" 11 (List.length trees);
  List.iter
    (fun { Gclass.root; _ } ->
      Alcotest.(check int) "root degree = delta" 4 (Port_graph.degree g root))
    trees;
  Alcotest.(check bool) "special root is a tree root" true
    (List.exists (fun t -> t.Gclass.root = special_root) trees);
  Alcotest.(check bool) "connected" true (Paths.is_connected g);
  Alcotest.(check int) "max degree = delta" 4 (Port_graph.max_degree g)

let test_prop_2_4_roots_equal_below_k () =
  (* All tree roots share the same view at depth k−1 (and hence below). *)
  let { Gclass.graph = g; trees; _ } = build 4 2 2 in
  let t = Refinement.compute g ~depth:1 in
  let roots = List.map (fun m -> m.Gclass.root) trees in
  let c0 = Refinement.class_of t ~depth:1 (List.hd roots) in
  List.iter
    (fun r ->
      Alcotest.(check int) "root class at k-1" c0
        (Refinement.class_of t ~depth:1 r))
    roots

let test_lemma_2_5_cycle_uniform () =
  (* All cycle nodes share one view class at every depth up to k. *)
  let { Gclass.graph = g; cycle; _ } = build 4 2 2 in
  let t = Refinement.compute g ~depth:2 in
  let c0 = Refinement.class_of t ~depth:2 cycle.(0) in
  Array.iter
    (fun c ->
      Alcotest.(check int) "cycle class at k" c0
        (Refinement.class_of t ~depth:2 c))
    cycle

let test_lemma_2_6_unique_view () =
  (* r_{i,2} is the only node with a unique B^k. *)
  List.iter
    (fun (delta, k, i) ->
      let { Gclass.graph = g; special_root; _ } = build delta k i in
      let t = Refinement.compute g ~depth:k in
      Alcotest.(check (list int))
        (Printf.sprintf "singletons at k (delta=%d k=%d i=%d)" delta k i)
        [ special_root ]
        (Refinement.singletons t ~depth:k))
    [ (3, 1, 2); (3, 2, 2); (4, 1, 5); (4, 2, 3); (5, 1, 7) ]

let test_lemma_2_7_selection_index () =
  (* ψ_S(G_i) = k: no unique view at depth k−1, one at depth k. *)
  List.iter
    (fun (delta, k, i) ->
      let { Gclass.graph = g; _ } = build delta k i in
      Alcotest.(check (option int))
        (Printf.sprintf "psi_S (delta=%d k=%d i=%d)" delta k i)
        (Some k)
        (Refinement.min_unique_depth g))
    [ (3, 1, 2); (3, 2, 2); (4, 1, 5); (4, 2, 3); (5, 1, 7) ]

let test_g1_degenerate () =
  (* Reproduction finding: the paper's Lemma 2.6 fails on G_1 — without a
     duplicated variant-2 tree, the appended-path nodes of T_{1,2} see
     the port swap at p_k within k−1 rounds, so ψ_S(G_1) = 1 < k. *)
  List.iter
    (fun (delta, k) ->
      let { Gclass.graph = g; Gclass.special_root; _ } = build delta k 1 in
      Alcotest.(check (option int))
        (Printf.sprintf "psi_S(G_1) (delta=%d k=%d)" delta k)
        (Some 1)
        (Refinement.min_unique_depth g);
      let t = Refinement.compute g ~depth:k in
      let singletons = Refinement.singletons t ~depth:k in
      Alcotest.(check bool) "extra unique views beyond r_{1,2}" true
        (List.length singletons > 1);
      Alcotest.(check bool) "r_{1,2} still unique" true
        (List.mem special_root singletons))
    [ (3, 2); (3, 3); (4, 2) ]

let test_lemma_2_8_cross_graph_roots () =
  (* B^k(r_{j,b}) is the same in G_alpha and G_beta. *)
  let delta = 4 and k = 1 in
  let a = build delta k 2 and b = build delta k 5 in
  let find_root t j bb copy =
    (List.find
       (fun m -> m.Gclass.j = j && m.Gclass.b = bb && m.Gclass.copy = copy)
       t.Gclass.trees)
      .Gclass.root
  in
  List.iter
    (fun (j, bb) ->
      Alcotest.(check bool)
        (Printf.sprintf "T_%d,%d root views match across graphs" j bb)
        true
        (Refinement.equal_views_cross a.Gclass.graph (find_root a j bb 1)
           b.Gclass.graph (find_root b j bb 1) ~depth:k))
    [ (1, 1); (1, 2); (2, 1); (2, 2) ]

let test_thm_2_2_on_g () =
  (* The universal Selection scheme elects r_{i,2} in exactly k rounds. *)
  List.iter
    (fun (delta, k, i) ->
      let { Gclass.graph = g; special_root; _ } = build delta k i in
      let { Scheme.outputs; rounds; advice_bits; _ } =
        Scheme.run Select_by_view.scheme g
      in
      Alcotest.(check (result int string))
        "elects the special root" (Ok special_root)
        (Verify.selection g outputs);
      Alcotest.(check int) "rounds = k" k rounds;
      Alcotest.(check bool) "nonempty advice" true (advice_bits > 0))
    [ (3, 1, 2); (3, 2, 2); (4, 1, 4); (4, 2, 2) ]

let test_thm_2_9_fooling () =
  (* Same advice on G_alpha and G_beta (alpha < beta): because G_beta
     contains two copies of T_{alpha,2}, both of their roots match the
     advice view and Selection fails with two leaders. *)
  List.iter
    (fun (delta, k, alpha, beta) ->
      let a = build delta k alpha and b = build delta k beta in
      let advice = Select_by_view.scheme.Scheme.oracle a.Gclass.graph in
      let honest =
        Scheme.run_with_advice Select_by_view.scheme a.Gclass.graph ~advice
      in
      Alcotest.(check bool) "honest run elects" true
        (Result.is_ok (Verify.selection a.Gclass.graph honest.Scheme.outputs));
      let fooled =
        Scheme.run_with_advice Select_by_view.scheme b.Gclass.graph ~advice
      in
      Alcotest.(check (result int string))
        (Printf.sprintf "fooled (delta=%d k=%d %d->%d)" delta k alpha beta)
        (Error "2 nodes output leader")
        (Verify.selection b.Gclass.graph fooled.Scheme.outputs))
    [ (3, 2, 2, 3); (3, 2, 2, 4); (4, 1, 2, 7); (4, 2, 2, 3) ]

let test_advice_growth_shape () =
  (* Theorem 2.2 vs 2.9: the per-graph advice length grows roughly like
     (∆−1)^k log ∆ — doubling k roughly squares the dominant factor. *)
  let bits delta k =
    let { Gclass.graph = g; _ } = build delta k 2 in
    Select_by_view.advice_bits g
  in
  let b1 = bits 4 1 and b2 = bits 4 2 in
  Alcotest.(check bool) "monotone in k" true (b2 > b1);
  let b5 = bits 5 1 in
  Alcotest.(check bool) "monotone in delta" true (b5 > b1)

let test_sequence_of_index () =
  (* The tree enumeration is the lexicographic bijection the paper
     assumes: index 1 is all-ones, the last index is all-(∆−1), and
     consecutive indexes are lexicographically increasing. *)
  let delta = 4 and k = 1 in
  let count = Option.get (Gclass.num_graphs { Gclass.delta; k }) in
  let seqs =
    List.init count (fun i ->
        Array.to_list (Blocks.sequence_of_index ~delta ~k (i + 1)))
  in
  Alcotest.(check (list int)) "first" [ 1; 1 ] (List.hd seqs);
  Alcotest.(check (list int)) "last" [ 3; 3 ] (List.nth seqs (count - 1));
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing" true (increasing seqs);
  Alcotest.check_raises "index 0 rejected"
    (Invalid_argument "Blocks.sequence_of_index") (fun () ->
      ignore (Blocks.sequence_of_index ~delta ~k 0))

(* Property: the lemma-level guarantees hold across randomly sampled
   class members (i >= 2), not just the hand-picked ones. *)
let prop_random_members =
  QCheck.Test.make ~name:"random G_i members: psi_S = k, unique r_{i,2}"
    ~count:25
    QCheck.(
      make
        ~print:(fun (d, k, x) -> Printf.sprintf "delta=%d k=%d x=%d" d k x)
        Gen.(triple (int_range 3 4) (int_range 1 2) (int_bound 1000)))
    (fun (delta, k, x) ->
      let params = { Gclass.delta; k } in
      let count = Option.get (Gclass.num_graphs params) in
      QCheck.assume (count > 2);
      let i = 2 + (x mod (count - 1)) in
      let t = Gclass.build params ~i in
      let refinement = Refinement.compute t.Gclass.graph ~depth:k in
      Refinement.min_unique_depth t.Gclass.graph = Some k
      && Refinement.singletons refinement ~depth:k = [ t.Gclass.special_root ])

let () =
  Alcotest.run "shades_families_g"
    [
      ( "construction",
        [
          Alcotest.test_case "Fact 2.3 class size" `Quick test_fact_2_3;
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "tree enumeration order" `Quick
            test_sequence_of_index;
        ] );
      ( "lemmas",
        [
          Alcotest.test_case "Prop 2.4 roots equal below k" `Quick
            test_prop_2_4_roots_equal_below_k;
          Alcotest.test_case "Lemma 2.5 cycle uniform" `Quick
            test_lemma_2_5_cycle_uniform;
          Alcotest.test_case "Lemma 2.6 unique view" `Quick
            test_lemma_2_6_unique_view;
          Alcotest.test_case "Lemma 2.7 psi_S = k" `Quick
            test_lemma_2_7_selection_index;
          Alcotest.test_case "Lemma 2.8 cross-graph roots" `Quick
            test_lemma_2_8_cross_graph_roots;
          Alcotest.test_case "finding: G_1 degenerate" `Quick
            test_g1_degenerate;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "Thm 2.2 scheme on G_i" `Quick test_thm_2_2_on_g;
          Alcotest.test_case "Thm 2.9 fooling" `Quick test_thm_2_9_fooling;
          Alcotest.test_case "advice growth shape" `Quick
            test_advice_growth_shape;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_random_members ]);
    ]
