(* Tests for the class U_{∆,k} (Section 3): structure, Propositions
   3.2/3.3/3.5, Lemmas 3.6-3.9, and the Theorem 3.11 fooling mechanism. *)

open Shades_graph
open Shades_views
open Shades_election
open Shades_families

let params = { Uclass.delta = 4; k = 1 }

let build_uniform s = Uclass.build params ~sigma:(Uclass.uniform_sigma params s)

let test_fact_3_1 () =
  Alcotest.(check (option int)) "y(4,1)" (Some 9) (Uclass.num_trees params);
  Alcotest.(check (option int)) "y(5,1)" (Some 64)
    (Uclass.num_trees { Uclass.delta = 5; k = 1 });
  Alcotest.(check (option int)) "y(4,2)" (Some 729)
    (Uclass.num_trees { Uclass.delta = 4; k = 2 });
  (* |U_{4,1}| = 3^9, so log2 = 9 log2 3 = 14.26. *)
  let log2 = Uclass.num_graphs_log2 params in
  Alcotest.(check bool) "log2 3^9" true (abs_float (log2 -. 14.265) < 0.01)

let test_structure () =
  let t = build_uniform 1 in
  let g = t.Uclass.graph in
  let delta = params.Uclass.delta in
  Alcotest.(check bool) "connected" true (Paths.is_connected g);
  Alcotest.(check int) "max degree 2∆−1" ((2 * delta) - 1)
    (Port_graph.max_degree g);
  Array.iter
    (fun pair ->
      Array.iter
        (fun r ->
          Alcotest.(check int) "cycle root degree ∆+2" (delta + 2)
            (Port_graph.degree g r))
        pair)
    t.Uclass.cycle_roots;
  Array.iter
    (fun pair ->
      Array.iter
        (fun h ->
          Alcotest.(check int) "heavy degree 2∆−1" ((2 * delta) - 1)
            (Port_graph.degree g h))
        pair)
    t.Uclass.heavy;
  (* Only the 2y cycle roots have degree ∆+2 and only the 2y heavy nodes
     have degree 2∆−1. *)
  let count d =
    List.length
      (List.filter (fun v -> Port_graph.degree g v = d) (Port_graph.vertices g))
  in
  let y = Option.get (Uclass.num_trees params) in
  Alcotest.(check int) "medium count" (2 * y) (count (delta + 2));
  Alcotest.(check int) "heavy count" (2 * y) (count ((2 * delta) - 1))

let test_sigma_changes_graph () =
  let a = build_uniform 1 and b = build_uniform 2 in
  Alcotest.(check bool) "different sigma, different graph" false
    (Port_graph.equal a.Uclass.graph b.Uclass.graph);
  Alcotest.(check int) "same order" (Port_graph.order a.Uclass.graph)
    (Port_graph.order b.Uclass.graph)

let test_prop_3_2_roots_uniform_below_k () =
  let t = build_uniform 2 in
  let r = Refinement.compute t.Uclass.graph ~depth:(params.Uclass.k - 1) in
  let d = params.Uclass.k - 1 in
  let c0 = Refinement.class_of r ~depth:d t.Uclass.cycle_roots.(0).(0) in
  Array.iter
    (fun pair ->
      Array.iter
        (fun root ->
          Alcotest.(check int) "root class at k-1" c0
            (Refinement.class_of r ~depth:d root))
        pair)
    t.Uclass.cycle_roots

let test_lemma_3_6_psi_s () =
  (* No node is unique at depth k−1; ψ_S = k. *)
  List.iter
    (fun s ->
      let t = build_uniform s in
      Alcotest.(check (option int))
        (Printf.sprintf "psi_S (sigma=%d)" s)
        (Some params.Uclass.k)
        (Refinement.min_unique_depth t.Uclass.graph))
    [ 1; 2; 3 ]

let test_lemma_3_8_cycle_roots_unique_at_k () =
  let t = build_uniform 2 in
  let r = Refinement.compute t.Uclass.graph ~depth:params.Uclass.k in
  let groups = Refinement.classes r ~depth:params.Uclass.k in
  Array.iter
    (fun pair ->
      Array.iter
        (fun root ->
          let c = Refinement.class_of r ~depth:params.Uclass.k root in
          Alcotest.(check (list int)) "cycle root singleton" [ root ]
            groups.(c))
        pair)
    t.Uclass.cycle_roots

let test_prop_3_5_heavy_twins () =
  (* B^k(r_{j,1,1}) = B^k(r_{j,1,2}), and non-root nodes pair up too, so
     the only singletons at depth k are the cycle roots. *)
  let t = build_uniform 3 in
  let r = Refinement.compute t.Uclass.graph ~depth:params.Uclass.k in
  Array.iter
    (fun pair ->
      Alcotest.(check bool) "heavy twins share view" true
        (Refinement.equal_views r ~depth:params.Uclass.k pair.(0) pair.(1)))
    t.Uclass.heavy;
  let singles = Refinement.singletons r ~depth:params.Uclass.k in
  let roots =
    Array.to_list t.Uclass.cycle_roots
    |> List.concat_map Array.to_list
    |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "singletons = cycle roots" roots
    (List.sort Int.compare singles)

let test_heavy_view_sigma_independent () =
  (* Theorem 3.11's key indistinguishability: a heavy node's B^k is the
     same in G_alpha and G_beta even when sigma_j differs. *)
  let a = build_uniform 1 and b = build_uniform 3 in
  Array.iteri
    (fun j0 pair ->
      Alcotest.(check bool)
        (Printf.sprintf "heavy %d view independent of sigma" (j0 + 1))
        true
        (Refinement.equal_views_cross a.Uclass.graph pair.(0) b.Uclass.graph
           b.Uclass.heavy.(j0).(0) ~depth:params.Uclass.k))
    a.Uclass.heavy

let test_lemma_3_9_pe_scheme () =
  List.iter
    (fun sigma ->
      let t = Uclass.build params ~sigma in
      let g = t.Uclass.graph in
      let { Scheme.outputs; rounds; advice_bits; _ } =
        Scheme.run Uclass.pe_scheme g
      in
      Alcotest.(check int) "rounds = k" params.Uclass.k rounds;
      Alcotest.(check bool) "nonempty advice" true (advice_bits > 0);
      Alcotest.(check (result int string)) "PE verified, leader = rmin"
        (Ok (Uclass.rmin t))
        (Verify.port_election g outputs))
    [
      Uclass.uniform_sigma params 1;
      Uclass.uniform_sigma params 3;
      [| 1; 2; 3; 1; 2; 3; 1; 2; 3 |];
    ]

let test_thm_3_11_fooling () =
  (* Same advice on G_alpha and G_beta with sigma differing at j': the
     heavy nodes of j' cannot see the swap and output G_alpha's port,
     which in G_beta leads into a decoy path. *)
  let a = build_uniform 1 in
  let sigma_b = Uclass.uniform_sigma params 1 in
  sigma_b.(4) <- 3;
  let b = Uclass.build params ~sigma:sigma_b in
  let advice = Uclass.pe_scheme.Scheme.oracle a.Uclass.graph in
  let honest = Scheme.run_with_advice Uclass.pe_scheme a.Uclass.graph ~advice in
  Alcotest.(check bool) "honest run elects" true
    (Result.is_ok (Verify.port_election a.Uclass.graph honest.Scheme.outputs));
  let fooled = Scheme.run_with_advice Uclass.pe_scheme b.Uclass.graph ~advice in
  match Verify.port_election b.Uclass.graph fooled.Scheme.outputs with
  | Ok _ -> Alcotest.fail "fooled run must not satisfy PE"
  | Error e ->
      Alcotest.(check bool) "failure is a bad port" true
        (String.length e > 0)

let test_fooling_requires_difference () =
  (* Control: the same advice on a graph with identical sigma works. *)
  let a = build_uniform 2 in
  let a' = build_uniform 2 in
  let advice = Uclass.pe_scheme.Scheme.oracle a.Uclass.graph in
  let run = Scheme.run_with_advice Uclass.pe_scheme a'.Uclass.graph ~advice in
  Alcotest.(check bool) "same sigma verifies" true
    (Result.is_ok (Verify.port_election a'.Uclass.graph run.Scheme.outputs))

(* Property: PE works for arbitrary sigma, not just uniform ones. *)
let prop_random_sigma =
  QCheck.Test.make ~name:"random sigma: PE elects rmin in k rounds" ~count:15
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let y = Option.get (Uclass.num_trees params) in
      let sigma = Array.init y (fun _ -> 1 + Random.State.int st 3) in
      let t = Uclass.build params ~sigma in
      let g = t.Uclass.graph in
      let r = Scheme.run Uclass.pe_scheme g in
      r.Scheme.rounds = params.Uclass.k
      && Verify.port_election g r.Scheme.outputs = Ok (Uclass.rmin t)
      && Refinement.min_unique_depth g = Some params.Uclass.k)

let () =
  Alcotest.run "shades_families_u"
    [
      ( "construction",
        [
          Alcotest.test_case "Fact 3.1 class size" `Quick test_fact_3_1;
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "sigma changes graph" `Quick
            test_sigma_changes_graph;
        ] );
      ( "lemmas",
        [
          Alcotest.test_case "Prop 3.2 roots uniform below k" `Quick
            test_prop_3_2_roots_uniform_below_k;
          Alcotest.test_case "Lemma 3.6 psi_S = k" `Quick test_lemma_3_6_psi_s;
          Alcotest.test_case "Lemma 3.8 cycle roots unique" `Quick
            test_lemma_3_8_cycle_roots_unique_at_k;
          Alcotest.test_case "Prop 3.5 heavy twins" `Quick
            test_prop_3_5_heavy_twins;
          Alcotest.test_case "heavy view sigma-independent" `Quick
            test_heavy_view_sigma_independent;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "Lemma 3.9 PE scheme" `Quick
            test_lemma_3_9_pe_scheme;
          Alcotest.test_case "Thm 3.11 fooling" `Quick test_thm_3_11_fooling;
          Alcotest.test_case "control: same sigma ok" `Quick
            test_fooling_requires_difference;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_random_sigma ]);
    ]
