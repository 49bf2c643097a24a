(* Tests for tasks, verifiers, election indexes and advice schemes. *)

open Shades_graph
open Shades_election

let result_t = Alcotest.(result int string)

let three_node_line () = Gen.path_with_ports [ (0, 0); (1, 0) ]

(* --- verifiers --- *)

let test_verify_selection () =
  let g = three_node_line () in
  Alcotest.check result_t "ok" (Ok 1)
    (Verify.selection g
       Task.[| Follower (); Leader; Follower () |]);
  Alcotest.check result_t "no leader"
    (Error "no node output leader")
    (Verify.selection g Task.[| Follower (); Follower (); Follower () |]);
  Alcotest.check result_t "two leaders" (Error "2 nodes output leader")
    (Verify.selection g Task.[| Leader; Leader; Follower () |])

let test_verify_port_election () =
  let g = three_node_line () in
  Alcotest.check result_t "ok towards middle" (Ok 1)
    (Verify.port_election g Task.[| Follower 0; Leader; Follower 0 |]);
  (* Middle's port 0 leads to v0; with v0 as leader that is fine, but
     port 1 points away, and removing the middle disconnects the line. *)
  Alcotest.check result_t "middle towards leader ok" (Ok 0)
    (Verify.port_election g Task.[| Leader; Follower 0; Follower 0 |]);
  (match
     Verify.port_election g Task.[| Leader; Follower 1; Follower 0 |]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "middle pointing away from leader must fail");
  (* On a ring, both directions reach the leader. *)
  let ring = Gen.oriented_ring 4 in
  Alcotest.check result_t "ring any direction" (Ok 0)
    (Verify.port_election ring
       Task.[| Leader; Follower 0; Follower 1; Follower 0 |])

let test_verify_ppe () =
  let g = Gen.path 4 in
  Alcotest.check result_t "routes to 0" (Ok 0)
    (Verify.port_path_election g
       Task.[| Leader; Follower [ 1 ]; Follower [ 1; 1 ]; Follower [ 0; 1; 1 ] |]);
  (match
     Verify.port_path_election g
       Task.[| Leader; Follower [ 1 ]; Follower [ 1; 1 ]; Follower [ 0; 0 ] |]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling route must fail");
  (match
     Verify.port_path_election g
       Task.[| Leader; Follower []; Follower [ 1; 1 ]; Follower [ 0; 1; 1 ] |]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty route must fail");
  (* Non-simple walk: 1 -> 2 -> 1 -> 0 revisits node 1. *)
  match
    Verify.port_path_election g
      Task.[| Leader; Follower [ 0; 1; 1 ]; Follower [ 1; 1 ]; Follower [ 0; 1; 1 ] |]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-simple route must fail"

let test_verify_cppe () =
  let g = three_node_line () in
  Alcotest.check result_t "ok" (Ok 1)
    (Verify.complete_port_path_election g
       Task.[| Follower [ (0, 0) ]; Leader; Follower [ (0, 1) ] |]);
  match
    Verify.complete_port_path_election g
      Task.[| Follower [ (0, 1) ]; Leader; Follower [ (0, 1) ] |]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong arrival port must fail"

(* --- election indexes on named graphs --- *)

let opt_int = Alcotest.(option int)

let test_index_three_node_line () =
  (* The paper's example: ψ_S = 0 (unique degree) and ψ_CPPE = 1 (the
     two leaves must learn their distinct arrival ports). *)
  let g = three_node_line () in
  Alcotest.check opt_int "psi_s" (Some 0) (Index.psi_s g);
  Alcotest.check opt_int "psi_pe" (Some 0) (Index.psi_pe g);
  Alcotest.check opt_int "psi_ppe" (Some 0) (Index.psi_ppe g);
  Alcotest.check opt_int "psi_cppe" (Some 1) (Index.psi_cppe g)

let test_index_star () =
  (* Star: unique-degree center elects at time 0; CPPE needs one round
     for each leaf to learn which center port it hangs from. *)
  let g = Gen.star 5 in
  Alcotest.check opt_int "psi_s" (Some 0) (Index.psi_s g);
  Alcotest.check opt_int "psi_pe" (Some 0) (Index.psi_pe g);
  Alcotest.check opt_int "psi_ppe" (Some 0) (Index.psi_ppe g);
  Alcotest.check opt_int "psi_cppe" (Some 1) (Index.psi_cppe g)

let test_index_ring_infeasible () =
  let g = Gen.oriented_ring 6 in
  List.iter
    (fun (kind, v) ->
      Alcotest.check opt_int (Task.kind_to_string kind) None v)
    (Index.all g)

let test_index_single_node () =
  let g = Port_graph.Builder.finish (Port_graph.Builder.create 1) in
  List.iter
    (fun (kind, v) ->
      Alcotest.check opt_int (Task.kind_to_string kind) (Some 0) v)
    (Index.all g)

let test_solve_rejects_small_depth () =
  let g = three_node_line () in
  Alcotest.(check bool) "cppe not 0-solvable" true
    (Index.solve_cppe g ~depth:0 = None);
  Alcotest.(check bool) "cppe 1-solvable" true
    (Index.solve_cppe g ~depth:1 <> None)

(* --- schemes through the simulator --- *)

let test_select_by_view_line () =
  let g = three_node_line () in
  let { Scheme.outputs; rounds; advice_bits; _ } =
    Scheme.run Select_by_view.scheme g
  in
  Alcotest.check result_t "elects" (Ok 1) (Verify.selection g outputs);
  Alcotest.(check int) "rounds = psi_s" 0 rounds;
  Alcotest.(check bool) "some advice" true (advice_bits > 0)

let test_map_advice_line () =
  let g = three_node_line () in
  let { Scheme.outputs; rounds; _ } =
    Scheme.run Map_advice.complete_port_path_election g
  in
  (* At depth 1 every class is a singleton, so any node may be elected;
     the deterministic solver picks the lowest-index one. *)
  Alcotest.(check bool) "elects" true
    (Result.is_ok (Verify.complete_port_path_election g outputs));
  Alcotest.(check int) "rounds = psi_cppe" 1 rounds

(* --- properties on random graphs --- *)

let rand_graph =
  QCheck.make
    ~print:(fun (seed, n, e) -> Printf.sprintf "seed=%d n=%d extra=%d" seed n e)
    QCheck.Gen.(triple (int_bound 10_000) (int_range 2 7) (int_bound 6))

let build (seed, n, extra) =
  Gen.random (Random.State.make [| seed |]) n ~extra_edges:extra

let prop_hierarchy =
  (* Fact 1.1: ψ_CPPE >= ψ_PPE >= ψ_PE >= ψ_S. *)
  QCheck.Test.make ~name:"Fact 1.1 index hierarchy" ~count:200 rand_graph
    (fun params ->
      let g = build params in
      match Index.all g with
      | [ (Task.S, s); (Task.PE, pe); (Task.PPE, ppe); (Task.CPPE, cppe) ]
        -> (
          match (s, pe, ppe, cppe) with
          | Some s, Some pe, Some ppe, Some cppe ->
              cppe >= ppe && ppe >= pe && pe >= s
          | None, None, None, None -> true
          | _ -> false (* feasibility is task-independent *))
      | _ -> false)

let prop_solutions_verify =
  QCheck.Test.make ~name:"solve_* answers satisfy the verifiers" ~count:100
    rand_graph (fun params ->
      let g = build params in
      match Index.psi_s g with
      | None -> QCheck.assume_fail ()
      | Some _ ->
          let ok_s =
            match Index.psi_s g with
            | Some k ->
                Result.is_ok
                  (Verify.selection g
                     (Option.get (Index.solve_s g ~depth:k)))
            | None -> false
          in
          let ok_pe =
            match Index.psi_pe g with
            | Some k ->
                Result.is_ok
                  (Verify.port_election g
                     (Option.get (Index.solve_pe g ~depth:k)))
            | None -> false
          in
          let ok_ppe =
            match Index.psi_ppe g with
            | Some k ->
                Result.is_ok
                  (Verify.port_path_election g
                     (Option.get (Index.solve_ppe g ~depth:k)))
            | None -> false
          in
          let ok_cppe =
            match Index.psi_cppe g with
            | Some k ->
                Result.is_ok
                  (Verify.complete_port_path_election g
                     (Option.get (Index.solve_cppe g ~depth:k)))
            | None -> false
          in
          ok_s && ok_pe && ok_ppe && ok_cppe)

let prop_select_by_view =
  QCheck.Test.make ~name:"Thm 2.2 scheme: correct, minimum time" ~count:100
    rand_graph (fun params ->
      let g = build params in
      match Index.psi_s g with
      | None -> QCheck.assume_fail ()
      | Some k ->
          let { Scheme.outputs; rounds; _ } =
            Scheme.run Select_by_view.scheme g
          in
          Result.is_ok (Verify.selection g outputs) && rounds = k)

let prop_map_advice_all =
  QCheck.Test.make ~name:"map-advice schemes: correct, minimum time"
    ~count:50 rand_graph (fun params ->
      let g = build params in
      match Index.psi_s g with
      | None -> QCheck.assume_fail ()
      | Some _ ->
          let ok_s =
            let r = Scheme.run Map_advice.selection g in
            Result.is_ok (Verify.selection g r.Scheme.outputs)
            && Some r.Scheme.rounds = Index.psi_s g
          in
          let ok_pe =
            let r = Scheme.run Map_advice.port_election g in
            Result.is_ok (Verify.port_election g r.Scheme.outputs)
            && Some r.Scheme.rounds = Index.psi_pe g
          in
          let ok_ppe =
            let r = Scheme.run Map_advice.port_path_election g in
            Result.is_ok (Verify.port_path_election g r.Scheme.outputs)
            && Some r.Scheme.rounds = Index.psi_ppe g
          in
          let ok_cppe =
            let r = Scheme.run Map_advice.complete_port_path_election g in
            Result.is_ok
              (Verify.complete_port_path_election g r.Scheme.outputs)
            && Some r.Scheme.rounds = Index.psi_cppe g
          in
          ok_s && ok_pe && ok_ppe && ok_cppe)

(* The map-advice decision as it was before the map's views were
   interned: every node rebuilds each map vertex's explicit depth-ψ view
   and takes the answer of the first one equal to its own. *)
let scan_outputs psi solve g =
  let map = Port_graph.decode (Port_graph.encode g) in
  let k = Option.get (psi map) in
  let answers = Option.get (solve map ~depth:k) in
  Shades_localsim.Full_info.run g ~rounds:k
    ~advice:Shades_bits.Bitstring.empty ~decide:(fun ~advice:_ view ->
      let rec find v =
        if
          Shades_views.View_tree.equal
            (Shades_views.View_tree.of_graph map v ~depth:k)
            view
        then v
        else find (v + 1)
      in
      answers.(find 0))

let timings =
  Shades_localsim.Exec.
    [ default; { default with timing = Sharded (Some 2) } ]

let prop_map_advice_matches_scan =
  QCheck.Test.make ~name:"map-advice lookup = explicit-tree scan" ~count:50
    rand_graph (fun params ->
      let g = build params in
      let agrees scheme psi solve exec =
        (Scheme.run ~exec scheme g).Scheme.outputs = scan_outputs psi solve g
      in
      match Index.psi_s g with
      | None -> QCheck.assume_fail ()
      | Some _ ->
          List.for_all
            (fun exec ->
              agrees Map_advice.selection Index.psi_s Index.solve_s exec
              && agrees Map_advice.port_election Index.psi_pe Index.solve_pe
                   exec
              && agrees Map_advice.port_path_election Index.psi_ppe
                   Index.solve_ppe exec
              && agrees Map_advice.complete_port_path_election
                   Index.psi_cppe Index.solve_cppe exec)
            timings)

(* The daemon's election path: advice computed once on the canonical
   form serves every renumbering, so the leader moves with the
   renumbering — the end-to-end elect-iso benchmark's correctness check. *)
let prop_elect_follows_renumbering =
  QCheck.Test.make ~name:"elect on a renumbering elects perm.(leader)"
    ~count:50 rand_graph (fun ((seed, n, _) as params) ->
      let g = build params in
      let perm = Array.init n Fun.id in
      let st = Random.State.make [| seed; 1 |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let renumbered = Port_graph.renumber g perm in
      match Index.psi_s g with
      | None -> QCheck.assume_fail ()
      | Some _ ->
          List.for_all
            (fun task ->
              let (Shade.Shade { scheme; _ }) = Shade.min_time task in
              let advice =
                scheme.Scheme.oracle (fst (Port_graph.canonical g))
              in
              let leader h =
                let outputs =
                  (Scheme.run_with_advice scheme h ~advice).Scheme.outputs
                in
                List.find
                  (fun v -> outputs.(v) = Task.Leader)
                  (List.init n Fun.id)
              in
              leader renumbered = perm.(leader g))
            Task.all)

let prop_selection_advice_poly =
  (* Theorem 2.2's bound: advice <= c * ∆^ψ_S * log ∆ bits for a
     generous constant (our gamma code is within a small factor). *)
  QCheck.Test.make ~name:"selection advice is O(Delta^psi log Delta)"
    ~count:100 rand_graph (fun params ->
      let g = build params in
      match Index.psi_s g with
      | None -> QCheck.assume_fail ()
      | Some k ->
          let delta = max 2 (Port_graph.max_degree g) in
          let rec pow b e = if e = 0 then 1.0 else float_of_int b *. pow b (e - 1) in
          let bound =
            32.0 *. pow delta (k + 1) *. (1.0 +. log (float_of_int delta))
          in
          float_of_int (Select_by_view.advice_bits g) <= bound)

(* Random graphs up to 14 nodes: big enough for multi-member classes
   whose joint routes branch and cross, small enough for the list-based
   reference search below. *)
let rand_graph14 =
  QCheck.make
    ~print:(fun (seed, n, e) -> Printf.sprintf "seed=%d n=%d extra=%d" seed n e)
    QCheck.Gen.(triple (int_bound 10_000) (int_range 2 14) (int_bound 8))

let fixpoint_depth g =
  Shades_views.Refinement.depth (Shades_views.Refinement.fixpoint g)

let solvable kind g ~depth =
  match kind with
  | Task.S -> Option.is_some (Index.solve_s g ~depth)
  | Task.PE -> Option.is_some (Index.solve_pe g ~depth)
  | Task.PPE -> Option.is_some (Index.solve_ppe g ~depth)
  | Task.CPPE -> Option.is_some (Index.solve_cppe g ~depth)

let prop_solvability_monotone =
  (* More time never hurts: a task solvable in k rounds is solvable in
     k+1 (classes only shrink and the leader stays a singleton, so
     per-class constraints only weaken) — the lemma the galloping ψ
     search relies on, checked at every depth up to the fixpoint. *)
  QCheck.Test.make ~name:"solvability is monotone in depth" ~count:60
    rand_graph14 (fun params ->
      let g = build params in
      let top = fixpoint_depth g in
      List.for_all
        (fun kind ->
          List.for_all
            (fun k ->
              (not (solvable kind g ~depth:k)) || solvable kind g ~depth:(k + 1))
            (List.init (top + 1) Fun.id))
        Task.all)

(* The joint route search as it was before the reachability cut: visited
   sets are lists, and every subtree is explored.  The pruned search
   must find exactly the same first route in lexicographic order. *)
let reference_route g ~leader ~members ~arrival =
  let max_len = Port_graph.order g - 1 in
  let rec extend route_rev len positions visiteds =
    if List.for_all (fun x -> x = leader) positions then
      Some (List.rev route_rev)
    else if len >= max_len || List.exists (fun x -> x = leader) positions
    then None
    else begin
      let deg_min =
        List.fold_left (fun acc x -> min acc (Port_graph.degree g x))
          max_int positions
      in
      let rec try_port p =
        if p >= deg_min then None
        else begin
          let steps = List.map (fun x -> Port_graph.neighbor g x p) positions in
          let q0 = snd (List.hd steps) in
          let agree =
            (not arrival) || List.for_all (fun (_, q) -> q = q0) steps
          in
          let simple =
            List.for_all2 (fun (u, _) vis -> not (List.mem u vis)) steps visiteds
          in
          let result =
            if agree && simple then
              extend ((p, q0) :: route_rev) (len + 1) (List.map fst steps)
                (List.map2 (fun (u, _) vis -> u :: vis) steps visiteds)
            else None
          in
          match result with Some r -> Some r | None -> try_port (p + 1)
        end
      in
      try_port 0
    end
  in
  extend [] 0 members (List.map (fun v -> [ v ]) members)

let reference_solve g ~depth ~arrival =
  let module R = Shades_views.Refinement in
  let t = R.compute g ~depth in
  let groups = Array.to_list (R.classes t ~depth) in
  let with_leader leader =
    let answers = Array.make (Port_graph.order g) Task.Leader in
    let rec go = function
      | [] -> Some answers
      | members :: rest when members = [ leader ] -> go rest
      | members :: rest -> (
          match reference_route g ~leader ~members ~arrival with
          | None -> None
          | Some route ->
              List.iter (fun v -> answers.(v) <- Task.Follower route) members;
              go rest)
    in
    go groups
  in
  List.find_map with_leader (List.sort Int.compare (R.singletons t ~depth))

let prop_route_search_matches_reference =
  QCheck.Test.make ~name:"pruned route search = exhaustive reference"
    ~count:500 rand_graph14 (fun params ->
      let g = build params in
      List.for_all
        (fun depth ->
          let ppe =
            Option.map
              (Array.map (function
                | Task.Leader -> Task.Leader
                | Task.Follower route -> Task.Follower (List.map fst route)))
              (reference_solve g ~depth ~arrival:false)
          in
          Index.solve_ppe g ~depth = ppe
          && Index.solve_cppe g ~depth = reference_solve g ~depth ~arrival:true)
        (List.init (fixpoint_depth g + 2) Fun.id))

(* ψ by the definition: the least solvable depth from ψ_S up to the
   fixpoint depth, tried one at a time. *)
let linear_psi kind g =
  match Shades_views.Refinement.min_unique_depth g with
  | None -> None
  | Some start ->
      let top = fixpoint_depth g in
      List.find_opt
        (fun k -> solvable kind g ~depth:k)
        (List.init (top - start + 1) (fun i -> start + i))

let psi_matches_linear g =
  let psis = Index.all g in
  List.for_all
    (fun kind ->
      let linear = linear_psi kind g in
      Index.psi kind g = linear && List.assoc kind psis = linear)
    Task.all

(* A path on [n] vertices whose interior nodes are each oriented at
   random (port 0 left or right). *)
let port_line seed n =
  let st = Random.State.make [| seed |] in
  let toward_right = Array.init n (fun _ -> Random.State.int st 2) in
  Gen.path_with_ports
    (List.init (n - 1) (fun v ->
         ( (if v = 0 then 0 else toward_right.(v)),
           if v + 1 = n - 1 then 0 else 1 - toward_right.(v + 1) )))

(* Random graphs rarely put ψ two depths above ψ_S; about one randomly
   oriented line in twenty puts it there and below the fixpoint depth,
   so the bisection after the gallop has a gap to search. *)
let prop_galloping_psi =
  QCheck.Test.make ~name:"galloping psi = linear scan" ~count:300
    QCheck.(pair rand_graph14 (int_range 2 24))
    (fun (((seed, _, _) as params), n) ->
      psi_matches_linear (build params) && psi_matches_linear (port_line seed n))

(* --- verifier robustness: guaranteed-invalid corruptions rejected --- *)

let prop_verifiers_reject_corruptions =
  QCheck.Test.make ~name:"verifiers reject corrupted outputs" ~count:100
    rand_graph (fun params ->
      let g = build params in
      match Index.psi_cppe g with
      | None -> QCheck.assume_fail ()
      | Some k ->
          let answers = Option.get (Index.solve_cppe g ~depth:k) in
          let leader =
            match Verify.complete_port_path_election g answers with
            | Ok l -> l
            | Error _ -> -1
          in
          QCheck.assume (leader >= 0);
          let n = Port_graph.order g in
          QCheck.assume (n >= 2);
          let some_follower =
            List.find (fun v -> v <> leader) (Port_graph.vertices g)
          in
          (* 1: a second leader *)
          let two = Array.copy answers in
          two.(some_follower) <- Task.Leader;
          (* 2: no leader *)
          let zero = Array.copy answers in
          zero.(leader) <- Task.Follower [];
          (* 3: empty route for a non-leader *)
          let empty = Array.copy answers in
          empty.(some_follower) <- Task.Follower [];
          (* 4: out-of-range port *)
          let bad_port = Array.copy answers in
          bad_port.(some_follower) <- Task.Follower [ (99, 0) ];
          (* 5: broken arrival port on the first hop *)
          let bad_arrival = Array.copy answers in
          (match answers.(some_follower) with
          | Task.Follower ((p, q) :: rest) ->
              bad_arrival.(some_follower) <-
                Task.Follower ((p, q + 1) :: rest)
          | _ -> ());
          List.for_all
            (fun mutated ->
              Result.is_error (Verify.complete_port_path_election g mutated))
            [ two; zero; empty; bad_port; bad_arrival ])

let prop_pe_rejects_disconnecting_port =
  (* On a path, an interior node pointing away from the leader must be
     rejected: removing it disconnects the graph. *)
  QCheck.Test.make ~name:"PE rejects ports pointing away on a path"
    ~count:50
    QCheck.(int_range 4 10)
    (fun n ->
      let g = Gen.path n in
      (* leader = node 0; node 1 points right (port 0), away from 0 *)
      let answers =
        Array.init n (fun v ->
            if v = 0 then Task.Leader
            else if v = 1 then Task.Follower 0
            else Task.Follower (if v = n - 1 then 0 else 1))
      in
      Result.is_error (Verify.port_election g answers))

let prop_broadcast_after_selection =
  (* Section 1: Selection suffices for leader broadcast — the flood
     reaches everyone in exactly the leader's eccentricity. *)
  QCheck.Test.make ~name:"broadcast after selection reaches everyone"
    ~count:60 rand_graph (fun params ->
      let g = build params in
      match Index.psi_s g with
      | None -> QCheck.assume_fail ()
      | Some _ ->
          let r = Scheme.run Select_by_view.scheme g in
          let leader =
            match Verify.selection g r.Scheme.outputs with
            | Ok l -> l
            | Error _ -> -1
          in
          let b =
            Broadcast.run g ~selection:r.Scheme.outputs ~payload:42
          in
          let ecc =
            Array.fold_left max 0 (Paths.bfs_distances g leader)
          in
          Array.for_all Fun.id b.Broadcast.received
          && b.Broadcast.rounds = ecc)

(* --- exact minimum advice (Min_advice) --- *)

let test_min_advice_g_classes () =
  (* Tightness of Theorem 2.9: every member of G_{delta,k} needs its own
     advice string. *)
  List.iter
    (fun (delta, k) ->
      let p = { Shades_families.Gclass.delta; k } in
      let count = Option.get (Shades_families.Gclass.num_graphs p) in
      let graphs =
        List.init count (fun i ->
            (Shades_families.Gclass.build p ~i:(i + 1))
              .Shades_families.Gclass.graph)
      in
      Alcotest.(check int)
        (Printf.sprintf "min strings G(%d,%d)" delta k)
        count
        (Min_advice.min_advice_strings ~depth:k graphs))
    [ (3, 1); (3, 2) ]

let test_min_advice_sharable_control () =
  (* Distinguishing views with disjoint supports can share one string. *)
  Alcotest.(check bool) "star+path share" true
    (Min_advice.sharable ~depth:0 [ Gen.star 4; Gen.path 3 ]);
  (* ... but two copies of the same graph trivially share too. *)
  Alcotest.(check bool) "identical graphs share" true
    (Min_advice.sharable ~depth:1 [ Gen.path 4; Gen.path 4 ]);
  Alcotest.(check int) "two distinct families need 1 string" 1
    (Min_advice.min_advice_strings ~depth:0 [ Gen.star 4; Gen.path 3 ])

let test_min_advice_bits () =
  Alcotest.(check (list int)) "bits_for" [ 0; 1; 1; 2; 2; 3 ]
    (List.map Min_advice.bits_for [ 1; 2; 3; 4; 7; 9 ])

let test_pe_sharable () =
  (* Thm 3.11 pairwise: different sigma on U-class members conflicts. *)
  let p = { Shades_families.Uclass.delta = 4; k = 1 } in
  let graph sigma =
    (Shades_families.Uclass.build p ~sigma).Shades_families.Uclass.graph
  in
  let sa = Shades_families.Uclass.uniform_sigma p 1 in
  let sb = Shades_families.Uclass.uniform_sigma p 1 in
  sb.(3) <- 3;
  Alcotest.(check bool) "different sigma unsharable" false
    (Min_advice.pe_sharable ~depth:1 (graph sa) (graph sb));
  Alcotest.(check bool) "same sigma sharable" true
    (Min_advice.pe_sharable ~depth:1 (graph sa)
       (graph (Shades_families.Uclass.uniform_sigma p 1)));
  Alcotest.(check bool) "small controls sharable" true
    (Min_advice.pe_sharable ~depth:0 (Gen.star 4) (Gen.path 3))

(* --- per-advice plans --- *)

let test_plan_once_per_run () =
  let calls = ref 0 in
  let plan =
    Scheme.plan (fun advice ->
        incr calls;
        Shades_bits.Bitstring.length advice)
  in
  let scheme =
    {
      Scheme.name = "counting";
      oracle = Port_graph.encode;
      rounds_of = (fun ~advice ~degree:_ -> min 2 (plan advice));
      decide = (fun ~advice _ -> plan advice);
    }
  in
  let g = Gen.path 8 in
  let advice = scheme.Scheme.oracle g in
  ignore (Scheme.run_with_advice scheme g ~advice);
  Alcotest.(check int) "one plan for 8 nodes" 1 !calls;
  ignore (Scheme.run_with_advice scheme g ~advice);
  Alcotest.(check int) "the same advice value plans once" 1 !calls;
  ignore (Scheme.run scheme g);
  Alcotest.(check int) "a fresh advice value plans again" 2 !calls;
  let raised = ref 0 in
  let failing =
    Scheme.plan (fun _ ->
        incr raised;
        failwith "no plan")
  in
  for _ = 1 to 2 do
    match failing advice with
    | _ -> Alcotest.fail "the plan should raise"
    | exception Failure _ -> ()
  done;
  Alcotest.(check int) "exceptions are not cached" 2 !raised

(* ψ_PPE = 29 on path:60: one node's explicit depth-29 view has 2^30
   nodes, so every shade must elect without building one. *)
let test_min_time_deep_path () =
  let g = Shades_server.Spec.parse_exn "path:60" in
  List.iter
    (fun task ->
      let (Shade.Shade { scheme; verify; _ }) = Shade.min_time task in
      match verify g (Scheme.run scheme g).Scheme.outputs with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "%s on path:60: %s" (Task.kind_to_string task) e)
    Task.all

(* --- the shade table --- *)

(* Both constructors, every task: the scheme's own referee accepts its
   run, and every node's answer survives the JSON codec unchanged. *)
let test_shade_table () =
  List.iter
    (fun (cname, make) ->
      List.iter
        (fun task ->
          let (Shade.Shade { task = t; scheme; verify; to_json; of_json }) =
            make task
          in
          Alcotest.(check string)
            "task" (Task.kind_to_string task) (Task.kind_to_string t);
          List.iter
            (fun spec ->
              let what =
                Printf.sprintf "%s %s %s" cname (Task.kind_to_string task) spec
              in
              let g = Shades_server.Spec.parse_exn spec in
              let r = Scheme.run scheme g in
              (match verify g r.Scheme.outputs with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "%s: verifier rejected: %s" what e);
              Array.iteri
                (fun v a ->
                  if of_json (to_json a) <> Ok a then
                    Alcotest.failf "%s: node %d answer %s does not round-trip"
                      what v
                      (Shades_json.Json.to_string (to_json a)))
                r.Scheme.outputs)
            [ "path:5"; "star:5"; "gclass:3,1,2" ])
        Task.all)
    [ ("min_time", Shade.min_time); ("map_advice", Shade.map_advice) ]

let () =
  Alcotest.run "shades_election"
    [
      ( "verify",
        [
          Alcotest.test_case "selection" `Quick test_verify_selection;
          Alcotest.test_case "port election" `Quick test_verify_port_election;
          Alcotest.test_case "port path election" `Quick test_verify_ppe;
          Alcotest.test_case "complete port path" `Quick test_verify_cppe;
        ] );
      ( "index",
        [
          Alcotest.test_case "3-node line (paper ex.)" `Quick
            test_index_three_node_line;
          Alcotest.test_case "star" `Quick test_index_star;
          Alcotest.test_case "ring infeasible" `Quick test_index_ring_infeasible;
          Alcotest.test_case "single node" `Quick test_index_single_node;
          Alcotest.test_case "depth gating" `Quick test_solve_rejects_small_depth;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "select-by-view on line" `Quick
            test_select_by_view_line;
          Alcotest.test_case "map advice on line" `Quick test_map_advice_line;
          Alcotest.test_case "shade table" `Quick test_shade_table;
          Alcotest.test_case "plan once per run" `Quick test_plan_once_per_run;
          Alcotest.test_case "min-time on path:60" `Quick
            test_min_time_deep_path;
        ] );
      ( "min_advice",
        [
          Alcotest.test_case "tight on G classes" `Quick
            test_min_advice_g_classes;
          Alcotest.test_case "sharable controls" `Quick
            test_min_advice_sharable_control;
          Alcotest.test_case "bits_for" `Quick test_min_advice_bits;
          Alcotest.test_case "PE sharability" `Quick test_pe_sharable;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_hierarchy;
            prop_solutions_verify;
            prop_select_by_view;
            prop_map_advice_all;
            prop_map_advice_matches_scan;
            prop_elect_follows_renumbering;
            prop_selection_advice_poly;
            prop_verifiers_reject_corruptions;
            prop_pe_rejects_disconnecting_port;
            prop_solvability_monotone;
            prop_route_search_matches_reference;
            prop_galloping_psi;
            prop_broadcast_after_selection;
          ] );
    ]
