(* Quickstart: build a small anonymous network, inspect views, compute
   the four election indexes, and elect a leader with advice through the
   LOCAL simulator.

   Run with: dune exec examples/quickstart.exe *)

open Shades_graph
open Shades_views
open Shades_election

let () =
  (* The paper's running example: a 3-node line whose ports read
     0,0,1,0 from left to right. *)
  let g = Gen.path_with_ports [ (0, 0); (1, 0) ] in
  Format.printf "network: %a@." Port_graph.pp g;

  (* Views: what a node can learn in r rounds. *)
  let b1 = View_tree.of_graph g 0 ~depth:1 in
  Format.printf "B^1(left leaf) = %a@." View_tree.pp b1;
  Format.printf "left and right leaves share B^0: %b@."
    (View_tree.equal
       (View_tree.of_graph g 0 ~depth:0)
       (View_tree.of_graph g 2 ~depth:0));
  Format.printf "...but differ at B^1: %b@."
    (not
       (View_tree.equal
          (View_tree.of_graph g 0 ~depth:1)
          (View_tree.of_graph g 2 ~depth:1)));

  (* Election indexes: the minimum rounds for each task shade. *)
  Format.printf "feasible: %b@." (Refinement.feasible g);
  List.iter
    (fun (kind, psi) ->
      Format.printf "psi_%s = %s@."
        (Task.kind_to_string kind)
        (match psi with Some k -> string_of_int k | None -> "infinite"))
    (Index.all g);

  (* Elect a leader in minimum time with the Theorem 2.2 scheme: the
     oracle hands every node the same advice string; the nodes exchange
     views over the simulated network and decide. *)
  let { Scheme.outputs; rounds; advice_bits; _ } =
    Scheme.run Select_by_view.scheme g
  in
  (match Verify.selection g outputs with
  | Ok leader ->
      Format.printf
        "selection: node %d elected in %d rounds with %d advice bits@."
        leader rounds advice_bits
  | Error e -> Format.printf "selection failed: %s@." e);

  (* The strongest shade: every node outputs a complete port path to the
     leader. *)
  let r = Scheme.run Map_advice.complete_port_path_election g in
  match Verify.complete_port_path_election g r.Scheme.outputs with
  | Ok leader ->
      Format.printf "CPPE: leader %d, %d rounds; outputs:@." leader
        r.Scheme.rounds;
      Array.iteri
        (fun v answer ->
          Format.printf "  node %d -> %a@." v
            (Task.pp_answer (fun fmt pairs ->
                 Format.fprintf fmt "[%s]"
                   (String.concat "; "
                      (List.map
                         (fun (p, q) -> Printf.sprintf "(%d,%d)" p q)
                         pairs))))
            answer)
        r.Scheme.outputs
  | Error e -> Format.printf "CPPE failed: %s@." e
