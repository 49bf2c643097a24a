(* Regenerates every experiment row recorded in EXPERIMENTS.md: one
   section per paper item (facts, lemmas, theorems), printing the
   paper's claim next to what this reproduction measures.

   Run with: dune exec bin/experiments.exe            (full report)
             dune exec bin/experiments.exe -- quick   (skip slow rows)  *)

open Shades_graph
open Shades_views
open Shades_election
open Shades_families

let quick = Array.exists (( = ) "quick") Sys.argv

let section id title =
  Printf.printf "\n== %s: %s ==\n" id title

let row fmt = Printf.printf fmt

let check name ok =
  Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name;
  if not ok then exit 1

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)

let e1_hierarchy () =
  section "E1" "Fact 1.1: psi_CPPE >= psi_PPE >= psi_PE >= psi_S";
  let st = Random.State.make [| 41 |] in
  let total = ref 0 and feasible = ref 0 and ok = ref true in
  let gaps = Hashtbl.create 16 in
  for _ = 1 to 300 do
    let n = 3 + Random.State.int st 5 in
    let g = Gen.random st n ~extra_edges:(Random.State.int st 4) in
    incr total;
    match Index.all g with
    | [ (_, Some s); (_, Some pe); (_, Some ppe); (_, Some cppe) ] ->
        incr feasible;
        if not (cppe >= ppe && ppe >= pe && pe >= s) then ok := false;
        let key = (pe - s, ppe - pe, cppe - ppe) in
        Hashtbl.replace gaps key
          (1 + Option.value ~default:0 (Hashtbl.find_opt gaps key))
    | _ -> ()
  done;
  row "  %d random graphs, %d feasible\n" !total !feasible;
  check "hierarchy holds on all feasible graphs" !ok;
  Hashtbl.iter
    (fun (a, b, c) count ->
      row "  gap profile (PE-S=%d, PPE-PE=%d, CPPE-PPE=%d): %d graphs\n" a b
        c count)
    gaps

let e2_named_examples () =
  section "E2" "Section 1 examples";
  let line = Gen.path_with_ports [ (0, 0); (1, 0) ] in
  check "3-node line: psi_S = 0 (unique degree)" (Index.psi_s line = Some 0);
  check "3-node line: psi_CPPE = 1 (paper's example)"
    (Index.psi_cppe line = Some 1);
  check "oriented rings infeasible" (Index.psi_s (Gen.oriented_ring 6) = None);
  check "K2 infeasible"
    (Index.psi_s (Port_graph.of_edges 2 [ ((0, 0), (1, 0)) ]) = None)

let e3_prop_2_1 () =
  section "E3" "Prop 2.1: k-round Selection needs a unique B^k";
  let st = Random.State.make [| 43 |] in
  let ok = ref true in
  for _ = 1 to 200 do
    let n = 3 + Random.State.int st 5 in
    let g = Gen.random st n ~extra_edges:(Random.State.int st 4) in
    match Index.psi_s g with
    | None -> ()
    | Some k ->
        let t = Refinement.compute g ~depth:k in
        if Refinement.singletons t ~depth:k = [] then ok := false;
        if k > 0 then begin
          let t' = Refinement.compute g ~depth:(k - 1) in
          if Refinement.singletons t' ~depth:(k - 1) <> [] then ok := false
        end
  done;
  check "psi_S = first depth with a unique view, on 200 random graphs" !ok

let e4_thm_2_2 () =
  section "E4"
    "Thm 2.2: Selection advice O((delta-1)^psi log delta) — swept on the \
     parallel runtime";
  let open Shades_runtime in
  (* the former hand-rolled loop, now a sweep: every (delta, k) point
     builds G_2, runs the Thm 2.2 scheme through the simulator with
     telemetry, and verifies — fanned across domains by the pool *)
  let points =
    List.map
      (fun (delta, k) -> [ ("delta", delta); ("k", k) ])
      [ (3, 1); (3, 2); (3, 3); (4, 1); (4, 2); (5, 1); (5, 2); (6, 1) ]
  in
  let records = Sweep.run (Sweep.gclass_jobs points) in
  row "  %6s %3s %8s %12s %18s %10s\n" "delta" "k" "n" "advice bits"
    "(d-1)^k*log2(d)" "messages";
  let counter r name =
    match Store.metric r name with
    | Some (Metrics.Counter c) -> c
    | _ -> -1
  in
  let param r name =
    match List.assoc_opt name r.Store.params with
    | Some (Store.Json.Int v) -> v
    | _ -> -1
  in
  let ok = ref true in
  List.iter
    (fun r ->
      let delta = param r "delta" and k = param r "k" in
      let formula =
        (float_of_int (delta - 1) ** float_of_int k)
        *. (log (float_of_int delta) /. log 2.)
      in
      row "  %6d %3d %8d %12d %18.1f %10d\n" delta k (counter r "graph_order")
        r.Store.advice_bits formula r.Store.messages;
      (* correctness + minimum time on the same instances *)
      if counter r "verified" <> 1 then ok := false;
      if r.Store.rounds <> k then ok := false)
    records;
  check "all sweep points present" (List.length records = List.length points);
  check "scheme correct and minimum-time on G-class instances (via sweep)" !ok;
  (* trace companion (the worked example in EXPERIMENTS.md): record one
     G-class election, check the async engine leaves the same footprint
     modulo synchronizer markers, and demonstrate that replay pinpoints
     a single injected mutation *)
  let module Trace = Shades_trace.Trace in
  let module Event = Shades_trace.Event in
  let module Codec = Shades_trace.Codec in
  let module Replay = Shades_trace.Replay in
  let module Tdiff = Shades_trace.Diff in
  let g = (Gclass.build { Gclass.delta = 3; k = 1 } ~i:2).Gclass.graph in
  let capture engine =
    let r = Trace.recorder () in
    let tracer = Trace.emit r in
    let exec = Shades_localsim.Exec.of_trace_engine engine in
    ignore (Scheme.run ~exec ~tracer Select_by_view.scheme g);
    Trace.capture r
      {
        Trace.engine;
        graph_order = Port_graph.order g;
        advice_bits = 0;
        label = "s gclass:3,1,2";
      }
  in
  let sync = capture Trace.Sync in
  let s = Trace.stats sync in
  row "  traced G(3,1,i=2): %d events (%d sends, %d delivers) in %d round\n"
    s.Trace.events s.Trace.sends s.Trace.delivers s.Trace.rounds;
  check "sync vs async traces agree modulo sync markers (seeds 0,1,2)"
    (List.for_all
       (fun seed -> Tdiff.divergences sync (capture (Trace.Async { seed })) = [])
       [ 0; 1; 2 ]);
  check "trace codec round-trips" (Codec.decode (Codec.encode sync) = Ok sync);
  let exec tracer = ignore (Scheme.run ~tracer Select_by_view.scheme g) in
  check "replay of the recorded run is clean" (Replay.run sync exec = Ok ());
  let mutated =
    let events = Array.copy sync.Trace.events in
    let idx = ref (-1) in
    Array.iteri
      (fun i e ->
        if !idx < 0 then match e with Event.Send _ -> idx := i | _ -> ())
      events;
    (match events.(!idx) with
    | Event.Send { round; v; port; size } ->
        events.(!idx) <- Event.Send { round; v; port; size = size + 1 }
    | _ -> assert false);
    { sync with Trace.events }
  in
  match Replay.run mutated exec with
  | Error d ->
      let round, vertex = Replay.location d in
      row "  injected mutation caught at %s\n" (Replay.pp_divergence d);
      check "replay locates the mutation's (round, vertex)"
        (round >= 1 && vertex >= 0)
  | Ok () -> check "replay detects an injected single-event mutation" false

let e5_figure_1 () =
  section "E5" "Fig 1: trees T_{X,1} / T_{X,2} for delta=4, k=2, X=(1,2,3,3,2,2)";
  let build variant =
    let proto = Proto.create () in
    let root =
      Blocks.add_t_x_b proto ~delta:4 ~k:2 ~x:[| 1; 2; 3; 3; 2; 2 |] ~variant
    in
    (* close the root's last port so the block validates standalone *)
    let stub = Proto.fresh proto in
    Proto.link proto (root, 3) (stub, 0);
    (Proto.build proto, root)
  in
  let g1, r1 = build 1 and g2, r2 = build 2 in
  row "  T_X,1: %d nodes;  T_X,2: %d nodes\n" (Port_graph.order g1)
    (Port_graph.order g2);
  check "same size" (Port_graph.order g1 = Port_graph.order g2);
  check "structures differ only by the p_k swap"
    (not (Iso.rooted_isomorphic g1 r1 g2 r2));
  (* per Fig 1: |T| = 1 + 2 + 6 = 9, pendants = sum X = 13, path = 3,
     stub = 1 *)
  check "node count matches figure" (Port_graph.order g1 = 9 + 13 + 3 + 1)

let e6_fact_2_3 () =
  section "E6" "Fact 2.3: |G_{delta,k}| = (delta-1)^((delta-2)(delta-1)^(k-1))";
  List.iter
    (fun (delta, k, expect) ->
      let got = Gclass.num_graphs { Gclass.delta; k } in
      row "  delta=%d k=%d: %s (expected %s)\n" delta k
        (match got with Some v -> string_of_int v | None -> "overflow")
        (match expect with Some v -> string_of_int v | None -> "overflow");
      check "matches" (got = expect))
    [
      (3, 1, Some 2); (3, 2, Some 4); (4, 1, Some 9); (4, 2, Some 729);
      (5, 2, Some 16777216); (6, 3, None);
    ]

let e7_to_e9_gclass () =
  section "E7-E9" "G-class lemmas: twin views, unique r_{i,2}, psi_S = k";
  List.iter
    (fun (delta, k, i) ->
      let t = Gclass.build { Gclass.delta; k } ~i in
      let g = t.Gclass.graph in
      let refinement = Refinement.compute g ~depth:k in
      let singles = Refinement.singletons refinement ~depth:k in
      let psi = Refinement.min_unique_depth g in
      row "  delta=%d k=%d i=%d: n=%d psi_S=%s singletons@k=%d\n" delta k i
        (Port_graph.order g)
        (match psi with Some d -> string_of_int d | None -> "inf")
        (List.length singles);
      check "Lemma 2.6: unique view is r_{i,2}"
        (singles = [ t.Gclass.special_root ]);
      check "Lemma 2.7: psi_S = k" (psi = Some k))
    [ (3, 2, 2); (4, 1, 5); (4, 2, 3); (5, 1, 7) ];
  (* the G_1 degeneracy finding *)
  let t = Gclass.build { Gclass.delta = 4; k = 2 } ~i:1 in
  check "finding: psi_S(G_1) = 1 < k (paper's Lemma 2.6 gap)"
    (Refinement.min_unique_depth t.Gclass.graph = Some 1)

let e10_thm_2_9 () =
  section "E10" "Thm 2.9: Selection fooling on G-class";
  List.iter
    (fun (delta, k, alpha, beta) ->
      let a = Gclass.build { Gclass.delta; k } ~i:alpha in
      let b = Gclass.build { Gclass.delta; k } ~i:beta in
      let advice = Select_by_view.scheme.Scheme.oracle a.Gclass.graph in
      let fooled =
        Scheme.run_with_advice Select_by_view.scheme b.Gclass.graph ~advice
      in
      let verdict = Verify.selection b.Gclass.graph fooled.Scheme.outputs in
      row "  delta=%d k=%d advice(G_%d) on G_%d: %s\n" delta k alpha beta
        (match verdict with
        | Ok _ -> "accepted (UNEXPECTED)"
        | Error e -> "rejected: " ^ e);
      check "fooling rejected" (Result.is_error verdict))
    [ (3, 2, 2, 3); (4, 1, 2, 7); (4, 2, 2, 3) ]

let e11_fact_3_1 () =
  section "E11" "Fact 3.1: |U_{delta,k}| = (delta-1)^|T_{delta,k}|";
  List.iter
    (fun (delta, k) ->
      let p = { Uclass.delta; k } in
      row "  delta=%d k=%d: y=%s log2|U|=%.1f\n" delta k
        (match Uclass.num_trees p with
        | Some y -> string_of_int y
        | None -> "overflow")
        (Uclass.num_graphs_log2 p))
    [ (4, 1); (4, 2); (5, 1); (6, 1) ]

let e12_to_e14_uclass () =
  section "E12-E14" "U-class: psi_S = psi_PE = k; Lemma 3.9 PE algorithm";
  let run delta k sigma_val =
    let p = { Uclass.delta; k } in
    let t = Uclass.build p ~sigma:(Uclass.uniform_sigma p sigma_val) in
    let g = t.Uclass.graph in
    let (psi, dt_psi) = time (fun () -> Refinement.min_unique_depth g) in
    let (r, dt_run) = time (fun () -> Scheme.run Uclass.pe_scheme g) in
    let verdict = Verify.port_election g r.Scheme.outputs in
    row
      "  delta=%d k=%d: n=%d psi_S=%s (%.1fs) PE rounds=%d advice=%d bits \
       (%.1fs) verdict=%s\n"
      delta k (Port_graph.order g)
      (match psi with Some d -> string_of_int d | None -> "inf")
      dt_psi r.Scheme.rounds r.Scheme.advice_bits dt_run
      (match verdict with
      | Ok l -> Printf.sprintf "Ok(leader=%d)" l
      | Error e -> "Error: " ^ e);
    check "psi_S = k" (psi = Some k);
    check "PE verified in k rounds"
      (Result.is_ok verdict && r.Scheme.rounds = k);
    check "leader is rmin" (verdict = Ok (Uclass.rmin t))
  in
  run 4 1 2;
  run 5 1 3;
  if not quick then run 4 2 3

let e15_thm_3_11 () =
  section "E15" "Thm 3.11: PE fooling on U-class";
  let p = { Uclass.delta = 4; k = 1 } in
  List.iter
    (fun j ->
      let sa = Uclass.uniform_sigma p 1 in
      let sb = Uclass.uniform_sigma p 1 in
      sb.(j) <- 2;
      let a = Uclass.build p ~sigma:sa and b = Uclass.build p ~sigma:sb in
      let advice = Uclass.pe_scheme.Scheme.oracle a.Uclass.graph in
      let fooled =
        Scheme.run_with_advice Uclass.pe_scheme b.Uclass.graph ~advice
      in
      let verdict = Verify.port_election b.Uclass.graph fooled.Scheme.outputs in
      row "  sigma flip at tree %d: %s\n" (j + 1)
        (match verdict with
        | Ok _ -> "accepted (UNEXPECTED)"
        | Error e -> "rejected: " ^ e);
      check "fooling rejected" (Result.is_error verdict))
    [ 0; 4; 8 ]

let e16_fact_4_1 () =
  section "E16" "Fact 4.1: layer graph sizes (and diameter j)";
  List.iter
    (fun mu ->
      row "  mu=%d sizes L_0..L_6:" mu;
      List.iter (fun m -> row " %d" (Layers.size ~mu ~m)) [ 0; 1; 2; 3; 4; 5; 6 ];
      row "\n")
    [ 2; 3; 4 ];
  let ok = ref true in
  List.iter
    (fun mu ->
      List.iter
        (fun m ->
          let proto = Proto.create () in
          let _ = Layers.add proto ~mu ~m in
          let g = Proto.build proto in
          if Port_graph.order g <> Layers.size ~mu ~m then ok := false;
          if m >= 1 && Paths.diameter g <> m then ok := false)
        [ 1; 2; 3; 4; 5 ])
    [ 2; 3 ];
  check "built sizes match the formula; diameter L_j = j" !ok

let e17_component () =
  section "E17" "Figs 5-7: component H wiring; Lemma 4.3";
  List.iter
    (fun (mu, k) ->
      let g, c = Component.standalone ~mu ~k in
      let lemma43 = ref true and either = ref true in
      List.iter
        (fun v ->
          let d = Paths.bfs_distances g v in
          let misses = ref false in
          Array.iter
            (fun (w1, w2) ->
              if d.(w1) >= k && d.(w2) >= k then misses := true;
              if min d.(w1) d.(w2) > k then either := false)
            c.Component.w;
          if not !misses then lemma43 := false)
        (Port_graph.vertices g);
      row "  H(mu=%d,k=%d): n=%d diam=%d z=%d\n" mu k (Port_graph.order g)
        (Paths.diameter g) (Array.length c.Component.w);
      check "Lemma 4.3: every node misses a pair" !lemma43;
      check "finding: one of each pair always within k" !either;
      check "finding: diameter k+1 (not k as claimed informally)"
        (Paths.diameter g = k + 1))
    [ (2, 4); (3, 4); (3, 5) ]

let e18_e19_template () =
  section "E18-E19" "Gadget, template chaining, W encoding, Fact 4.2";
  let p = { Jclass.mu = 3; k = 4; z_eff = 4 } in
  let y = Jclass.y_zero p in
  y.(1) <- true;
  let t = Jclass.build p ~y in
  let g = t.Jclass.graph in
  row "  scaled J(3,4) with 2^%d gadgets: n=%d m=%d\n" p.Jclass.z_eff
    (Port_graph.order g) (Port_graph.size g);
  check "rho degree = 4mu"
    (Array.for_all
       (fun gd -> Port_graph.degree g gd.Jclass.rho = 12)
       t.Jclass.gadgets);
  let last = Array.length t.Jclass.gadgets - 1 in
  let ok = ref true in
  Array.iteri
    (fun gi _ ->
      let w = Jclass.w_values t ~gadget:gi in
      let expect_r = if gi = last then 0 else gi + 1 in
      if not (w.(0) = gi && w.(1) = gi && w.(2) = expect_r && w.(3) = expect_r)
      then ok := false)
    t.Jclass.gadgets;
  check "W: L=T=index, R=B=successor (ends read 0)" !ok;
  row "  Fact 4.2: z(3,4)=%d z(4,4)=%d z(3,5)=%d; |J| = 2^(2^(z-1))\n"
    (Jclass.z ~mu:3 ~k:4) (Jclass.z ~mu:4 ~k:4) (Jclass.z ~mu:3 ~k:5)

let e20_to_e22_jclass () =
  section "E20-E22" "Prop 4.4, twins, Lemma 4.8/4.9 CPPE";
  let p = { Jclass.mu = 3; k = 4; z_eff = (if quick then 3 else 4) } in
  let y = Jclass.y_zero p in
  y.(0) <- true;
  let t = Jclass.build p ~y in
  let g = t.Jclass.graph in
  let refinement = Refinement.compute g ~depth:3 in
  let c0 = Refinement.class_of refinement ~depth:3 t.Jclass.gadgets.(0).Jclass.rho in
  check "Prop 4.4: all rho views equal at k-1"
    (Array.for_all
       (fun gd -> Refinement.class_of refinement ~depth:3 gd.Jclass.rho = c0)
       t.Jclass.gadgets);
  let psi = Refinement.min_unique_depth g in
  row "  scaled psi_S = %s (full template: exactly k = 4 by Lemma 4.7)\n"
    (match psi with Some d -> string_of_int d | None -> "inf");
  check "scaled psi_S within one of k"
    (match psi with Some d -> d >= 3 && d <= 4 | None -> false);
  let answers = Jclass.cppe_assignment t in
  check "Lemma 4.8 assignment verifies"
    (Verify.complete_port_path_election g answers
    = Ok t.Jclass.gadgets.(0).Jclass.rho);
  let scheme = Jclass.cppe_scheme t in
  let (r, dt) = time (fun () -> Scheme.run scheme g) in
  row "  CPPE simulated: rounds=%d advice=%d bits (%.1fs)\n" r.Scheme.rounds
    r.Scheme.advice_bits dt;
  check "CPPE in k rounds through the simulator"
    (r.Scheme.rounds = 4
    && Verify.complete_port_path_election g r.Scheme.outputs
       = Ok t.Jclass.gadgets.(0).Jclass.rho)

let e23_thm_4_11 () =
  section "E23" "Lemma 4.10 + Thm 4.11/4.12: CPPE fooling on J-class";
  let p = { Jclass.mu = 3; k = 4; z_eff = 3 } in
  let ya = Jclass.y_zero p in
  let yb = Jclass.y_zero p in
  yb.(1) <- true;
  let a = Jclass.build p ~y:ya and b = Jclass.build p ~y:yb in
  let border t =
    fst t.Jclass.gadgets.(0).Jclass.components.(0).Component.w.(0)
  in
  check "Lemma 4.10(1): border views equal across J_Y"
    (Refinement.equal_views_cross a.Jclass.graph (border a) b.Jclass.graph
       (border b) ~depth:4);
  let scheme = Jclass.cppe_scheme a in
  let advice = scheme.Scheme.oracle a.Jclass.graph in
  let fooled = Scheme.run_with_advice scheme b.Jclass.graph ~advice in
  let verdict =
    Verify.complete_port_path_election b.Jclass.graph fooled.Scheme.outputs
  in
  row "  advice(J_a) on J_b: %s\n"
    (match verdict with
    | Ok _ -> "accepted (UNEXPECTED)"
    | Error e -> "rejected: " ^ e);
  check "fooling rejected" (Result.is_error verdict)

let e24_separation () =
  section "E24" "Headline separation: information floors (bits of advice)";
  row "  %6s %20s %24s\n" "delta" "S floor" "PE floor";
  List.iter
    (fun delta ->
      row "  %6d %20.1f %24.1f\n" delta
        (Gclass.num_graphs_log2 { Gclass.delta; k = 1 })
        (Uclass.num_graphs_log2 { Uclass.delta; k = 1 }))
    [ 4; 5; 6; 8; 10; 12; 16 ];
  row "  PPE/CPPE floor on J: 2^(z-1) with z = |L_k| >= mu^(k/2)\n";
  check "S floor polynomial vs PE floor exponential (ratio grows)"
    (let r d =
       Uclass.num_graphs_log2 { Uclass.delta = d; k = 1 }
       /. Gclass.num_graphs_log2 { Gclass.delta = d; k = 1 }
     in
     r 5 > r 4 && r 6 > r 5 && r 8 > r 6)

let e25_tradeoff () =
  section "E25"
    "Extension (open question, Section 5): time vs advice tradeoff";
  row
    "  with 2(n-1) rounds instead of the minimum, gamma(n) advice bits \
     suffice for every shade:\n";
  row "  %-22s %6s | %13s %12s | %13s %12s\n" "instance" "n" "min rounds"
    "advice bits" "2(n-1) rounds" "advice bits";
  (* Selection on a G-class member: Thm 2.2 vs size advice. *)
  let g_i = Gclass.build { Gclass.delta = 4; k = 1 } ~i:3 in
  let min_run = Scheme.run Select_by_view.scheme g_i.Gclass.graph in
  let relaxed = Size_advice.run Size_advice.selection g_i.Gclass.graph in
  check "both S runs verify"
    (Result.is_ok (Verify.selection g_i.Gclass.graph min_run.Scheme.outputs)
    && Result.is_ok
         (Verify.selection g_i.Gclass.graph relaxed.Size_advice.outputs));
  row "  %-22s %6d | %13d %12d | %13d %12d\n" "S on G(4,1,i=3)"
    (Port_graph.order g_i.Gclass.graph)
    min_run.Scheme.rounds min_run.Scheme.advice_bits
    relaxed.Size_advice.rounds relaxed.Size_advice.advice_bits;
  (* Port Election on a U-class member: Lemma 3.9 (map advice) vs size
     advice — the exponential-vs-logarithmic collapse. *)
  if not quick then begin
    let p = { Uclass.delta = 4; k = 1 } in
    let u = Uclass.build p ~sigma:(Uclass.uniform_sigma p 2) in
    let min_run = Scheme.run Uclass.pe_scheme u.Uclass.graph in
    let (relaxed, dt) =
      time (fun () -> Size_advice.run Size_advice.port_election u.Uclass.graph)
    in
    check "both PE runs verify"
      (Result.is_ok
         (Verify.port_election u.Uclass.graph min_run.Scheme.outputs)
      && Result.is_ok
           (Verify.port_election u.Uclass.graph relaxed.Size_advice.outputs));
    row "  %-22s %6d | %13d %12d | %13d %12d   (%.1fs)\n" "PE on U(4,1)"
      (Port_graph.order u.Uclass.graph)
      min_run.Scheme.rounds min_run.Scheme.advice_bits
      relaxed.Size_advice.rounds relaxed.Size_advice.advice_bits dt;
    check "advice collapses by >100x"
      (min_run.Scheme.advice_bits > 100 * relaxed.Size_advice.advice_bits)
  end;
  (* CPPE on random graphs. *)
  let st = Random.State.make [| 77 |] in
  let done_ = ref 0 in
  while !done_ < 3 do
    let g = Gen.random st (5 + Random.State.int st 5) ~extra_edges:3 in
    match Index.psi_cppe g with
    | None -> ()
    | Some k ->
        incr done_;
        let min_run = Scheme.run Map_advice.complete_port_path_election g in
        let relaxed =
          Size_advice.run Size_advice.complete_port_path_election g
        in
        check "both CPPE runs verify"
          (Result.is_ok
             (Verify.complete_port_path_election g min_run.Scheme.outputs)
          && Result.is_ok
               (Verify.complete_port_path_election g
                  relaxed.Size_advice.outputs));
        row "  %-22s %6d | %13d %12d | %13d %12d\n"
          (Printf.sprintf "CPPE random (psi=%d)" k)
          (Port_graph.order g) min_run.Scheme.rounds
          min_run.Scheme.advice_bits relaxed.Size_advice.rounds
          relaxed.Size_advice.advice_bits
  done

let e26_exact_min_advice () =
  section "E26"
    "Extension: exact minimum advice for minimum-time Selection on G";
  row
    "  the Thm 2.9 pigeonhole is tight: every class member needs its own \
     string\n";
  List.iter
    (fun (delta, k) ->
      let p = { Gclass.delta; k } in
      let count = Option.get (Gclass.num_graphs p) in
      let graphs =
        List.init count (fun i -> (Gclass.build p ~i:(i + 1)).Gclass.graph)
      in
      let min_strings = Min_advice.min_advice_strings ~depth:k graphs in
      row "  G(%d,%d): %d graphs -> min advice strings = %d (>= %d bits)\n"
        delta k count min_strings
        (Min_advice.bits_for min_strings);
      check "every graph needs its own advice" (min_strings = count))
    [ (3, 1); (3, 2); (4, 1) ];
  (* Control: graphs with disjoint distinguishing views can share. *)
  check "control: star and path share one string"
    (Min_advice.sharable ~depth:0 [ Gen.star 4; Gen.path 3 ])

let e27_labeling_sensitivity () =
  section "E27"
    "Extension: election indexes depend on the port labeling, not just \
     the topology";
  let path n = List.init (n - 1) (fun i -> (i, i + 1)) in
  let cycle n = List.init n (fun i -> (i, (i + 1) mod n)) in
  let star n = List.init (n - 1) (fun i -> (0, i + 1)) in
  row "  %-10s %10s %9s %12s %12s\n" "skeleton" "labelings" "feasible"
    "psi_S range" "psi_CPPE rng";
  List.iter
    (fun (name, n, edges) ->
      let labelings = Gen.all_labelings n edges in
      let feas = ref 0 in
      let s_lo = ref max_int and s_hi = ref min_int in
      let c_lo = ref max_int and c_hi = ref min_int in
      List.iter
        (fun g ->
          match (Index.psi_s g, Index.psi_cppe g) with
          | Some s, Some c ->
              incr feas;
              s_lo := min !s_lo s;
              s_hi := max !s_hi s;
              c_lo := min !c_lo c;
              c_hi := max !c_hi c
          | _ -> ())
        labelings;
      let range lo hi =
        if !feas = 0 then "-" else Printf.sprintf "%d..%d" lo hi
      in
      row "  %-10s %10d %9d %12s %12s\n" name (List.length labelings) !feas
        (range !s_lo !s_hi) (range !c_lo !c_hi))
    [
      ("path-4", 4, path 4); ("path-5", 5, path 5); ("cycle-4", 4, cycle 4);
      ("cycle-5", 5, cycle 5); ("star-4", 4, star 4);
    ];
  (* Specific contrast: the same 4-path skeleton admits both an
     infeasible (mirror) labeling and psi_S in {0..}-style variation. *)
  let labelings = Gen.all_labelings 4 (path 4) in
  let statuses = List.map Index.psi_s labelings in
  check "4-path: some labeling infeasible" (List.mem None statuses);
  check "4-path: some labeling feasible"
    (List.exists Option.is_some statuses)

let e28_async () =
  section "E28"
    "Extension: asynchrony with time-stamps (Section 1 remark)";
  let g = (Gclass.build { Gclass.delta = 4; k = 1 } ~i:3).Gclass.graph in
  let sync = Scheme.run Select_by_view.scheme g in
  let ok = ref true in
  List.iter
    (fun seed ->
      let exec =
        { Shades_localsim.Exec.default with timing = Async (Seeded seed) }
      in
      let async = Scheme.run ~exec Select_by_view.scheme g in
      if async.Scheme.outputs <> sync.Scheme.outputs then ok := false;
      if async.Scheme.rounds <> sync.Scheme.rounds then ok := false)
    [ 0; 1; 2; 3; 4 ];
  check
    "Thm 2.2 scheme under 5 adversarial delay schedules = synchronous run"
    !ok;
  row "  rounds = %d, leader identical across all schedules\n"
    sync.Scheme.rounds

let e29_pe_pairwise () =
  section "E29"
    "Extension: exact PE-sharability on U (the Thm 3.11 engine, verified \
     pairwise)";
  let p = { Uclass.delta = 4; k = 1 } in
  let graph sigma = (Uclass.build p ~sigma).Uclass.graph in
  (* several sigma pairs differing in one or more entries *)
  let base = Uclass.uniform_sigma p 1 in
  let variants =
    List.map
      (fun changes ->
        let s = Array.copy base in
        List.iter (fun (j, v) -> s.(j) <- v) changes;
        (changes, graph s))
      [ [ (0, 2) ]; [ (4, 3) ]; [ (8, 2) ]; [ (2, 2); (6, 3) ] ]
  in
  let a = graph base in
  List.iter
    (fun (changes, b) ->
      let sharable = Min_advice.pe_sharable ~depth:1 a b in
      row "  sigma flips %s: sharable = %b\n"
        (String.concat ","
           (List.map (fun (j, v) -> Printf.sprintf "%d->%d" (j + 1) v) changes))
        sharable;
      check "different sigma unsharable" (not sharable))
    variants;
  check "identical sigma sharable (control)"
    (Min_advice.pe_sharable ~depth:1 a (graph base));
  row
    "  => pairwise conflicts force (delta-1)^y distinct strings: the \
     Thm 3.11 bound is the exact count\n"

let e30_labeled_baselines () =
  section "E30"
    "Related-work baselines: labeled ring election message complexity";
  row
    "  [28]/[19]/[40]: comparison-based rings take Θ(n log n) messages; \
     naive circulation is Θ(n²)\n";
  row "  %6s %12s %12s %12s %12s\n" "n" "LCR worst" "LCR random" "HS"
    "Peterson";
  let module L = Shades_labeled.Model in
  List.iter
    (fun n ->
      let g = Gen.oriented_ring n in
      let desc = Array.init n (fun i -> n - i) in
      let rand =
        let st = Random.State.make [| n |] in
        let a = Array.init n (fun i -> i + 1) in
        for i = n - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        a
      in
      let msgs labels alg = (L.run g ~labels alg).L.messages in
      row "  %6d %12d %12d %12d %12d\n" n
        (msgs desc Shades_labeled.Chang_roberts.algorithm)
        (msgs rand Shades_labeled.Chang_roberts.algorithm)
        (msgs desc Shades_labeled.Hirschberg_sinclair.algorithm)
        (msgs desc Shades_labeled.Peterson.algorithm))
    [ 16; 32; 64; 128; 256 ];
  let g = Gen.oriented_ring 256 in
  let desc = Array.init 256 (fun i -> 256 - i) in
  let lcr =
    (L.run g ~labels:desc Shades_labeled.Chang_roberts.algorithm).L.messages
  in
  let hs =
    (L.run g ~labels:desc Shades_labeled.Hirschberg_sinclair.algorithm)
      .L.messages
  in
  check "quadratic vs n log n separation at n=256" (lcr > 10 * hs);
  (* Section 1's remark: labeled strong election is easy — flooding the
     max label solves it on any graph. *)
  let g = Gen.random (Random.State.make [| 12 |]) 40 ~extra_edges:30 in
  let labels = Array.init 40 (fun i -> (i * 13) mod 41) in
  let r = L.run g ~labels (Shades_labeled.Flood_max.algorithm ~n:40) in
  let ok =
    Array.for_all
      (function
        | Task.Leader -> true
        | Task.Follower l -> l = Array.fold_left max min_int labels)
      r.L.outputs
  in
  check "flood-max: strong election on an arbitrary labeled graph" ok;
  row "  flood-max on n=40 random graph: %d rounds, %d messages\n" r.L.rounds
    r.L.messages

let () =
  Printf.printf "Four Shades of Deterministic Leader Election — experiments%s\n"
    (if quick then " (quick)" else "");
  e1_hierarchy ();
  e2_named_examples ();
  e3_prop_2_1 ();
  e4_thm_2_2 ();
  e5_figure_1 ();
  e6_fact_2_3 ();
  e7_to_e9_gclass ();
  e10_thm_2_9 ();
  e11_fact_3_1 ();
  e12_to_e14_uclass ();
  e15_thm_3_11 ();
  e16_fact_4_1 ();
  e17_component ();
  e18_e19_template ();
  e20_to_e22_jclass ();
  e23_thm_4_11 ();
  e24_separation ();
  e25_tradeoff ();
  e26_exact_min_advice ();
  e27_labeling_sensitivity ();
  e28_async ();
  e29_pe_pairwise ();
  e30_labeled_baselines ();
  Printf.printf "\nAll experiments PASS.\n"
