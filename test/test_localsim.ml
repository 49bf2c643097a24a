(* Tests for the LOCAL-model simulator. *)

open Shades_graph
open Shades_views
open Shades_localsim

let no_advice = Shades_bits.Bitstring.empty

let async seed = { Exec.default with timing = Async (Seeded seed) }

let run ?on_round ?(exec = Exec.default) g ~advice alg =
  Exec.run ?on_round exec g ~advice alg

(* fault-free runs decide everywhere *)
let total (r : _ Exec.result) = Array.map Option.get r.outputs

(* A trivial algorithm that just counts down [r] rounds and then outputs
   its degree. *)
let countdown r =
  {
    Engine.init = (fun ~degree ~advice:_ -> (degree, r));
    send = (fun (_, left) ~port:_ -> if left > 0 then Some () else None);
    step = (fun (d, left) _ -> (d, left - 1));
    output = (fun (d, left) -> if left <= 0 then Some d else None);
  }

let test_round_counting () =
  let g = Gen.oriented_ring 5 in
  let result = run g ~advice:no_advice (countdown 3) in
  Alcotest.(check int) "rounds" 3 result.rounds;
  Alcotest.(check (array int)) "outputs" [| 2; 2; 2; 2; 2 |] (total result)

let test_zero_rounds () =
  let g = Gen.path 3 in
  let result = run g ~advice:no_advice (countdown 0) in
  Alcotest.(check int) "no rounds" 0 result.rounds

let test_nontermination () =
  let never =
    {
      Engine.init = (fun ~degree:_ ~advice:_ -> ());
      send = (fun () ~port:_ -> Some ());
      step = (fun () _ -> ());
      output = (fun () -> None);
    }
  in
  let g = Gen.path 3 in
  Alcotest.check_raises "raises" (Engine.Did_not_terminate 5) (fun () ->
      ignore
        (run ~exec:{ Exec.default with max_rounds = Some 5 } g
           ~advice:no_advice never))

let test_advice_delivered () =
  (* Every node must receive the same advice string. *)
  let advice = Shades_bits.Bitstring.of_string "1011" in
  let echo =
    {
      Engine.init =
        (fun ~degree:_ ~advice -> Shades_bits.Bitstring.to_string advice);
      send = (fun _ ~port:_ -> None);
      step = (fun st _ -> st);
      output = (fun st -> Some st);
    }
  in
  let g = Gen.path 3 in
  let result = run g ~advice echo in
  Alcotest.(check (array string)) "advice" [| "1011"; "1011"; "1011" |]
    (total result)

(* Flooding: each node outputs the round at which it first heard from a
   degree-1 node (leaves output 0).  On a path, that is the distance to
   the nearest endpoint — exercises real message propagation.  A node
   announces for one round and only then decides: a decided node has
   halted (it sends nothing), so the announcement must precede the
   output. *)
let flooding =
  let send st ~port:_ =
    match st with `Heard (_, true) -> Some () | _ -> None
  in
  {
    Engine.init =
      (fun ~degree ~advice:_ ->
        if degree = 1 then `Heard (0, true) else `Waiting 0);
    send;
    step =
      (fun st inbox ->
        match st with
        | `Heard (r, _) -> `Heard (r, false)
        | `Waiting r ->
            if inbox <> [] then `Heard (r + 1, true) else `Waiting (r + 1));
    output =
      (fun st ->
        match st with `Heard (r, false) -> Some r | _ -> None);
  }

let test_flooding_distances () =
  let g = Gen.path 7 in
  let result = run g ~advice:no_advice flooding in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 2; 1; 0 |]
    (total result)

(* Decided nodes halt: a node whose output is [Some _] at round 0 must
   never send or step, even while other nodes are still running — the
   same short-circuit as when all nodes decide at round 0.  The
   spammer's send would emit on every port every round; with the
   short-circuit, the only traffic is the middle node's own. *)
let spam_if_alive rounds_for_interior =
  {
    Engine.init =
      (fun ~degree ~advice:_ ->
        if degree = 1 then `Done 0 else `Counting (rounds_for_interior, 0));
    send = (fun _ ~port:_ -> Some ());
    step =
      (fun st inbox ->
        match st with
        | `Done _ -> st
        | `Counting (left, heard) ->
            `Counting (left - 1, heard + List.length inbox));
    output =
      (fun st ->
        match st with
        | `Done h -> Some h
        | `Counting (left, heard) -> if left <= 0 then Some heard else None);
  }

let test_round0_decided_halt () =
  let g = Gen.path 3 in
  let result = run g ~advice:no_advice (spam_if_alive 2) in
  (* ends decided at round 0: heard nothing, sent nothing; the middle
     node's 2 ports * 2 rounds are the only messages *)
  Alcotest.(check (array int)) "no spam received" [| 0; 0; 0 |] (total result);
  Alcotest.(check int) "only the live node sent" 4 result.messages

let test_async_round0_decided_halt () =
  let g = Gen.path 3 in
  List.iter
    (fun seed ->
      let result =
        run ~exec:(async seed) g ~advice:no_advice (spam_if_alive 2)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "no spam received (seed %d)" seed)
        [| 0; 0; 0 |] (total result);
      Alcotest.(check int)
        (Printf.sprintf "only the live node sent (seed %d)" seed)
        4 result.messages)
    [ 0; 1; 9 ]

let test_on_round_hook () =
  let g = Gen.oriented_ring 5 in
  let seen = ref [] in
  let result =
    run
      ~on_round:(fun ~round ~messages -> seen := (round, messages) :: !seen)
      g ~advice:no_advice (countdown 3)
  in
  Alcotest.(check (list (pair int int)))
    "hook saw every round with cumulative messages"
    [ (1, 10); (2, 20); (3, 30) ]
    (List.rev !seen);
  Alcotest.(check int) "hook total = result total" result.messages 30

let test_async_on_round_hook () =
  (* The hook fires on the first undecided step of each round, so the
     reported rounds are exactly the synchronous engine's 1..R — no
     overshoot from decided nodes' marker-only round completions — and
     the cumulative message counts never decrease. *)
  List.iter
    (fun seed ->
      let g = Gen.oriented_ring 5 in
      let seen = ref [] in
      let result =
        run ~exec:(async seed)
          ~on_round:(fun ~round ~messages -> seen := (round, messages) :: !seen)
          g ~advice:no_advice (countdown 3)
      in
      Alcotest.(check int) "rounds" 3 result.rounds;
      let seen = List.rev !seen in
      Alcotest.(check (list int))
        (Printf.sprintf "rounds exactly 1..3, once each, in order (seed %d)"
           seed)
        [ 1; 2; 3 ] (List.map fst seen);
      let messages = List.map snd seen in
      Alcotest.(check bool)
        (Printf.sprintf "cumulative messages monotone (seed %d)" seed)
        true
        (List.for_all2 ( <= ) messages (List.tl messages @ [ max_int ]));
      Alcotest.(check bool)
        (Printf.sprintf "counts within the run total (seed %d)" seed)
        true
        (List.for_all
           (fun m -> m >= 0 && m <= result.messages)
           messages))
    [ 0; 1; 2; 17 ]

(* One round budget for every timing: a 3-vertex star whose leaves
   decide at init and whose center needs one round, run with a budget
   of zero rounds, must stall before executing round 1 — sequentially,
   sharded at any domain count, and under every delay schedule. *)
let test_budget_every_timing () =
  let g = Gen.star 3 in
  let timings =
    (Exec.Sequential :: List.map (fun d -> Exec.Sharded (Some d)) [ 1; 2; 3; 4 ])
    @ List.init 21 (fun seed -> Exec.Async (Seeded seed))
    @ [ Exec.Async (Plan (fun ~round:_ ~v ~port -> 0.1 +. float (v + port))) ]
  in
  List.iteri
    (fun i timing ->
      let exec = { Exec.default with timing; max_rounds = Some 0 } in
      Alcotest.check_raises
        (Printf.sprintf "timing #%d stalls at budget 0" i)
        (Engine.Did_not_terminate 0) (fun () ->
          ignore (Exec.run exec g ~advice:no_advice (spam_if_alive 1))))
    timings

let test_async_rejects_faults () =
  let exec =
    {
      Exec.default with
      timing = Async (Seeded 0);
      faults = [ { Engine.victim = 0; at_round = 1 } ];
    }
  in
  Alcotest.check_raises "async + faults"
    (Invalid_argument "Exec.run: no kernel combines asynchronous timing with faults")
    (fun () -> ignore (Exec.run exec (Gen.path 3) ~advice:no_advice (countdown 1)))

(* The full-information protocol must reconstruct exactly B^r. *)

let rand_graph =
  QCheck.make
    ~print:(fun (seed, n, e, d) ->
      Printf.sprintf "seed=%d n=%d extra=%d rounds=%d" seed n e d)
    QCheck.Gen.(
      quad (int_bound 10_000) (int_range 2 10) (int_bound 5) (int_range 0 3))

let prop_full_info_views =
  QCheck.Test.make ~name:"full-info protocol gathers exactly B^r" ~count:100
    rand_graph (fun (seed, n, extra, rounds) ->
      let g = Gen.random (Random.State.make [| seed |]) n ~extra_edges:extra in
      let views =
        Full_info.run g ~rounds ~advice:no_advice
          ~decide:(fun ~advice:_ view -> view)
      in
      List.for_all
        (fun v ->
          View_tree.equal views.(v) (View_tree.of_graph g v ~depth:rounds))
        (Port_graph.vertices g))

let prop_adaptive_rounds =
  QCheck.Test.make ~name:"adaptive round count honoured" ~count:50 rand_graph
    (fun (seed, n, extra, rounds) ->
      let g = Gen.random (Random.State.make [| seed |]) n ~extra_edges:extra in
      let r =
        Full_info.run_adaptive g ~advice:no_advice
          ~rounds_of:(fun ~advice:_ ~degree:_ -> rounds)
          ~decide:(fun ~advice:_ _ -> ())
      in
      r.rounds = rounds)

(* --- asynchronous execution with time-stamps --- *)

let test_async_flooding () =
  (* The α-synchronizer makes asynchronous delays invisible. *)
  let g = Gen.path 7 in
  List.iter
    (fun seed ->
      let result = run ~exec:(async seed) g ~advice:no_advice flooding in
      Alcotest.(check (array int))
        (Printf.sprintf "async distances (seed %d)" seed)
        [| 0; 1; 2; 3; 2; 1; 0 |] (total result))
    [ 0; 1; 2; 17 ]

let test_async_zero_rounds () =
  let g = Gen.path 3 in
  let result = run ~exec:(async 0) g ~advice:no_advice (countdown 0) in
  Alcotest.(check int) "no rounds" 0 result.rounds

let test_async_nontermination () =
  let never =
    {
      Engine.init = (fun ~degree:_ ~advice:_ -> ());
      send = (fun () ~port:_ -> Some ());
      step = (fun () _ -> ());
      output = (fun () -> None);
    }
  in
  let g = Gen.path 3 in
  Alcotest.check_raises "raises" (Engine.Did_not_terminate 5) (fun () ->
      ignore
        (run ~exec:{ (async 0) with max_rounds = Some 5 } g ~advice:no_advice
           never))

let prop_async_equals_sync =
  (* Any delay schedule yields the synchronous outputs and round count. *)
  QCheck.Test.make ~name:"async run = sync run (countdown, flooding)"
    ~count:100
    QCheck.(triple (int_bound 10_000) (int_range 2 10) (int_bound 5))
    (fun (seed, n, extra) ->
      let g = Gen.random (Random.State.make [| seed |]) n ~extra_edges:extra in
      (* flooding starts from degree-1 nodes and hangs without one *)
      QCheck.assume
        (List.exists
           (fun v -> Port_graph.degree g v = 1)
           (Port_graph.vertices g));
      let sync_c = run g ~advice:no_advice (countdown 3) in
      let async_c = run ~exec:(async seed) g ~advice:no_advice (countdown 3) in
      let sync_f = run g ~advice:no_advice flooding in
      let async_f = run ~exec:(async seed) g ~advice:no_advice flooding in
      sync_c.outputs = async_c.outputs
      && sync_c.rounds = async_c.rounds
      && sync_f.outputs = async_f.outputs
      && sync_f.rounds = async_f.rounds)

let prop_async_full_info =
  (* The view-exchange protocol survives asynchrony: B^r gathered
     exactly, under every delay schedule. *)
  QCheck.Test.make ~name:"async full-info gathers exactly B^r" ~count:50
    rand_graph (fun (seed, n, extra, rounds) ->
      let g = Gen.random (Random.State.make [| seed |]) n ~extra_edges:extra in
      let alg =
        {
          Engine.init =
            (fun ~degree ~advice:_ ->
              (rounds, { View_tree.degree; children = [||] }));
          send =
            (fun (target, view) ~port ->
              if target = 0 then None else Some (port, view));
          step =
            (fun (target, view) inbox ->
              if target = 0 then (target, view)
              else begin
                let degree = view.View_tree.degree in
                let children = Array.make degree (0, view) in
                List.iter
                  (fun (p, (q, sub)) -> children.(p) <- (q, sub))
                  inbox;
                (target - 1, { View_tree.degree; children })
              end);
          output =
            (fun (target, view) -> if target = 0 then Some view else None);
        }
      in
      let result = total (run ~exec:(async seed) g ~advice:no_advice alg) in
      List.for_all
        (fun v ->
          View_tree.equal result.(v)
            (View_tree.of_graph g v ~depth:rounds))
        (Port_graph.vertices g))

let () =
  Alcotest.run "shades_localsim"
    [
      ( "engine",
        [
          Alcotest.test_case "round counting" `Quick test_round_counting;
          Alcotest.test_case "zero rounds" `Quick test_zero_rounds;
          Alcotest.test_case "nontermination" `Quick test_nontermination;
          Alcotest.test_case "advice" `Quick test_advice_delivered;
          Alcotest.test_case "flooding" `Quick test_flooding_distances;
          Alcotest.test_case "round-0 deciders halt" `Quick
            test_round0_decided_halt;
          Alcotest.test_case "on_round hook" `Quick test_on_round_hook;
          Alcotest.test_case "round budget, every timing" `Quick
            test_budget_every_timing;
          Alcotest.test_case "async rejects faults" `Quick
            test_async_rejects_faults;
        ] );
      ( "full_info",
        List.map QCheck_alcotest.to_alcotest
          [ prop_full_info_views; prop_adaptive_rounds ] );
      ( "async",
        Alcotest.test_case "flooding" `Quick test_async_flooding
        :: Alcotest.test_case "zero rounds" `Quick test_async_zero_rounds
        :: Alcotest.test_case "nontermination" `Quick test_async_nontermination
        :: Alcotest.test_case "round-0 deciders halt" `Quick
             test_async_round0_decided_halt
        :: Alcotest.test_case "on_round hook" `Quick test_async_on_round_hook
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_async_equals_sync; prop_async_full_info ] );
    ]
