(* lib/adversary: adversarial schedules, crash-stop faults, and
   advice-corruption campaigns.

   The load-bearing properties:
   - fault plans execute identically on the sequential and sharded
     engines, byte-for-byte in the trace, at every domain count;
   - a round-0 crash is, for every other node, exactly the deletion of
     the victim's outgoing messages;
   - delay-plan search is deterministic and plan-invariant in outputs;
   - the renumber swap fools all four map-advice shades while bit-level
     damage is detected — the smoke campaign's gate contract. *)

open Shades_graph
open Shades_localsim
module Event = Shades_trace.Event
module Trace = Shades_trace.Trace
module Codec = Shades_trace.Codec
module Task = Shades_election.Task
module Map_advice = Shades_election.Map_advice
module Shade = Shades_election.Shade
module Schedule = Shades_adversary.Schedule
module Fault = Shades_adversary.Fault
module Corrupt = Shades_adversary.Corrupt
module Campaign = Shades_adversary.Campaign

let no_advice = Shades_bits.Bitstring.empty

(* Crash-tolerant message counter: run [r] rounds unconditionally,
   output (degree, total messages received).  Inbox-dependent — exactly
   what makes fault equivalences observable. *)
let summing r =
  {
    Engine.init = (fun ~degree ~advice:_ -> (degree, r, 0));
    send = (fun (_, left, _) ~port:_ -> if left > 0 then Some () else None);
    step = (fun (d, left, acc) inbox -> (d, left - 1, acc + List.length inbox));
    output = (fun (d, left, acc) -> if left <= 0 then Some (d, acc) else None);
  }

let random_graph seed n extra =
  Gen.random (Random.State.make [| seed |]) n ~extra_edges:extra

let random_faults seed n =
  let rng = Random.State.make [| seed; 77 |] in
  List.init
    (Random.State.int rng 3)
    (fun _ ->
      {
        Engine.victim = Random.State.int rng n;
        at_round = Random.State.int rng 6 - 1;
      })

(* --- sequential = sharded under any fault plan, traces included --- *)

let faulty_run ?(timing = Exec.Sequential) g ~faults alg =
  let events = ref [] in
  let r =
    Exec.run
      ~tracer:(fun e -> events := e :: !events)
      { Exec.default with timing; faults }
      g ~advice:no_advice alg
  in
  (r, List.rev !events)

let prop_sharded_fault_equiv =
  QCheck.Test.make
    ~name:"sharded = sequential under fault plans (traced, domains 1/2/4)"
    ~count:60
    QCheck.(triple (int_bound 10_000) (int_range 2 16) (int_bound 6))
    (fun (seed, n, extra) ->
      let g = random_graph seed n extra in
      let faults = random_faults seed n in
      let seq = faulty_run g ~faults (summing 3) in
      List.for_all
        (fun domains ->
          seq
          = faulty_run ~timing:(Sharded (Some domains)) g ~faults (summing 3))
        [ 1; 2; 4 ])

(* --- crash at round 0 = deleting the victim's outgoing messages --- *)

let prop_crash0_is_muted_sends =
  QCheck.Test.make
    ~name:"round-0 crash = victim's outgoing messages deleted" ~count:80
    QCheck.(triple (int_bound 10_000) (int_range 3 16) (int_bound 6))
    (fun (seed, n, extra) ->
      let g = random_graph seed n extra in
      let v = seed mod n in
      let r = 1 + (seed mod 3) in
      let res, _ =
        faulty_run g ~faults:[ { Engine.victim = v; at_round = 0 } ] (summing r)
      in
      (* every node sends on every port each of the r rounds, so with
         only v muted, node u receives r * (deg u - [u ~ v]) messages —
         the closed form of the fault-free run minus v's traffic *)
      let expected u =
        let adjacent =
          Option.is_some (Port_graph.port_to g u v)
        in
        r * (Port_graph.degree g u - if adjacent then 1 else 0)
      in
      let outputs_ok =
        List.for_all
          (fun u ->
            if u = v then res.Exec.outputs.(u) = None
            else
              res.Exec.outputs.(u)
              = Some (Port_graph.degree g u, expected u))
          (Port_graph.vertices g)
      in
      let messages_ok =
        res.Exec.messages
        = r * ((2 * Port_graph.size g) - Port_graph.degree g v)
      in
      outputs_ok && messages_ok && res.Exec.rounds = r)

(* --- fault plan semantics --- *)

let test_crash_schedule () =
  let plan =
    Fault.normalize ~n:5
      [
        { Engine.victim = 3; at_round = 4 };
        { Engine.victim = 1; at_round = -7 };
        { Engine.victim = 3; at_round = 2 };
      ]
  in
  Alcotest.(check bool)
    "earliest wins, negatives clamp, victims ascending" true
    (plan
    = [
        { Engine.victim = 1; at_round = 0 }; { Engine.victim = 3; at_round = 2 };
      ]);
  Alcotest.check_raises "victim out of range"
    (Invalid_argument "Engine: crash victim out of range") (fun () ->
      ignore (Fault.normalize ~n:5 [ { Engine.victim = 5; at_round = 1 } ]))

(* The empty plan is the fault-free run, and so is a plan whose only
   crash falls after every node decided (a no-op, never traced). *)
let test_faultfree_plan_is_run () =
  let g = Gen.path 5 in
  let plain = faulty_run g ~faults:[] (summing 2) in
  Alcotest.(check bool) "empty plan: same result and trace" true
    (plain = faulty_run g ~faults:[] (summing 2));
  Alcotest.(check bool) "late crash: same result and trace" true
    (plain
    = faulty_run g ~faults:[ { Engine.victim = 2; at_round = 9 } ] (summing 2));
  Alcotest.(check bool) "fault-free: every node decided" true
    (Array.for_all Option.is_some (fst plain).Exec.outputs)

let test_scheme_fault_outcomes () =
  let g = Gen.path 4 in
  let scheme = Map_advice.selection in
  let outcome faults = Fault.run scheme g ~faults in
  (match outcome [] with
  | Fault.Survived { decided = 4; crashed = 0; _ } -> ()
  | o -> Alcotest.failf "fault-free: %s" (Fault.describe o));
  (* a mid-execution crash starves a live neighbour's view exchange *)
  (match outcome [ { Engine.victim = 1; at_round = 1 } ] with
  | Fault.Aborted _ -> ()
  | o -> Alcotest.failf "crash at 1: %s" (Fault.describe o));
  (* a crash scheduled after the single exchange round is harmless *)
  match outcome [ { Engine.victim = 0; at_round = 9 } ] with
  | Fault.Survived { decided = 4; crashed = 0; _ } -> ()
  | o -> Alcotest.failf "late crash: %s" (Fault.describe o)

(* Scheme runs report total outputs, so they refuse crash plans; the
   option-valued path is Fault.run / Full_info.run_adaptive. *)
let test_scheme_rejects_faults () =
  let module Scheme = Shades_election.Scheme in
  let g = Gen.path 4 in
  let scheme = Map_advice.selection in
  let exec =
    { Exec.default with faults = [ { Engine.victim = 1; at_round = 1 } ] }
  in
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a fault plan" name
    | exception Invalid_argument _ -> ()
  in
  rejects "Scheme.run" (fun () -> Scheme.run ~exec scheme g);
  rejects "Scheme.run_with_advice" (fun () ->
      Scheme.run_with_advice ~exec scheme g ~advice:(scheme.Scheme.oracle g))

(* --- Crash event: trace stats and codec round-trip --- *)

let test_crash_trace_roundtrip () =
  let g = Gen.path 4 in
  let rec_ = Trace.recorder () in
  let _ =
    Exec.run ~tracer:(Trace.emit rec_)
      {
        Exec.default with
        faults =
          [ { Engine.victim = 0; at_round = 0 }; { Engine.victim = 2; at_round = 2 } ];
      }
      g ~advice:no_advice (summing 3)
  in
  let trace =
    Trace.capture rec_
      {
        Trace.engine = Trace.Sync;
        graph_order = 4;
        advice_bits = 0;
        label = "crash-roundtrip";
      }
  in
  let stats = Trace.stats trace in
  Alcotest.(check int) "both crashes recorded" 2 stats.Trace.crashes;
  Alcotest.(check bool) "codec v2 round-trips Crash events" true
    (Codec.decode (Codec.encode trace) = Ok trace);
  (* the round-0 crash precedes round 1; the round-2 crash sits directly
     after its Round_start, before any Send *)
  let events = Array.to_list trace.Trace.events in
  let rec position acc = function
    | [] -> acc
    | Event.Crash { v; _ } :: rest -> position ((v, List.length acc) :: acc) rest
    | _ :: rest -> position acc rest
  in
  ignore (position [] events);
  let rec after_round2 = function
    | Event.Round_start { round = 2 } :: next :: _ ->
        next = Event.Crash { v = 2; round = 2 }
    | _ :: rest -> after_round2 rest
    | [] -> false
  in
  Alcotest.(check bool) "crash directly after Round_start 2" true
    (after_round2 events)

(* --- adversarial schedules --- *)

let test_schedule_invariance_and_search () =
  let g = Gen.path 4 in
  let scheme = Map_advice.selection in
  let reference = Shades_election.Scheme.run scheme g in
  let plan = Schedule.of_seed g ~seed:42 in
  let exec = { Exec.default with timing = Async (Plan (Schedule.delay_fn plan)) } in
  let run = Shades_election.Scheme.run ~exec scheme g in
  let makespan = run.Shades_election.Scheme.makespan in
  Alcotest.(check bool) "outputs plan-invariant" true
    (run.Shades_election.Scheme.outputs = reference.Shades_election.Scheme.outputs);
  Alcotest.(check int) "rounds plan-invariant"
    reference.Shades_election.Scheme.rounds run.Shades_election.Scheme.rounds;
  Alcotest.(check bool) "positive makespan" true (makespan > 0.0);
  let r1 = Schedule.search ~beam:2 scheme g ~init:(Schedule.uniform g 0.5) in
  let r2 = Schedule.search ~beam:2 scheme g ~init:(Schedule.uniform g 0.5) in
  Alcotest.(check bool) "search deterministic" true
    (r1.Schedule.plan = r2.Schedule.plan
    && r1.Schedule.makespan = r2.Schedule.makespan);
  Alcotest.(check bool) "search does not regress the initial plan" true
    (r1.Schedule.makespan >= Schedule.makespan scheme g (Schedule.uniform g 0.5))

let prop_seeded_plans_deterministic =
  QCheck.Test.make ~name:"of_seed plans and makespans are seed-determined"
    ~count:20
    QCheck.(pair (int_bound 10_000) (int_range 3 8))
    (fun (seed, n) ->
      let g = Gen.path n in
      let p1 = Schedule.of_seed g ~seed and p2 = Schedule.of_seed g ~seed in
      p1 = p2
      && Schedule.makespan Map_advice.selection g p1
         = Schedule.makespan Map_advice.selection g p2)

(* --- corruption: the smoke campaign contract --- *)

let test_renumber_swap_fools_all_shades () =
  let g = Gen.path 4 in
  List.iter
    (fun shade ->
      let p = Corrupt.prepare shade g in
      let op =
        Corrupt.renumber_swap ~label:"reversal" g
          (Corrupt.reversal (Port_graph.order g))
      in
      match p.Corrupt.classify op with
      | Corrupt.Fooling { leader; reference; _ } ->
          Alcotest.(check bool)
            (Task.kind_to_string (Shade.task shade) ^ " leader moved")
            true (leader <> reference)
      | c ->
          Alcotest.failf "%s: expected fooling, got %s"
            (Task.kind_to_string (Shade.task shade))
            (Corrupt.class_label c))
    (List.map Shade.map_advice Task.all)

let test_bit_damage_detected () =
  let g = Gen.path 4 in
  List.iter
    (fun shade ->
      let p = Corrupt.prepare shade g in
      let bits = p.Corrupt.advice_bits in
      List.iter
        (fun op ->
          match p.Corrupt.classify op with
          | Corrupt.Detected _ -> ()
          | Corrupt.Harmless _ -> () (* possible in principle; not fooling *)
          | Corrupt.Fooling _ ->
              Alcotest.failf "%s/%s: bit damage fooled the scheme"
                (Task.kind_to_string (Shade.task shade))
                (Corrupt.op_label op))
        (Corrupt.flips ~bits ~count:bits
        @ Corrupt.bursts ~bits ~len:8 ~count:5
        @ Corrupt.truncations ~bits ~count:5))
    (List.map Shade.map_advice Task.all)

let test_smoke_campaign_verdict () =
  let report = Campaign.run ~domains:2 (Campaign.smoke ()) in
  (match Campaign.verdict report with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verdict: %s" (String.concat "; " ps));
  List.iter
    (fun (s : Campaign.shade_summary) ->
      Alcotest.(check bool)
        (Task.kind_to_string s.Campaign.task ^ " feasible with >=1 fooling")
        true
        (s.Campaign.feasible && s.Campaign.fooling >= 1))
    report.Campaign.summaries;
  (* the campaign is deterministic at any domain count: the gate's
     byte-identical-store contract *)
  let report' = Campaign.run ~domains:1 (Campaign.smoke ()) in
  Alcotest.(check bool) "campaign domain-count invariant" true
    (Shades_runtime.Store.encode (Campaign.to_store report)
    = Shades_runtime.Store.encode (Campaign.to_store report'))

let test_campaign_gate_detects_drift () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "adv-gate-test" in
  let report = Campaign.run ~domains:2 (Campaign.smoke ()) in
  Campaign.save ~dir report;
  (match Campaign.gate ~baseline_dir:dir report with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "clean gate failed: %s" (String.concat "; " ps));
  let drifted =
    {
      report with
      Campaign.cells =
        List.map
          (fun (c : Campaign.cell) ->
            match c.Campaign.classification with
            | Corrupt.Fooling f ->
                {
                  c with
                  Campaign.classification =
                    Corrupt.Harmless { leader = f.reference; rounds = f.rounds };
                }
            | _ -> c)
          report.Campaign.cells;
    }
  in
  match Campaign.gate ~baseline_dir:dir drifted with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "gate accepted a drifted classification"

let () =
  Alcotest.run "shades_adversary"
    [
      ( "fault",
        [
          Alcotest.test_case "crash schedule normalization" `Quick
            test_crash_schedule;
          Alcotest.test_case "empty plan = fault-free run" `Quick
            test_faultfree_plan_is_run;
          Alcotest.test_case "scheme runs reject fault plans" `Quick
            test_scheme_rejects_faults;
          Alcotest.test_case "scheme-level outcomes" `Quick
            test_scheme_fault_outcomes;
          Alcotest.test_case "Crash events: stats, codec, position" `Quick
            test_crash_trace_roundtrip;
          QCheck_alcotest.to_alcotest prop_sharded_fault_equiv;
          QCheck_alcotest.to_alcotest prop_crash0_is_muted_sends;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "plan invariance + deterministic search" `Quick
            test_schedule_invariance_and_search;
          QCheck_alcotest.to_alcotest prop_seeded_plans_deterministic;
        ] );
      ( "corrupt",
        [
          Alcotest.test_case "renumber swap fools all four shades" `Quick
            test_renumber_swap_fools_all_shades;
          Alcotest.test_case "bit damage never fools" `Quick
            test_bit_damage_detected;
          Alcotest.test_case "smoke campaign verdict" `Quick
            test_smoke_campaign_verdict;
          Alcotest.test_case "gate detects classification drift" `Quick
            test_campaign_gate_detects_drift;
        ] );
    ]
