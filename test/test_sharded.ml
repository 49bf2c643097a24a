(* The vertex-sharded engine is an execution strategy, not a model
   change: for every algorithm, graph, advice string and domain count it
   must reproduce the sequential engine bit for bit — outputs, round
   count, message count, per-round telemetry, and the traced event
   stream.  These tests pin that equivalence, plus the fork-join
   barrier (Crew.run_all) the engine is built on. *)

open Shades_graph
open Shades_localsim
module Crew = Shades_pool.Crew
module Scheme = Shades_election.Scheme
module Gclass = Shades_families.Gclass
module Uclass = Shades_families.Uclass
module Jclass = Shades_families.Jclass

let no_advice = Shades_bits.Bitstring.empty

let domain_counts = [ 1; 2; 3; 4 ]

let sharded d = { Exec.default with timing = Sharded (Some d) }

(* --- Crew.run_all: the fork-join barrier --- *)

let test_run_all_runs_everything () =
  let crew = Crew.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Crew.shutdown crew)
    (fun () ->
      let hits = Array.make 20 0 in
      Crew.run_all crew
        (Array.init 20 (fun i () -> hits.(i) <- hits.(i) + 1));
      (* run_all returned: every write is visible to the caller *)
      Alcotest.(check (array int)) "each thunk ran exactly once"
        (Array.make 20 1) hits)

let test_run_all_empty () =
  let crew = Crew.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Crew.shutdown crew)
    (fun () -> Crew.run_all crew [||])

let test_run_all_single_domain () =
  let crew = Crew.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Crew.shutdown crew)
    (fun () ->
      let sum = ref 0 in
      Crew.run_all crew (Array.init 5 (fun i () -> sum := !sum + i));
      Alcotest.(check int) "all ran on one worker" 10 !sum)

exception Boom of int

let test_run_all_exception () =
  let crew = Crew.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Crew.shutdown crew)
    (fun () ->
      let survivors = ref 0 in
      let m = Mutex.create () in
      (* Thunks 1 and 3 fail; the smallest failing index is re-raised,
         and the non-failing thunks still all ran (the barrier waits for
         every thunk before raising). *)
      (match
         Crew.run_all crew
           (Array.init 6 (fun i () ->
                if i = 1 || i = 3 then raise (Boom i)
                else begin
                  Mutex.lock m;
                  incr survivors;
                  Mutex.unlock m
                end))
       with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "smallest index" 1 i);
      Alcotest.(check int) "other thunks still ran" 4 !survivors;
      (* the crew survives a failing batch *)
      let ok = ref false in
      Crew.run_all crew [| (fun () -> ok := true) |];
      Alcotest.(check bool) "crew usable after failure" true !ok)

let test_run_all_phase_visibility () =
  (* Writes from batch 1 must be visible to batch 2's thunks, whichever
     worker they land on — the happens-before edge the engine's
     send-barrier-deliver rounds rely on. *)
  let crew = Crew.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Crew.shutdown crew)
    (fun () ->
      let a = Array.make 64 0 in
      let b = Array.make 64 0 in
      for round = 1 to 50 do
        Crew.run_all crew
          (Array.init 8 (fun s () ->
               for i = 8 * s to (8 * s) + 7 do
                 a.(i) <- round
               done));
        Crew.run_all crew
          (Array.init 8 (fun s () ->
               (* read cells written by *other* shards in phase 1 *)
               let j = (s + 3) mod 8 in
               for i = 8 * j to (8 * j) + 7 do
                 b.(i) <- a.(i)
               done))
      done;
      Alcotest.(check (array int)) "phase-1 writes seen in phase 2"
        (Array.make 64 50) b)

let test_run_all_after_shutdown () =
  let crew = Crew.create ~domains:2 () in
  Crew.shutdown crew;
  match Crew.run_all crew [| (fun () -> ()) |] with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- Sharded vs Sequential timing on ad-hoc algorithms --- *)

let countdown r =
  {
    Engine.init = (fun ~degree ~advice:_ -> (degree, r));
    send = (fun (_, left) ~port:_ -> if left > 0 then Some () else None);
    step = (fun (d, left) _ -> (d, left - 1));
    output = (fun (d, left) -> if left <= 0 then Some d else None);
  }

let flooding =
  {
    Engine.init =
      (fun ~degree ~advice:_ ->
        if degree = 1 then `Heard (0, true) else `Waiting 0);
    send =
      (fun st ~port:_ ->
        match st with `Heard (_, true) -> Some () | _ -> None);
    step =
      (fun st inbox ->
        match st with
        | `Heard (r, _) -> `Heard (r, false)
        | `Waiting r ->
            if inbox <> [] then `Heard (r + 1, true) else `Waiting (r + 1));
    output = (fun st -> match st with `Heard (r, false) -> Some r | _ -> None);
  }

(* Run both engines with full instrumentation and compare everything. *)
let check_equiv ?(msg_size = fun _ -> 0) name g ~advice alg =
  let capture run =
    let events = ref [] in
    let hooks = ref [] in
    let result =
      run
        ~on_round:(fun ~round ~messages -> hooks := (round, messages) :: !hooks)
        ~tracer:(fun e -> events := e :: !events)
    in
    (result, List.rev !events, List.rev !hooks)
  in
  let seq_r, seq_events, seq_hooks =
    capture (fun ~on_round ~tracer ->
        Exec.run ~on_round ~tracer ~msg_size Exec.default g ~advice alg)
  in
  List.iter
    (fun domains ->
      let sh_r, sh_events, sh_hooks =
        capture (fun ~on_round ~tracer ->
            Exec.run ~on_round ~tracer ~msg_size (sharded domains) g ~advice alg)
      in
      let tag fmt = Printf.sprintf "%s (domains=%d): %s" name domains fmt in
      Alcotest.(check bool) (tag "outputs") true (seq_r.outputs = sh_r.outputs);
      Alcotest.(check int) (tag "rounds") seq_r.rounds sh_r.rounds;
      Alcotest.(check int) (tag "messages") seq_r.messages sh_r.messages;
      Alcotest.(check (list (pair int int)))
        (tag "on_round telemetry") seq_hooks sh_hooks;
      Alcotest.(check int)
        (tag "event count") (List.length seq_events) (List.length sh_events);
      Alcotest.(check bool)
        (tag "event stream identical") true (seq_events = sh_events))
    domain_counts

let test_countdown_equiv () =
  check_equiv "countdown ring" (Gen.oriented_ring 7) ~advice:no_advice
    (countdown 3);
  check_equiv "countdown path" (Gen.path 5) ~advice:no_advice (countdown 2)

let test_flooding_equiv () =
  check_equiv "flooding" (Gen.path 9) ~advice:no_advice flooding

let test_zero_rounds () =
  List.iter
    (fun domains ->
      let r =
        Exec.run (sharded domains) (Gen.path 3) ~advice:no_advice (countdown 0)
      in
      Alcotest.(check int) "no rounds" 0 r.rounds;
      Alcotest.(check int) "no messages" 0 r.messages)
    domain_counts

let test_more_domains_than_vertices () =
  (* shards are clamped to the order; empty shards would divide by
     zero in the range arithmetic if unclamped *)
  let r = Exec.run (sharded 16) (Gen.path 3) ~advice:no_advice (countdown 2) in
  Alcotest.(check int) "rounds" 2 r.rounds

let test_nontermination () =
  let never =
    {
      Engine.init = (fun ~degree:_ ~advice:_ -> ());
      send = (fun () ~port:_ -> Some ());
      step = (fun () _ -> ());
      output = (fun () -> None);
    }
  in
  List.iter
    (fun domains ->
      match
        Exec.run
          { (sharded domains) with max_rounds = Some 5 }
          (Gen.path 3) ~advice:no_advice never
      with
      | _ -> Alcotest.fail "expected Did_not_terminate"
      | exception Engine.Did_not_terminate 5 -> ())
    [ 1; 3 ]

let prop_random_graph_equiv =
  QCheck.Test.make ~name:"sharded = sequential (random graphs, traced)"
    ~count:60
    QCheck.(
      quad (int_bound 10_000) (int_range 2 24) (int_bound 8) (int_range 1 4))
    (fun (seed, n, extra, domains) ->
      let g = Gen.random (Random.State.make [| seed |]) n ~extra_edges:extra in
      let run exec =
        let events = ref [] in
        let r =
          Exec.run ~tracer:(fun e -> events := e :: !events) exec g
            ~advice:no_advice (countdown 3)
        in
        (r, !events)
      in
      run Exec.default = run (sharded domains))

(* --- full runs of the paper's schemes, sequential vs sharded --- *)

let scheme_equiv name scheme g =
  let capture run =
    let events = ref [] in
    let r = run ~tracer:(fun e -> events := e :: !events) in
    (r, List.rev !events)
  in
  let seq, seq_events =
    capture (fun ~tracer -> Scheme.run ~tracer scheme g)
  in
  List.iter
    (fun domains ->
      let sh, sh_events =
        capture (fun ~tracer -> Scheme.run ~exec:(sharded domains) ~tracer scheme g)
      in
      let tag fmt = Printf.sprintf "%s (domains=%d): %s" name domains fmt in
      Alcotest.(check bool)
        (tag "outputs") true
        (seq.Scheme.outputs = sh.Scheme.outputs);
      Alcotest.(check int) (tag "rounds") seq.Scheme.rounds sh.Scheme.rounds;
      Alcotest.(check int)
        (tag "messages") seq.Scheme.messages sh.Scheme.messages;
      Alcotest.(check int)
        (tag "advice bits") seq.Scheme.advice_bits sh.Scheme.advice_bits;
      Alcotest.(check bool)
        (tag "trace identical") true (seq_events = sh_events))
    domain_counts

let prop_gclass_equiv =
  QCheck.Test.make ~name:"sharded = sequential (Selection on G)" ~count:8
    QCheck.(pair (int_range 3 5) (int_range 1 2))
    (fun (delta, k) ->
      QCheck.assume (delta = 3 || k = 1);
      let p = { Gclass.delta; k } in
      let t = Gclass.build p ~i:2 in
      scheme_equiv
        (Printf.sprintf "g delta=%d k=%d" delta k)
        Shades_election.Select_by_view.scheme t.Gclass.graph;
      true)

let prop_uclass_equiv =
  QCheck.Test.make ~name:"sharded = sequential (Port Election on U)" ~count:3
    QCheck.(int_range 1 3)
    (fun sigma ->
      let p = { Uclass.delta = 4; k = 1 } in
      let t = Uclass.build p ~sigma:(Uclass.uniform_sigma p sigma) in
      scheme_equiv
        (Printf.sprintf "u sigma=%d" sigma)
        Uclass.pe_scheme t.Uclass.graph;
      true)

let test_jclass_equiv () =
  let p = { Jclass.mu = 3; k = 4; z_eff = 1 } in
  let t = Jclass.build p ~y:(Jclass.y_zero p) in
  scheme_equiv "j mu=3 k=4" (Jclass.cppe_scheme t) t.Jclass.graph

(* --- sweep jobs under the Sharded timing --- *)

let test_sweep_strategy_records_identical () =
  (* The whole tiny grid, sequential vs sharded at several domain
     counts: records must be byte-identical after strip_timing — this
     is exactly the equivalence `sweep --tiny --engine sharded
     --compare BENCH_tiny --strict` relies on. *)
  let module Sweep = Shades_runtime.Sweep in
  let module Store = Shades_runtime.Store in
  let stripped records =
    Store.strip_timing { Store.version = 0; label = "t"; records }
  in
  let seq = stripped (Sweep.run ~domains:1 (Sweep.tiny_jobs ())) in
  List.iter
    (fun domains ->
      let sh =
        stripped
          (Sweep.run ~domains:1
             (Sweep.tiny_jobs ~exec:(sharded domains) ()))
      in
      Alcotest.(check bool)
        (Printf.sprintf "tiny grid records equal (domains=%d)" domains)
        true (seq = sh))
    [ 1; 2; 4 ]

let () =
  Alcotest.run "shades_sharded"
    [
      ( "crew",
        [
          Alcotest.test_case "run_all runs everything" `Quick
            test_run_all_runs_everything;
          Alcotest.test_case "empty batch" `Quick test_run_all_empty;
          Alcotest.test_case "single domain" `Quick test_run_all_single_domain;
          Alcotest.test_case "exception propagation" `Quick
            test_run_all_exception;
          Alcotest.test_case "phase visibility" `Quick
            test_run_all_phase_visibility;
          Alcotest.test_case "after shutdown" `Quick
            test_run_all_after_shutdown;
        ] );
      ( "engine",
        Alcotest.test_case "countdown" `Quick test_countdown_equiv
        :: Alcotest.test_case "flooding" `Quick test_flooding_equiv
        :: Alcotest.test_case "zero rounds" `Quick test_zero_rounds
        :: Alcotest.test_case "domains > order" `Quick
             test_more_domains_than_vertices
        :: Alcotest.test_case "nontermination" `Quick test_nontermination
        :: List.map QCheck_alcotest.to_alcotest [ prop_random_graph_equiv ] );
      ( "schemes",
        Alcotest.test_case "CPPE on J" `Quick test_jclass_equiv
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_gclass_equiv; prop_uclass_equiv ] );
      ( "sweep",
        [
          Alcotest.test_case "strategy-invariant records" `Slow
            test_sweep_strategy_records_identical;
        ] );
    ]
