(* Tests for the execution-trace subsystem: codec round-trips and
   rejection, the bounded recorder, sync-vs-async diffing on real
   election runs, and deterministic replay with divergence location. *)

open Shades_trace
open Shades_graph
open Shades_election
open Shades_families

let no_advice = Shades_bits.Bitstring.empty

(* A trace exercising every constructor, extreme field values, an async
   engine with a negative seed, a non-empty dropped count, and a label
   with non-ASCII bytes. *)
let sample_trace =
  {
    Trace.meta =
      {
        Trace.engine = Trace.Async { seed = -3 };
        graph_order = 7;
        advice_bits = 123;
        label = "u 4,1 σ=1";
      };
    dropped = 5;
    events =
      [|
        Event.Round_start { round = 0 };
        Event.Advice_read { v = 0; bits = 0 };
        Event.Send { round = 1; v = 2; port = 0; size = 0 };
        Event.Deliver { round = 1; v = 3; port = 2; size = 99_999 };
        Event.Decide { v = 4; round = 2 };
        Event.Halt { v = 4; round = 2 };
        Event.Sync_marker { round = 3; v = 6; port = 1 };
      |];
  }

let test_codec_round_trip () =
  Alcotest.(check bool)
    "decode (encode t) = t, all constructors" true
    (Codec.decode (Codec.encode sample_trace) = Ok sample_trace);
  let sync_empty =
    {
      Trace.meta =
        { Trace.engine = Trace.Sync; graph_order = 0; advice_bits = 0; label = "" };
      dropped = 0;
      events = [||];
    }
  in
  Alcotest.(check bool)
    "empty sync trace round-trips" true
    (Codec.decode (Codec.encode sync_empty) = Ok sync_empty);
  Alcotest.(check bool)
    "encoding is deterministic" true
    (Codec.encode sample_trace = Codec.encode sample_trace)

let test_codec_rejects () =
  let blob = Codec.encode sample_trace in
  (* no prefix of a valid file is itself valid *)
  let truncation_ok = ref true in
  for len = 0 to String.length blob - 1 do
    match Codec.decode (String.sub blob 0 len) with
    | Ok _ -> truncation_ok := false
    | Error _ -> ()
  done;
  Alcotest.(check bool) "every truncated prefix rejected" true !truncation_ok;
  let expect_error name s =
    Alcotest.(check bool) name true (Result.is_error (Codec.decode s))
  in
  expect_error "trailing junk rejected" (blob ^ "x");
  expect_error "garbage rejected" "this is not a trace file at all";
  expect_error "empty rejected" "";
  let bad_magic = Bytes.of_string blob in
  Bytes.set bad_magic 0 'X';
  expect_error "bad magic rejected" (Bytes.to_string bad_magic);
  let bad_version = Bytes.of_string blob in
  Bytes.set bad_version 4 (Char.chr (Codec.format_version + 1));
  expect_error "foreign format version rejected" (Bytes.to_string bad_version);
  (* corrupting an interior payload byte must never crash the decoder:
     it either reads different events or errors, but stays total *)
  let corrupt = Bytes.of_string blob in
  Bytes.set corrupt (String.length blob - 3) '\xff';
  match Codec.decode (Bytes.to_string corrupt) with
  | Ok _ | Error _ -> ()

let test_recorder_ring () =
  let r = Trace.recorder ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit r (Event.Round_start { round = i })
  done;
  let meta =
    { Trace.engine = Trace.Sync; graph_order = 1; advice_bits = 0; label = "ring" }
  in
  let t = Trace.capture r meta in
  Alcotest.(check int) "total counts everything" 10 (Trace.total r);
  Alcotest.(check int) "dropped = overflow" 6 t.Trace.dropped;
  Alcotest.(check bool)
    "retained = most recent, oldest first" true
    (t.Trace.events
    = Array.of_list
        (List.map (fun round -> Event.Round_start { round }) [ 7; 8; 9; 10 ]));
  Alcotest.(check bool)
    "capture is repeatable" true
    (Trace.capture r meta = t);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Trace.recorder: capacity must be positive") (fun () ->
      ignore (Trace.recorder ~capacity:0 ()))

(* --- tracing real election runs --- *)

let capture ?(label = "test") scheme g engine =
  let r = Trace.recorder () in
  let tracer = Trace.emit r in
  let exec = Shades_localsim.Exec.of_trace_engine engine in
  ignore (Scheme.run ~exec ~tracer scheme g);
  Trace.capture r
    {
      Trace.engine;
      graph_order = Port_graph.order g;
      advice_bits = 0;
      label;
    }

let test_sync_trace_shape () =
  let g = (Gclass.build { Gclass.delta = 3; k = 1 } ~i:2).Gclass.graph in
  let n = Port_graph.order g in
  let t = capture Select_by_view.scheme g Trace.Sync in
  let s = Trace.stats t in
  Alcotest.(check int) "one Advice_read per node" n s.Trace.advice_reads;
  Alcotest.(check int) "every node decides" n s.Trace.decides;
  Alcotest.(check int) "every node halts" n s.Trace.halts;
  Alcotest.(check int) "no markers in a sync trace" 0 s.Trace.sync_markers;
  Alcotest.(check int) "sends = delivers" s.Trace.sends s.Trace.delivers;
  Alcotest.(check int) "k=1: one round" 1 s.Trace.rounds;
  Alcotest.(check (list (pair int int)))
    "per-round sends matches the stats total"
    [ (1, s.Trace.sends) ]
    (Trace.per_round_sends t)

let test_sync_vs_async_diff () =
  (* The acceptance property: on one instance, the async engine's trace
     (any seed) equals the synchronous trace modulo synchronizer
     markers — on G-class and U-class instances alike. *)
  let instances =
    [
      ( "G(3,1,i=2)",
        (Gclass.build { Gclass.delta = 3; k = 1 } ~i:2).Gclass.graph,
        `G );
      ( "G(4,1,i=2)",
        (Gclass.build { Gclass.delta = 4; k = 1 } ~i:2).Gclass.graph,
        `G );
      ( "U(4,1,σ=1)",
        (let p = { Uclass.delta = 4; k = 1 } in
         (Uclass.build p ~sigma:(Uclass.uniform_sigma p 1)).Uclass.graph),
        `U );
    ]
  in
  List.iter
    (fun (name, g, family) ->
      let run engine =
        match family with
        | `G -> capture Select_by_view.scheme g engine
        | `U -> capture Uclass.pe_scheme g engine
      in
      let sync = run Trace.Sync in
      Alcotest.(check int)
        (name ^ ": sync trace has no markers")
        0 (Trace.stats sync).Trace.sync_markers;
      List.iter
        (fun seed ->
          let async = run (Trace.Async { seed }) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: async seed %d has markers" name seed)
            true
            ((Trace.stats async).Trace.sync_markers > 0);
          Alcotest.(check (list string))
            (Printf.sprintf "%s: sync vs async seed %d divergence-free" name
               seed)
            []
            (List.map Diff.pp_divergence (Diff.divergences sync async)))
        [ 0; 1; 2 ])
    instances

let test_diff_reports_divergence () =
  let g = (Gclass.build { Gclass.delta = 3; k = 1 } ~i:2).Gclass.graph in
  let t = capture Select_by_view.scheme g Trace.Sync in
  (* drop one Deliver event from the right-hand trace *)
  let eq = ref None in
  Array.iteri
    (fun i e ->
      if !eq = None then
        match e with Event.Deliver _ -> eq := Some i | _ -> ())
    t.Trace.events;
  let i = Option.get !eq in
  let removed = t.Trace.events.(i) in
  let right =
    {
      t with
      Trace.events =
        Array.of_list
          (List.filteri (fun j _ -> j <> i) (Array.to_list t.Trace.events));
    }
  in
  match Diff.first t right with
  | None -> Alcotest.fail "expected a divergence"
  | Some d ->
      Alcotest.(check bool) "left side holds the event" true (d.Diff.left = Some removed);
      Alcotest.(check bool) "right side is missing it" true (d.Diff.right = None);
      Alcotest.(check int) "round located" (Event.round removed) d.Diff.round;
      Alcotest.(check int) "vertex located" (Event.vertex removed) d.Diff.vertex

(* --- replay --- *)

let test_replay_clean () =
  let g = (Gclass.build { Gclass.delta = 4; k = 1 } ~i:2).Gclass.graph in
  let sync = capture Select_by_view.scheme g Trace.Sync in
  Alcotest.(check bool)
    "sync re-run reproduces the trace" true
    (Replay.run sync (fun tracer ->
         ignore (Scheme.run ~tracer Select_by_view.scheme g))
    = Ok ());
  let async = capture Select_by_view.scheme g (Trace.Async { seed = 2 }) in
  Alcotest.(check bool)
    "same-seed async re-run reproduces the trace verbatim" true
    (Replay.run async (fun tracer ->
         let exec = Shades_localsim.Exec.of_trace_engine (Trace.Async { seed = 2 }) in
         ignore (Scheme.run ~exec ~tracer Select_by_view.scheme g))
    = Ok ())

let test_replay_detects_mutation () =
  let g = (Gclass.build { Gclass.delta = 3; k = 1 } ~i:2).Gclass.graph in
  let t = capture Select_by_view.scheme g Trace.Sync in
  let exec tracer = ignore (Scheme.run ~tracer Select_by_view.scheme g) in
  (* mutate one mid-trace Send's port *)
  let idx = ref (-1) in
  Array.iteri
    (fun i e ->
      match e with
      | Event.Send _ when !idx < 0 && i > 50 -> idx := i
      | _ -> ())
    t.Trace.events;
  let events = Array.copy t.Trace.events in
  let round0, vertex0 =
    match events.(!idx) with
    | Event.Send { round; v; port; size } ->
        events.(!idx) <- Event.Send { round; v; port = port + 1; size };
        (round, v)
    | _ -> assert false
  in
  (match Replay.run { t with Trace.events } exec with
  | Ok () -> Alcotest.fail "mutation not detected"
  | Error d ->
      Alcotest.(check int) "at the mutated index" !idx d.Replay.index;
      Alcotest.(check (pair int int))
        "(round, vertex) of the mutation" (round0, vertex0)
        (Replay.location d);
      Alcotest.(check bool)
        "expected = recorded mutant" true
        (d.Replay.expected = Some events.(!idx));
      Alcotest.(check bool)
        "actual = live event" true
        (d.Replay.actual = Some t.Trace.events.(!idx)));
  (* a recorded suffix the live run never emits is caught too *)
  let padded =
    {
      t with
      Trace.events =
        Array.append t.Trace.events [| Event.Round_start { round = 99 } |];
    }
  in
  (match Replay.run padded exec with
  | Ok () -> Alcotest.fail "missing trailing event not detected"
  | Error d ->
      Alcotest.(check bool)
        "execution ended before the recorded tail" true
        (d.Replay.actual = None));
  (* an overflowed trace cannot anchor a replay *)
  let r = Trace.recorder ~capacity:2 () in
  exec (Trace.emit r);
  let overflowed = Trace.capture r t.Trace.meta in
  Alcotest.(check bool) "overflowed" true (overflowed.Trace.dropped > 0);
  match Replay.run overflowed exec with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on dropped > 0"

let test_file_round_trip () =
  let g = (Gclass.build { Gclass.delta = 3; k = 1 } ~i:2).Gclass.graph in
  let t = capture ~label:"file io" Select_by_view.scheme g Trace.Sync in
  let path = Filename.temp_file "shades_trace" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.write ~path t;
      Alcotest.(check bool) "read back equal" true (Codec.read ~path = Ok t));
  Alcotest.(check bool)
    "missing file is an Error, not an exception" true
    (Result.is_error (Codec.read ~path:"/nonexistent/trace.bin"))

(* The trivial algorithms also trace correctly (no scheme layer). *)
let test_engine_tracer_direct () =
  let open Shades_localsim in
  let countdown r =
    {
      Engine.init = (fun ~degree ~advice:_ -> (degree, r));
      send = (fun (_, left) ~port:_ -> if left > 0 then Some () else None);
      step = (fun (d, left) _ -> (d, left - 1));
      output = (fun (d, left) -> if left <= 0 then Some d else None);
    }
  in
  let g = Gen.oriented_ring 4 in
  let r = Trace.recorder () in
  let result =
    Exec.run ~tracer:(Trace.emit r) Exec.default g ~advice:no_advice
      (countdown 2)
  in
  let t =
    Trace.capture r
      { Trace.engine = Trace.Sync; graph_order = 4; advice_bits = 0; label = "" }
  in
  let s = Trace.stats t in
  Alcotest.(check int) "sends = engine messages" result.Exec.messages
    s.Trace.sends;
  Alcotest.(check int) "rounds traced" result.Exec.rounds s.Trace.rounds;
  (* default msg_size is 0 *)
  Alcotest.(check int) "sizes default to 0" 0 s.Trace.send_size_total;
  (* emission prefix: advice reads first, then round 1 *)
  Alcotest.(check bool)
    "starts with one Advice_read per node" true
    (Array.for_all
       (fun e -> match e with Event.Advice_read _ -> true | _ -> false)
       (Array.sub t.Trace.events 0 4));
  Alcotest.(check bool)
    "then Round_start 1" true
    (t.Trace.events.(4) = Event.Round_start { round = 1 })

let () =
  Alcotest.run "shades_trace"
    [
      ( "codec",
        [
          Alcotest.test_case "round trip" `Quick test_codec_round_trip;
          Alcotest.test_case "rejection" `Quick test_codec_rejects;
          Alcotest.test_case "file io" `Quick test_file_round_trip;
        ] );
      ( "recorder",
        [ Alcotest.test_case "bounded ring" `Quick test_recorder_ring ] );
      ( "diff",
        [
          Alcotest.test_case "sync trace shape" `Quick test_sync_trace_shape;
          Alcotest.test_case "sync = async modulo markers" `Quick
            test_sync_vs_async_diff;
          Alcotest.test_case "reports (round, vertex, event)" `Quick
            test_diff_reports_divergence;
        ] );
      ( "replay",
        [
          Alcotest.test_case "clean re-run" `Quick test_replay_clean;
          Alcotest.test_case "detects mutation" `Quick
            test_replay_detects_mutation;
          Alcotest.test_case "engine tracer direct" `Quick
            test_engine_tracer_direct;
        ] );
    ]
