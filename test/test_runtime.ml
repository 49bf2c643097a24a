(* Tests for the parallel sweep runtime: pool determinism, metrics,
   the versioned store codec, and byte-identical sweeps across domain
   counts. *)

open Shades_runtime
module Pool = Shades_pool

(* --- Pool --- *)

(* A deliberately uneven pure job so a racy pool would misorder. *)
let job x =
  let rec burn acc = function 0 -> acc | n -> burn ((acc * 31) + n) (n - 1) in
  burn x (1000 + (x mod 7 * 500))

let test_pool_order () =
  let inputs = Array.init 50 (fun i -> i) in
  let sequential = Array.map job inputs in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "%d domains = sequential, input order" domains)
        sequential
        (Pool.map ~domains job inputs))
    [ 1; 2; 4; 8 ]

let test_pool_edge_cases () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~domains:4 job [||]);
  Alcotest.(check (array int)) "singleton" [| job 3 |]
    (Pool.map ~domains:4 job [| 3 |]);
  Alcotest.(check (list int)) "list wrapper" [ job 1; job 2 ]
    (Pool.map_list ~domains:2 job [ 1; 2 ])

let test_pool_exception () =
  Alcotest.check_raises "first failing index wins" (Failure "boom-2")
    (fun () ->
      ignore
        (Pool.map ~domains:4
           (fun x ->
             if x >= 2 then failwith (Printf.sprintf "boom-%d" x) else x)
           (Array.init 10 (fun i -> i))))

(* --- Metrics --- *)

let test_metrics_quantiles () =
  let m = Metrics.create () in
  (* 1..100 inserted out of order: quantiles must not depend on
     insertion order *)
  List.iter
    (fun v -> Metrics.observe m "latency" (float_of_int v))
    (List.init 100 (fun i -> ((i * 37) mod 100) + 1));
  let q p = Option.get (Metrics.quantile m "latency" p) in
  Alcotest.(check (float 0.0)) "p50" 50.0 (q 0.50);
  Alcotest.(check (float 0.0)) "p90" 90.0 (q 0.90);
  Alcotest.(check (float 0.0)) "p99" 99.0 (q 0.99);
  Alcotest.(check (float 0.0)) "p100" 100.0 (q 1.0);
  Alcotest.(check (float 0.0)) "p0+" 1.0 (q 0.001);
  match List.assoc "latency" (Metrics.snapshot m) with
  | Metrics.Histogram h ->
      Alcotest.(check int) "count" 100 h.Metrics.count;
      Alcotest.(check (float 0.0)) "sum" 5050.0 h.Metrics.sum;
      Alcotest.(check (float 0.0)) "min" 1.0 h.Metrics.min;
      Alcotest.(check (float 0.0)) "max" 100.0 h.Metrics.max;
      Alcotest.(check (float 0.0)) "snapshot p90" 90.0 h.Metrics.p90
  | _ -> Alcotest.fail "latency is not a histogram"

let test_metrics_kinds () =
  let m = Metrics.create () in
  Metrics.incr m "jobs";
  Metrics.incr ~by:4 m "jobs";
  Metrics.set_gauge m "load" 0.5;
  Metrics.set_gauge m "load" 0.75;
  Metrics.add_ns m "wall" 1000;
  Metrics.add_ns m "wall" 500;
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "snapshot size" 3 (List.length snap);
  Alcotest.(check bool) "name-sorted" true
    (List.sort compare (List.map fst snap) = List.map fst snap);
  (match List.assoc "jobs" snap with
  | Metrics.Counter 5 -> ()
  | _ -> Alcotest.fail "counter");
  (match List.assoc "load" snap with
  | Metrics.Gauge g -> Alcotest.(check (float 0.0)) "gauge last-write" 0.75 g
  | _ -> Alcotest.fail "gauge");
  match List.assoc "wall" snap with
  | Metrics.Timing { count = 2; total_ns = 1500 } -> ()
  | _ -> Alcotest.fail "timing"

(* --- Store --- *)

let sample_store =
  let r1 =
    {
      Store.params =
        [
          ("family", Store.Json.String "g"); ("delta", Store.Json.Int 4);
          ("k", Store.Json.Int 1);
        ];
      rounds = 1;
      messages = 118;
      advice_bits = 32;
      wall_ns = 123456;
      metrics =
        [
          ("elect", Metrics.Timing { count = 1; total_ns = 99000 });
          ("engine_rounds", Metrics.Counter 1);
          ( "latency",
            Metrics.Histogram
              {
                Metrics.count = 3;
                sum = 6.5;
                min = 0.5;
                max = 4.0;
                p50 = 2.0;
                p90 = 4.0;
                p99 = 4.0;
              } );
          ("load", Metrics.Gauge 0.75);
        ];
    }
  in
  let r2 =
    {
      Store.params = [ ("weird \"name\"\n", Store.Json.Null) ];
      rounds = 0;
      messages = 0;
      advice_bits = 0;
      wall_ns = 0;
      metrics = [];
    }
  in
  Store.make ~label:"unit λ test" [ r1; r2 ]

let test_store_roundtrip () =
  let encoded = Store.encode sample_store in
  match Store.decode encoded with
  | Error e -> Alcotest.fail ("decode failed: " ^ e)
  | Ok decoded ->
      Alcotest.(check bool) "round-trip equal" true (decoded = sample_store);
      Alcotest.(check string) "re-encode byte-identical" encoded
        (Store.encode decoded)

let test_store_rejects_bumped_version () =
  let bumped =
    { sample_store with Store.version = Store.schema_version + 1 }
  in
  match Store.decode (Store.encode bumped) with
  | Ok _ -> Alcotest.fail "bumped schema version must be rejected"
  | Error e ->
      Alcotest.(check bool) "error names the version" true
        (String.length e > 0
        && String.exists (fun c -> c = Char.chr (Char.code '0' + Store.schema_version + 1)) e)

let test_store_rejects_garbage () =
  List.iter
    (fun text ->
      match Store.decode text with
      | Ok _ -> Alcotest.fail ("accepted garbage: " ^ text)
      | Error _ -> ())
    [
      ""; "{"; "[1,2"; "{\"schema\":1}"; "{\"schema\":1,\"label\":3,\"records\":[]}";
      "{\"schema\":1,\"label\":\"x\",\"records\":[{\"params\":{}}]}";
      "{\"schema\":1,\"label\":\"x\",\"records\":[]}trailing";
    ]

let test_json_values () =
  let j =
    Store.Json.Obj
      [
        ("i", Store.Json.Int (-42)); ("f", Store.Json.Float 2.5);
        ("s", Store.Json.String "a\"b\\c\nd");
        ("l", Store.Json.List [ Store.Json.Bool true; Store.Json.Null ]);
        ("nested", Store.Json.Obj [ ("x", Store.Json.Int 1) ]);
      ]
  in
  match Store.Json.of_string (Store.Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "json round-trip" true (j = j')
  | Error e -> Alcotest.fail e

let test_store_diff () =
  let current =
    {
      sample_store with
      Store.records =
        List.map
          (fun r ->
            if r.Store.rounds = 1 then { r with Store.rounds = 2 } else r)
          sample_store.Store.records;
    }
  in
  (match Store.diff ~baseline:sample_store ~current:sample_store with
  | [] -> ()
  | lines -> Alcotest.fail ("self-diff not empty: " ^ String.concat "; " lines));
  match Store.diff ~baseline:sample_store ~current with
  | [ line ] ->
      Alcotest.(check bool) "names the changed field" true
        (String.length line >= 6
        && String.sub line 0 7 = "changed")
  | lines ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one diff line, got %d"
           (List.length lines))

(* --- Sharded store --- *)

let with_tmp_dir f =
  let dir = Filename.temp_file "shades_shards" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Two (family, delta) slices with deterministic measurements and noisy
   timing fields — the shape a sweep store has. *)
let sliced_record ~family ~delta ~k ~rounds ~wall_ns =
  {
    Store.params =
      [
        ("family", Store.Json.String family); ("delta", Store.Json.Int delta);
        ("k", Store.Json.Int k);
      ];
    rounds;
    messages = 100 * delta;
    advice_bits = 10 * delta;
    wall_ns;
    metrics =
      [
        ("build", Metrics.Timing { count = 1; total_ns = wall_ns / 2 });
        ("engine_rounds", Metrics.Counter rounds);
      ];
  }

let sliced_store ?(wall_ns = 1000) ?(d4_rounds = 2) () =
  Store.make ~label:"sharded unit test"
    [
      sliced_record ~family:"g" ~delta:3 ~k:1 ~rounds:1 ~wall_ns;
      sliced_record ~family:"g" ~delta:4 ~k:1 ~rounds:d4_rounds ~wall_ns;
      sliced_record ~family:"g" ~delta:4 ~k:2 ~rounds:d4_rounds ~wall_ns;
    ]

let test_shard_manifest_roundtrip () =
  with_tmp_dir (fun dir ->
      let store = sliced_store () in
      let m = Store.Sharded.save ~dir store in
      Alcotest.(check int) "two slices" 2 (List.length m.Store.Sharded.shards);
      (match Store.Sharded.load_manifest ~dir with
      | Error e -> Alcotest.fail ("manifest load failed: " ^ e)
      | Ok m' ->
          Alcotest.(check bool) "manifest round-trip equal" true (m = m'));
      List.iter
        (fun s ->
          Alcotest.(check int) "digest is hex MD5" 32
            (String.length s.Store.Sharded.digest))
        m.Store.Sharded.shards;
      let d4 =
        List.find
          (fun s ->
            List.assoc_opt "delta" s.Store.Sharded.slice
            = Some (Store.Json.Int 4))
          m.Store.Sharded.shards
      in
      Alcotest.(check int) "delta-4 shard has both k records" 2
        d4.Store.Sharded.records;
      match Store.Sharded.load ~dir with
      | Error e -> Alcotest.fail ("sharded load failed: " ^ e)
      | Ok store' ->
          Alcotest.(check bool)
            "reassembled store equals original (grid order grouped by slice)"
            true (store' = store))

let test_shard_digest_ignores_timing () =
  let a = Store.Sharded.shard (sliced_store ~wall_ns:1000 ()) in
  let b = Store.Sharded.shard (sliced_store ~wall_ns:999_999 ()) in
  let c = Store.Sharded.shard (sliced_store ~d4_rounds:3 ()) in
  let digests shards =
    List.map (fun (s, _) -> s.Store.Sharded.digest) shards
  in
  Alcotest.(check (list string))
    "digests independent of timing fields" (digests a) (digests b);
  Alcotest.(check string) "delta-3 digest unchanged by delta-4 edit"
    (digests a |> List.hd) (digests c |> List.hd);
  Alcotest.(check bool) "changed rounds change the delta-4 digest" false
    (List.nth (digests a) 1 = List.nth (digests c) 1)

(* The tiny CI grid must hash identically whatever the domain count:
   this is exactly what lets `make check` gate against a committed
   manifest regardless of the machine running it. *)
let test_shard_digest_stable_across_domains () =
  let shards domains =
    Store.Sharded.shard (Store.make (Sweep.run ~domains (Sweep.tiny_jobs ())))
  in
  let digests shards =
    List.map (fun (s, _) -> s.Store.Sharded.digest) shards
  in
  Alcotest.(check (list string))
    "tiny-grid shard digests equal across 1 vs 4 domains"
    (digests (shards 1))
    (digests (shards 4))

let test_shard_replacement () =
  with_tmp_dir (fun dir ->
      let m = Store.Sharded.save ~dir (sliced_store ()) in
      let file_of delta =
        (List.find
           (fun s ->
             List.assoc_opt "delta" s.Store.Sharded.slice
             = Some (Store.Json.Int delta))
           m.Store.Sharded.shards)
          .Store.Sharded.file
      in
      let d3_before = read_bytes (Filename.concat dir (file_of 3)) in
      (* re-run of the delta=4 slice: measurements changed there, and
         timing noise changed everywhere *)
      let m' =
        Store.Sharded.save ~dir (sliced_store ~wall_ns:777 ~d4_rounds:9 ())
      in
      let d3_after = read_bytes (Filename.concat dir (file_of 3)) in
      Alcotest.(check string)
        "untouched slice's shard file is byte-identical" d3_before d3_after;
      Alcotest.(check bool) "changed slice's digest moved" false
        (List.nth m.Store.Sharded.shards 1 = List.nth m'.Store.Sharded.shards 1);
      Alcotest.(check bool) "unchanged slice's manifest entry kept" true
        (List.hd m.Store.Sharded.shards = List.hd m'.Store.Sharded.shards))

let test_shard_schema_and_digest_rejection () =
  with_tmp_dir (fun dir ->
      let store = sliced_store () in
      let m = Store.Sharded.save ~dir store in
      let shard0 = List.hd m.Store.Sharded.shards in
      let path = Filename.concat dir shard0.Store.Sharded.file in
      let original = read_bytes path in
      (* a stale shard written by an older build: schema 1 *)
      let stale =
        let this = Printf.sprintf "\"schema\":%d" Store.schema_version in
        let old = "\"schema\":1" in
        let i =
          let rec find i =
            if i + String.length this > String.length original then
              Alcotest.fail "schema field not found"
            else if String.sub original i (String.length this) = this then i
            else find (i + 1)
          in
          find 0
        in
        String.sub original 0 i ^ old
        ^ String.sub original
            (i + String.length this)
            (String.length original - i - String.length this)
      in
      let oc = open_out path in
      output_string oc stale;
      close_out oc;
      (match Store.Sharded.load ~dir with
      | Ok _ -> Alcotest.fail "stale shard schema must be rejected"
      | Error e ->
          Alcotest.(check bool) "error names the schema version" true
            (String.length e > 0));
      (* same bytes count, wrong content: digest mismatch *)
      let tampered =
        String.map (fun c -> if c = '1' then '7' else c) original
      in
      let oc = open_out path in
      output_string oc tampered;
      close_out oc;
      (match Store.Sharded.load ~dir with
      | Ok _ -> Alcotest.fail "tampered shard must be rejected"
      | Error _ -> ());
      (* restore, then break the manifest schema *)
      let oc = open_out path in
      output_string oc original;
      close_out oc;
      let mpath = Filename.concat dir Store.Sharded.manifest_file in
      let mtext = read_bytes mpath in
      let oc = open_out mpath in
      output_string oc
        (Printf.sprintf "{\"schema\":%d,%s" (Store.schema_version + 1)
           (String.sub mtext
              (String.index mtext ',' + 1)
              (String.length mtext - String.index mtext ',' - 1)));
      close_out oc;
      match Store.Sharded.load_manifest ~dir with
      | Ok _ -> Alcotest.fail "bumped manifest schema must be rejected"
      | Error _ -> ())

let test_shard_streaming_diff () =
  with_tmp_dir (fun dir ->
      let baseline = sliced_store () in
      ignore (Store.Sharded.save ~dir baseline);
      (* no drift against itself *)
      (match Store.Sharded.diff ~baseline_dir:dir baseline with
      | Error e -> Alcotest.fail e
      | Ok [] -> ()
      | Ok changes ->
          Alcotest.fail
            (Printf.sprintf "self-diff not empty: %d changes"
               (List.length changes)));
      (* one slice drifts: every reported change is tagged with that
         shard, the clean shard never appears *)
      let current = sliced_store ~wall_ns:31337 ~d4_rounds:5 () in
      match Store.Sharded.diff ~baseline_dir:dir current with
      | Error e -> Alcotest.fail e
      | Ok changes ->
          Alcotest.(check int) "both delta-4 records drifted" 2
            (List.length changes);
          List.iter
            (fun (shard, c) ->
              Alcotest.(check string) "tagged with the drifting shard"
                "shard-family=g,delta=4.json" shard;
              Alcotest.(check bool) "classified as changed" true
                (Store.is_changed c))
            changes)

(* --- Sweep --- *)

let test_cross_order () =
  let points =
    Sweep.cross
      [ Sweep.range "a" ~lo:1 ~hi:2; Sweep.axis "b" [ 10; 20 ] ]
  in
  Alcotest.(check int) "grid size" 4 (List.length points);
  Alcotest.(check bool) "row-major, last axis fastest" true
    (points
    = [
        [ ("a", 1); ("b", 10) ]; [ ("a", 1); ("b", 20) ];
        [ ("a", 2); ("b", 10) ]; [ ("a", 2); ("b", 20) ];
      ])

let test_sweep_filters_invalid () =
  (* delta=3 G-class has only 2 graphs: i=5 is outside; U needs
     delta >= 4; oversized U instances are refused *)
  Alcotest.(check bool) "g: i out of class" true
    (Sweep.gclass_job [ ("delta", 3); ("k", 1); ("i", 5) ] = None);
  Alcotest.(check bool) "u: delta too small" true
    (Sweep.uclass_job [ ("delta", 3); ("k", 1) ] = None);
  Alcotest.(check bool) "u: unbuildably large" true
    (Sweep.uclass_job [ ("delta", 5); ("k", 2) ] = None);
  Alcotest.(check int) "valid points survive" 2
    (List.length
       (Sweep.gclass_jobs
          [
            [ ("delta", 3); ("k", 1); ("i", 5) ]; [ ("delta", 3); ("k", 1) ];
            [ ("delta", 4); ("k", 1) ];
          ]))

(* A 50-point grid over both families: the pool must return the exact
   sequential records, in grid order, for every domain count — and the
   encoded stores must be byte-identical once timing is stripped. *)
let determinism_jobs () =
  let g_jobs =
    Sweep.gclass_jobs
      (Sweep.cross
         [
           Sweep.range "delta" ~lo:3 ~hi:6; Sweep.range "k" ~lo:1 ~hi:2;
           Sweep.axis "i" [ 2; 3; 4 ];
         ])
  in
  let u_jobs =
    Sweep.uclass_jobs
      (Sweep.cross
         [ Sweep.range "delta" ~lo:4 ~hi:4; Sweep.range "k" ~lo:1 ~hi:1;
           Sweep.axis "sigma" [ 1; 2; 3 ] ])
  in
  g_jobs @ u_jobs

let test_sweep_grid_size () =
  (* 4 deltas * 2 ks * 3 is = 24 minus the two out-of-class points of
     G_{3,1} (only 2 graphs, i=3 and i=4 invalid) = 22, plus 3 U points:
     a 25-job grid, 50 timed stages (build+elect per job) *)
  Alcotest.(check int) "grid size" 25 (List.length (determinism_jobs ()))

let canonical store = Store.encode (Store.strip_timing store)

let test_sweep_deterministic_across_domains () =
  let baseline = canonical (Store.make (Sweep.run ~domains:1 (determinism_jobs ()))) in
  List.iter
    (fun domains ->
      let got =
        canonical (Store.make (Sweep.run ~domains (determinism_jobs ())))
      in
      Alcotest.(check string)
        (Printf.sprintf "%d domains byte-identical to 1 domain" domains)
        baseline got)
    [ 2; 5 ]

let test_sweep_records_verified () =
  let records = Sweep.run ~domains:2 (determinism_jobs ()) in
  List.iter
    (fun r ->
      (match Store.metric r "verified" with
      | Some (Metrics.Counter 1) -> ()
      | _ -> Alcotest.fail "a sweep point failed verification");
      Alcotest.(check bool) "messages measured" true (r.Store.messages > 0);
      (match Store.metric r "engine_rounds" with
      | Some (Metrics.Counter c) -> Alcotest.(check int) "hook rounds" r.Store.rounds c
      | _ -> Alcotest.fail "engine_rounds counter missing");
      (* the per-round message histogram is always on: one observation
         per engine round, totalling the run's message count *)
      match Store.metric r "round_messages" with
      | Some (Metrics.Histogram h) ->
          Alcotest.(check int) "one observation per round" r.Store.rounds
            h.Metrics.count;
          Alcotest.(check (float 0.0)) "observations sum to messages"
            (float_of_int r.Store.messages)
            h.Metrics.sum
      | _ -> Alcotest.fail "round_messages histogram missing")
    records

let test_jclass_jobs_guard () =
  let metrics = Metrics.create () in
  let points =
    Sweep.cross
      [
        Sweep.axis "mu" [ 3 ]; Sweep.axis "k" [ 4 ];
        Sweep.axis "z_eff" [ 1; 2; 3 ];
      ]
  in
  (* all three fit the default budget; z_eff doubles the order *)
  let jobs = Sweep.jclass_jobs ~metrics points in
  Alcotest.(check int) "all points within default budget" 3 (List.length jobs);
  Alcotest.(check (list int)) "cost doubles with z_eff"
    [ 2 * List.hd (List.map (fun j -> j.Sweep.cost) jobs);
      2 * List.nth (List.map (fun j -> j.Sweep.cost) jobs) 1 ]
    (List.tl (List.map (fun j -> j.Sweep.cost) jobs));
  let skipped () =
    match List.assoc_opt "jclass_skipped_max_order" (Metrics.snapshot metrics) with
    | Some (Metrics.Counter c) -> c
    | _ -> 0
  in
  Alcotest.(check int) "nothing skipped yet" 0 (skipped ());
  (* a tight budget drops the larger points — tallied, never silent *)
  let tight = Sweep.jclass_jobs ~max_order:500 ~metrics points in
  Alcotest.(check int) "only z_eff=1 fits 500 nodes" 1 (List.length tight);
  Alcotest.(check int) "both skips tallied" 2 (skipped ());
  (* invalid points are rejections, not skips: no tally *)
  Alcotest.(check bool) "mu too small rejected" true
    (Sweep.jclass_job ~metrics [ ("mu", 2); ("k", 4) ] = None);
  Alcotest.(check bool) "k too small rejected" true
    (Sweep.jclass_job ~metrics [ ("mu", 3); ("k", 3) ] = None);
  Alcotest.(check bool) "z_eff beyond z rejected" true
    (Sweep.jclass_job ~metrics [ ("mu", 3); ("k", 4); ("z_eff", 99) ] = None);
  Alcotest.(check int) "rejections never counted as skips" 2 (skipped ())

let test_jclass_job_runs () =
  (* The smallest J point really elects: Lemma 4.8's CPPE scheme passes
     the complete port-path verifier in exactly k rounds. *)
  let metrics = Metrics.create () in
  match Sweep.jclass_job ~metrics [ ("mu", 3); ("k", 4) ] with
  | None -> Alcotest.fail "smallest J point rejected"
  | Some job ->
      Alcotest.(check string) "family" "j" job.Sweep.family;
      let m = Metrics.create () in
      let outcome = job.Sweep.exec ~tracer:None m in
      Alcotest.(check bool) "verified" true outcome.Sweep.verified;
      Alcotest.(check int) "minimum time: k rounds" 4 outcome.Sweep.rounds;
      Alcotest.(check int) "cost is the exact order" outcome.Sweep.graph_order
        job.Sweep.cost

let test_largest_first_is_invisible () =
  (* Scheduling by cost must not leak into results: a job list in
     ascending cost order returns records in that same list order, with
     the same bytes as a single-domain run. *)
  let jobs = determinism_jobs () in
  let ascending = List.sort (fun a b -> compare a.Sweep.cost b.Sweep.cost) jobs in
  let params_of records = List.map (fun r -> r.Store.params) records in
  let seq = Sweep.run ~domains:1 ascending in
  let par = Sweep.run ~domains:4 ascending in
  Alcotest.(check bool) "records in job-list order" true
    (params_of seq = params_of par);
  Alcotest.(check string) "byte-identical modulo timing"
    (canonical (Store.make seq))
    (canonical (Store.make par))

let test_run_traced_neutral () =
  let jobs = Sweep.tiny_jobs () in
  let plain = Sweep.run ~domains:2 jobs in
  let traced, report = Sweep.run_traced ~domains:2 jobs in
  Alcotest.(check bool) "no baseline, no report" true (report = None);
  Alcotest.(check string) "tracing never changes the records"
    (canonical (Store.make plain))
    (canonical (Store.make (List.map fst traced)));
  List.iter2
    (fun (job, r) (_, t) ->
      let s = Shades_trace.Trace.stats t in
      (match job.Sweep.engine with
      | Shades_trace.Trace.Sync ->
          Alcotest.(check int) "trace sends = record messages" r.Store.messages
            s.Shades_trace.Trace.sends;
          Alcotest.(check int) "sync capture" 0 s.Shades_trace.Trace.sync_markers
      | Shades_trace.Trace.Async _ ->
          (* The α-synchronizer's on_round telemetry reports message
             counts at round starts, so the record can undercount the
             trace's Send events — but never the reverse — and the
             synchronizer itself must leave markers in the stream. *)
          Alcotest.(check bool) "async trace sends cover record messages" true
            (s.Shades_trace.Trace.sends >= r.Store.messages);
          Alcotest.(check bool) "async capture has sync markers" true
            (s.Shades_trace.Trace.sync_markers > 0));
      Alcotest.(check bool) "meta engine matches the job" true
        (t.Shades_trace.Trace.meta.Shades_trace.Trace.engine = job.Sweep.engine);
      Alcotest.(check bool) "meta carries the point" true
        (t.Shades_trace.Trace.meta.Shades_trace.Trace.label <> ""))
    (List.combine jobs plain)
    traced

let () =
  Alcotest.run "shades_runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "input order, any domain count" `Quick
            test_pool_order;
          Alcotest.test_case "edge cases" `Quick test_pool_edge_cases;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "quantiles on known data" `Quick
            test_metrics_quantiles;
          Alcotest.test_case "counter/gauge/timing kinds" `Quick
            test_metrics_kinds;
        ] );
      ( "store",
        [
          Alcotest.test_case "record round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "rejects bumped schema" `Quick
            test_store_rejects_bumped_version;
          Alcotest.test_case "rejects malformed input" `Quick
            test_store_rejects_garbage;
          Alcotest.test_case "json value round-trip" `Quick test_json_values;
          Alcotest.test_case "diff" `Quick test_store_diff;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "manifest round-trip + reassembly" `Quick
            test_shard_manifest_roundtrip;
          Alcotest.test_case "digest ignores timing" `Quick
            test_shard_digest_ignores_timing;
          Alcotest.test_case "digest stable across domain counts" `Quick
            test_shard_digest_stable_across_domains;
          Alcotest.test_case "single-shard replacement" `Quick
            test_shard_replacement;
          Alcotest.test_case "schema + digest rejection" `Quick
            test_shard_schema_and_digest_rejection;
          Alcotest.test_case "streaming diff tags shards" `Quick
            test_shard_streaming_diff;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "cross order" `Quick test_cross_order;
          Alcotest.test_case "invalid points filtered" `Quick
            test_sweep_filters_invalid;
          Alcotest.test_case "grid size" `Quick test_sweep_grid_size;
          Alcotest.test_case "deterministic across domains" `Slow
            test_sweep_deterministic_across_domains;
          Alcotest.test_case "records verified + telemetry" `Slow
            test_sweep_records_verified;
          Alcotest.test_case "jclass budget guard" `Quick
            test_jclass_jobs_guard;
          Alcotest.test_case "jclass point elects" `Slow test_jclass_job_runs;
          Alcotest.test_case "largest-first scheduling invisible" `Slow
            test_largest_first_is_invisible;
          Alcotest.test_case "run_traced metrics-neutral" `Quick
            test_run_traced_neutral;
        ] );
    ]
