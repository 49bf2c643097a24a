(* Tests for the election daemon: frame codec, LRU cache semantics
   (including cross-domain hammering), the service's request handling,
   and one real daemon + client conversation over a Unix socket. *)

open Shades_server
module Json = Shades_json.Json
module Metrics = Shades_runtime.Metrics

let counter m name =
  match List.assoc_opt name (Metrics.snapshot m) with
  | Some (Metrics.Counter n) -> n
  | _ -> 0

(* --- protocol framing --- *)

let frame_of_string s =
  let tmp = Filename.temp_file "shades-frame" ".bin" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc s);
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () -> In_channel.with_open_bin tmp Protocol.read_frame)

let roundtrip json =
  let tmp = Filename.temp_file "shades-frame" ".bin" in
  Out_channel.with_open_bin tmp (fun oc -> Protocol.write_frame oc json);
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () -> In_channel.with_open_bin tmp Protocol.read_frame)

let test_frame_roundtrip () =
  let payload =
    Json.Obj
      [
        ("op", Json.String "advise");
        ("graph", Json.String "ring:6");
        ("n", Json.Int 42);
        ("xs", Json.List [ Json.Bool true; Json.Null ]);
      ]
  in
  match roundtrip payload with
  | Protocol.Payload (Ok got) ->
      Alcotest.(check string)
        "payload survives framing" (Json.to_string payload) (Json.to_string got)
  | _ -> Alcotest.fail "expected a parsed payload"

let test_frame_errors () =
  (match frame_of_string "" with
  | Protocol.Eof -> ()
  | _ -> Alcotest.fail "empty stream should be Eof");
  (match frame_of_string "not-a-length\n{}\n" with
  | Protocol.Malformed _ -> ()
  | _ -> Alcotest.fail "garbage length line should be Malformed");
  (match frame_of_string "100\n{\"op\"" with
  | Protocol.Malformed _ -> ()
  | _ -> Alcotest.fail "truncated payload should be Malformed");
  (match frame_of_string "999999999\nx\n" with
  | Protocol.Malformed _ -> ()
  | _ -> Alcotest.fail "over-limit length should be Malformed");
  (* framing fine, JSON broken: the recoverable case *)
  match frame_of_string "6\n{\"op\":\n" with
  | Protocol.Payload (Error _) -> ()
  | _ -> Alcotest.fail "bad JSON in a good frame should be Payload Error"

let test_hex () =
  let blob = "\x00\x01SHTR\xff\xfe binary\n\x80" in
  Alcotest.(check string)
    "hex roundtrip" blob
    (Result.get_ok (Protocol.hex_decode (Protocol.hex_encode blob)));
  Alcotest.(check bool)
    "odd length rejected" true
    (Result.is_error (Protocol.hex_decode "abc"));
  Alcotest.(check bool)
    "non-hex rejected" true
    (Result.is_error (Protocol.hex_decode "zz"))

let test_endpoints () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        ("roundtrip " ^ s) s
        (Protocol.endpoint_to_string
           (Result.get_ok (Protocol.endpoint_of_string s))))
    [ "unix:/tmp/x.sock"; "tcp:127.0.0.1:9901" ];
  (match Protocol.endpoint_of_string "tcp:9901" with
  | Ok (Protocol.Tcp { host = "127.0.0.1"; port = 9901 }) -> ()
  | _ -> Alcotest.fail "tcp:<port> should default the host");
  Alcotest.(check bool)
    "garbage rejected" true
    (Result.is_error (Protocol.endpoint_of_string "carrier-pigeon:42"))

let test_graph_json () =
  let g = Shades_graph.Gen.path 5 in
  let got = Result.get_ok (Protocol.graph_of_json (Protocol.graph_to_json g)) in
  Alcotest.(check string)
    "explicit form roundtrips"
    (Shades_graph.Port_graph.digest g)
    (Shades_graph.Port_graph.digest got);
  let from_spec =
    Result.get_ok (Protocol.graph_of_json (Json.String "path:5"))
  in
  Alcotest.(check string)
    "spec string accepted"
    (Shades_graph.Port_graph.digest g)
    (Shades_graph.Port_graph.digest from_spec);
  Alcotest.(check bool)
    "bad spec is Error, not exception" true
    (Result.is_error (Protocol.graph_of_json (Json.String "ring:banana")));
  Alcotest.(check bool)
    "bad edges are Error, not exception" true
    (Result.is_error
       (Protocol.graph_of_json
          (Json.Obj
             [
               ("n", Json.Int 2);
               ("edges", Json.List [ Json.List [ Json.Int 0; Json.Int 0; Json.Int 5; Json.Int 0 ] ]);
             ])))

(* --- cache --- *)

let test_cache_lru () =
  let m = Metrics.create () in
  let c = Cache.create ~name:"c" ~capacity:2 ~metrics:m () in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  Alcotest.(check (option int)) "a present" (Some 1) (Cache.find c "a");
  (* a is now most recent, so inserting c evicts b *)
  Cache.put c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a survived" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Cache.find c "c");
  Alcotest.(check int) "entries at capacity" 2 (Cache.entries c);
  Alcotest.(check int) "one eviction" 1 (counter m "c_evictions");
  Alcotest.(check int) "hits counted" 3 (counter m "c_hits");
  Alcotest.(check int) "misses counted" 1 (counter m "c_misses");
  Cache.put c "a" 10;
  Alcotest.(check (option int)) "overwrite in place" (Some 10) (Cache.find c "a");
  Alcotest.(check int) "overwrite does not evict" 2 (Cache.entries c)

let test_cache_find_or_compute () =
  let m = Metrics.create () in
  let c = Cache.create ~capacity:4 ~metrics:m () in
  let runs = ref 0 in
  let compute () = incr runs; 7 in
  let v1, hit1 = Cache.find_or_compute c "k" ~compute in
  let v2, hit2 = Cache.find_or_compute c "k" ~compute in
  Alcotest.(check (list int)) "same value" [ 7; 7 ] [ v1; v2 ];
  Alcotest.(check (list bool)) "miss then hit" [ false; true ] [ hit1; hit2 ];
  Alcotest.(check int) "computed once" 1 !runs;
  Alcotest.check_raises "compute exception caches nothing" (Failure "boom")
    (fun () -> ignore (Cache.find_or_compute c "bad" ~compute:(fun () -> failwith "boom")));
  Alcotest.(check (option int)) "nothing cached for bad" None (Cache.find c "bad")

let test_cache_concurrent () =
  let m = Metrics.create () in
  let c = Cache.create ~capacity:16 ~metrics:m () in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 499 do
              let key = "k" ^ string_of_int (i mod 24) in
              let v, _ =
                Cache.find_or_compute c key ~compute:(fun () -> (d * 1000) + i)
              in
              ignore v;
              if i mod 7 = 0 then ignore (Cache.find c key)
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check bool)
    "bounded after hammering" true
    (Cache.entries c <= 16);
  (* every lookup was counted exactly once *)
  let total =
    counter m "cache_hits" + counter m "cache_misses"
  in
  Alcotest.(check bool) "all lookups counted" true (total >= 4 * 500)

(* --- persistence (disk tier) --- *)

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let int_persist ?max_bytes dir =
  {
    Cache.max_bytes;
    dir;
    encode = string_of_int;
    decode =
      (fun s ->
        match int_of_string_opt s with
        | Some n -> Ok n
        | None -> Error "not an int");
  }

let test_cache_persistence () =
  let dir = fresh_dir "shades-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let m = Metrics.create () in
      let c =
        Cache.create ~name:"p" ~persist:(int_persist dir) ~capacity:2
          ~metrics:m ()
      in
      Alcotest.(check bool) "persistent" true (Cache.persistent c);
      Cache.put c "a/slash" 1;
      Cache.put c "b" 2;
      Alcotest.(check int) "two files written" 2 (counter m "p_disk_writes");
      (* eviction trims memory only: "a/slash" falls out of the LRU but
         its file stays, so the next find is a disk hit that promotes *)
      Cache.put c "c" 3;
      Alcotest.(check int) "one eviction" 1 (counter m "p_evictions");
      Alcotest.(check (option int))
        "evicted key served from disk" (Some 1)
        (Cache.find c "a/slash");
      Alcotest.(check int) "disk hit counted" 1 (counter m "p_disk_hits");
      (* a second cache on the same directory — the restart — sees
         everything without recomputation *)
      let m2 = Metrics.create () in
      let c2 =
        Cache.create ~name:"p" ~persist:(int_persist dir) ~capacity:2
          ~metrics:m2 ()
      in
      let v, hit = Cache.find_or_compute c2 "b" ~compute:(fun () -> 99) in
      Alcotest.(check (pair int bool)) "restart finds b on disk" (2, true) (v, hit);
      Alcotest.(check int) "restart hit came from disk" 1
        (counter m2 "p_disk_hits");
      (* write-then-rename leaves no temp litter behind *)
      let has_substring hay needle =
        let n = String.length needle and h = String.length hay in
        let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        "no stray temp files left" true
        (Array.for_all
           (fun f -> not (has_substring f ".tmp."))
           (Sys.readdir dir)))

let test_cache_corrupt_files () =
  let dir = fresh_dir "shades-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let m = Metrics.create () in
      let c =
        Cache.create ~name:"p" ~persist:(int_persist dir) ~capacity:2
          ~metrics:m ()
      in
      Cache.put c "k" 7;
      let file =
        match Sys.readdir dir with
        | [| f |] -> Filename.concat dir f
        | _ -> Alcotest.fail "expected exactly one cache file"
      in
      (* corrupt the file, then restart: the entry must degrade to a
         miss (counted as invalid), never crash or return garbage *)
      Out_channel.with_open_bin file (fun oc -> output_string oc "zzz");
      let m2 = Metrics.create () in
      let c2 =
        Cache.create ~name:"p" ~persist:(int_persist dir) ~capacity:2
          ~metrics:m2 ()
      in
      Alcotest.(check (option int)) "corrupt file is a miss" None
        (Cache.find c2 "k");
      Alcotest.(check int) "invalid file counted" 1
        (counter m2 "p_disk_invalid");
      Alcotest.(check int) "and it is a miss" 1 (counter m2 "p_misses");
      (* truncated-to-empty is just another corrupt shape *)
      Out_channel.with_open_bin file (fun oc -> ignore oc);
      Alcotest.(check (option int)) "empty file is a miss" None
        (Cache.find c2 "k");
      (* a raising decoder is tolerated too *)
      let raising =
        { (int_persist dir) with Cache.decode = (fun _ -> failwith "boom") }
      in
      Out_channel.with_open_bin file (fun oc -> output_string oc "7");
      let c3 =
        Cache.create ~name:"p" ~persist:raising ~capacity:2
          ~metrics:(Metrics.create ()) ()
      in
      Alcotest.(check (option int)) "raising decoder is a miss" None
        (Cache.find c3 "k"))

let test_cache_disk_budget () =
  let dir = fresh_dir "shades-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* two one-byte values fit the two-byte budget exactly *)
      let m = Metrics.create () in
      let c =
        Cache.create ~name:"p"
          ~persist:(int_persist ~max_bytes:2 dir)
          ~capacity:8 ~metrics:m ()
      in
      Cache.put c "a" 1;
      Cache.put c "b" 2;
      Alcotest.(check int) "within budget: nothing evicted" 0
        (counter m "p_disk_evictions");
      (* age the files so the eviction order is deterministic even on
         coarse-mtime filesystems *)
      let now = Unix.gettimeofday () in
      Unix.utimes (Filename.concat dir "a") (now -. 100.) (now -. 100.);
      Unix.utimes (Filename.concat dir "b") (now -. 50.) (now -. 50.);
      Cache.put c "c" 3;
      Alcotest.(check int) "oldest file evicted" 1
        (counter m "p_disk_evictions");
      Alcotest.(check bool) "a is gone from disk" false
        (Sys.file_exists (Filename.concat dir "a"));
      Alcotest.(check bool) "b survives" true
        (Sys.file_exists (Filename.concat dir "b"));
      Alcotest.(check bool) "the fresh write is never the victim" true
        (Sys.file_exists (Filename.concat dir "c"));
      (* the memory tier still answers for the trimmed key... *)
      Alcotest.(check (option int)) "memory still has a" (Some 1)
        (Cache.find c "a");
      (* ...but a restart sees only what the budget kept *)
      let m2 = Metrics.create () in
      let c2 =
        Cache.create ~name:"p"
          ~persist:(int_persist ~max_bytes:2 dir)
          ~capacity:8 ~metrics:m2 ()
      in
      Alcotest.(check (option int)) "a is a miss after restart" None
        (Cache.find c2 "a");
      Alcotest.(check (option int)) "b is a disk hit" (Some 2)
        (Cache.find c2 "b"))

let gauge m name =
  match List.assoc_opt name (Metrics.snapshot m) with
  | Some (Metrics.Gauge g) -> Some g
  | _ -> None

let budgeted ~name ~max_bytes dir m =
  Cache.create ~name ~persist:(int_persist ~max_bytes dir) ~capacity:8
    ~metrics:m ()

(* the budget's ledger tracks the directory across writes: an
   overwrite replaces its size instead of adding, and a file deleted
   behind the cache's back frees its bytes without costing an
   eviction.  The four files predate the cache, with distinct mtimes,
   so the startup scan counts them and no rescan falls in the window. *)
let test_cache_ledger_drift () =
  let dir = fresh_dir "shades-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let seed =
        Cache.create ~name:"s" ~persist:(int_persist dir) ~capacity:8
          ~metrics:(Metrics.create ()) ()
      in
      let now = Unix.gettimeofday () in
      List.iteri
        (fun i key ->
          Cache.put seed key i;
          let age = now -. float_of_int (100 - (20 * i)) in
          Unix.utimes (Filename.concat dir key) age age)
        [ "a"; "b"; "c"; "d" ];
      let m = Metrics.create () in
      let c = budgeted ~name:"p" ~max_bytes:4 dir m in
      Alcotest.(check (option (float 0.))) "the scan counts four bytes"
        (Some 4.) (gauge m "p_disk_bytes");
      Cache.put c "d" 5;
      Alcotest.(check int) "an overwrite is not double-counted" 0
        (counter m "p_disk_evictions");
      Alcotest.(check (option (float 0.))) "still four bytes" (Some 4.)
        (gauge m "p_disk_bytes");
      Sys.remove (Filename.concat dir "a");
      Cache.put c "e" 6;
      Alcotest.(check int) "a vanished file is freed, not evicted" 0
        (counter m "p_disk_evictions");
      Alcotest.(check (list string)) "nothing else was deleted"
        [ "b"; "c"; "d"; "e" ]
        (List.sort String.compare (Array.to_list (Sys.readdir dir)));
      Alcotest.(check (option (float 0.))) "the ledger agrees with the dir"
        (Some 4.) (gauge m "p_disk_bytes"))

(* the ledger decides exactly as a full scan of the directory would:
   before each put the directory is listed, the written file's new
   stat is folded in, and the scan's policy (oldest (mtime, name)
   first, never the file just written, until the tier fits) names the
   victims, which must be exactly the files that disappear.  Random
   keys overwrite often and the small budget forces frequent rescans. *)
let test_cache_ledger_matches_scan () =
  let dir = fresh_dir "shades-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let budget = 12 in
      let m = Metrics.create () in
      let c = budgeted ~name:"p" ~max_bytes:budget dir m in
      let stat f =
        let st = Unix.stat (Filename.concat dir f) in
        (st.Unix.st_mtime, f, st.Unix.st_size)
      in
      let listing () = List.map stat (Array.to_list (Sys.readdir dir)) in
      let rng = Random.State.make [| 13 |] in
      for step = 1 to 300 do
        let key = Printf.sprintf "k%02d" (Random.State.int rng 30) in
        let before = listing () in
        let evictions = counter m "p_disk_evictions" in
        Cache.put c key (Random.State.int rng 10_000);
        let files =
          stat key :: List.filter (fun (_, f, _) -> f <> key) before
          |> List.sort compare
        in
        let total = List.fold_left (fun acc (_, _, s) -> acc + s) 0 files in
        let _, victims =
          List.fold_left
            (fun (total, victims) (_, f, s) ->
              if total <= budget || f = key then (total, victims)
              else (total - s, f :: victims))
            (total, []) files
        in
        let expected =
          List.filter_map
            (fun (_, f, _) -> if List.mem f victims then None else Some f)
            files
          |> List.sort String.compare
        in
        let actual = List.sort String.compare (Array.to_list (Sys.readdir dir)) in
        Alcotest.(check (list string))
          (Printf.sprintf "step %d: the scan's survivors" step)
          expected actual;
        Alcotest.(check int)
          (Printf.sprintf "step %d: one eviction per victim" step)
          (List.length victims)
          (counter m "p_disk_evictions" - evictions)
      done)

(* two budgeted caches on one directory stand in for two daemons: the
   second one's rescans fold the first one's files into its ledger, so
   the directory ends within budget with the oldest files gone first *)
let test_cache_ledger_siblings () =
  let dir = fresh_dir "shades-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let budget = 10 in
      let a = budgeted ~name:"a" ~max_bytes:budget dir (Metrics.create ()) in
      let mb = Metrics.create () in
      let b = budgeted ~name:"b" ~max_bytes:budget dir mb in
      for i = 0 to budget - 1 do
        Cache.put a (Printf.sprintf "a%02d" i) (i mod 10)
      done;
      for i = 0 to (2 * budget) - 1 do
        Cache.put b (Printf.sprintf "b%02d" i) (i mod 10)
      done;
      let names = Sys.readdir dir in
      Array.sort String.compare names;
      let bytes =
        Array.fold_left
          (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
          0 names
      in
      Alcotest.(check bool)
        (Printf.sprintf "directory within budget (%d bytes)" bytes)
        true (bytes <= budget);
      Alcotest.(check (list string)) "the newest of b's files survive"
        (List.init budget (fun i -> Printf.sprintf "b%02d" (budget + i)))
        (Array.to_list names);
      Alcotest.(check int) "b evicted a's files, then its own oldest"
        (2 * budget) (counter mb "b_disk_evictions"))

(* a temp file whose writer is dead is swept at startup; those of live
   writers (this process and its parent) are left alone *)
let test_cache_orphan_sweep () =
  let dir = fresh_dir "shades-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Unix.mkdir dir 0o755;
      let reaped =
        let pid =
          Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout
            Unix.stderr
        in
        ignore (Unix.waitpid [] pid);
        pid
      in
      let orphan = Printf.sprintf "k.tmp.%d.0" reaped in
      let live = Printf.sprintf "k.tmp.%d.0" (Unix.getpid ()) in
      let parent = Printf.sprintf "k.tmp.%d.0" (Unix.getppid ()) in
      List.iter
        (fun f ->
          Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
              output_string oc "1"))
        [ orphan; live; parent ];
      let m = Metrics.create () in
      ignore (budgeted ~name:"p" ~max_bytes:2 dir m);
      Alcotest.(check bool) "the dead writer's temp file is gone" false
        (Sys.file_exists (Filename.concat dir orphan));
      Alcotest.(check bool) "this process's temp file stays" true
        (Sys.file_exists (Filename.concat dir live));
      Alcotest.(check bool) "another live process's temp file stays" true
        (Sys.file_exists (Filename.concat dir parent));
      Alcotest.(check int) "one orphan counted" 1 (counter m "p_disk_orphans");
      Alcotest.(check (option (float 0.))) "temp files are never counted"
        (Some 0.) (gauge m "p_disk_bytes"))

(* The stampeding half of the shared --cache-dir test below: the test
   re-executes this binary with SHADES_CACHE_CHILD set (Unix.fork is
   off the table once any test has spawned a domain), and this loop
   hammers the shared keyspace where the value is a pure function of
   the key, re-reading through a cold cache every 25 iterations so the
   disk tier — not the private memory tier — answers.  Any torn or
   wrong read turns into a nonzero exit status. *)
let shared_dir_keys = 17
let shared_dir_value k = (k * 1000) + 7

let shared_dir_child dir seed =
  let ok = ref true in
  (try
     let c =
       Cache.create ~name:"w" ~persist:(int_persist dir) ~capacity:4
         ~metrics:(Metrics.create ()) ()
     in
     for i = 0 to 399 do
       let k = (i + seed) mod shared_dir_keys in
       let key = "k" ^ string_of_int k in
       Cache.put c key (shared_dir_value k);
       (match Cache.find c key with
       | Some v when v <> shared_dir_value k -> ok := false
       | _ -> ());
       if i mod 25 = 0 then begin
         let r =
           Cache.create ~name:"r" ~persist:(int_persist dir) ~capacity:4
             ~metrics:(Metrics.create ()) ()
         in
         for j = 0 to shared_dir_keys - 1 do
           match Cache.find r ("k" ^ string_of_int j) with
           | Some v -> if v <> shared_dir_value j then ok := false
           | None -> () (* not written yet: a miss, never garbage *)
         done
       end
     done
   with _ -> ok := false);
  if !ok then 0 else 1

let test_cache_shared_dir () =
  let dir = fresh_dir "shades-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* two daemons on one --cache-dir: write-then-rename atomicity
         means a reader sees a whole value or nothing, concurrent
         writers never tear each other's files, and no temp litter is
         left behind *)
      let keys = shared_dir_keys in
      let value_of = shared_dir_value in
      let spawn seed =
        let env =
          Array.append (Unix.environment ())
            [|
              "SHADES_CACHE_CHILD=" ^ dir;
              "SHADES_CACHE_SEED=" ^ string_of_int seed;
            |]
        in
        Unix.create_process_env Sys.executable_name
          [| Sys.executable_name |]
          env Unix.stdin Unix.stdout Unix.stderr
      in
      let pids = [ spawn 0; spawn 9 ] in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _, _ -> Alcotest.fail "child saw a torn or wrong cache read")
        pids;
      (* no temp litter survives the stampede *)
      let has_sub hay needle =
        let n = String.length needle and h = String.length hay in
        let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
        at 0
      in
      Array.iter
        (fun f ->
          if has_sub f ".tmp." then
            Alcotest.failf "temp litter left behind: %s" f)
        (Sys.readdir dir);
      (* a fresh cache serves every key from disk, intact *)
      let m = Metrics.create () in
      let c =
        Cache.create ~name:"f" ~persist:(int_persist dir) ~capacity:32
          ~metrics:m ()
      in
      for k = 0 to keys - 1 do
        Alcotest.(check (option int))
          (Printf.sprintf "k%d intact after the stampede" k)
          (Some (value_of k))
          (Cache.find c ("k" ^ string_of_int k))
      done;
      Alcotest.(check int) "every answer came off disk" keys
        (counter m "f_disk_hits");
      Alcotest.(check int) "no invalid files" 0 (counter m "f_disk_invalid"))

(* --- textual specs: engines and trace labels --- *)

let test_engine_names () =
  let module Exec = Shades_localsim.Exec in
  let timing = function
    | Exec.Sequential -> "sequential"
    | Exec.Sharded d ->
        Printf.sprintf "sharded:%s"
          (Option.fold ~none:"default" ~some:string_of_int d)
    | Exec.Async (Exec.Seeded s) -> Printf.sprintf "async:%d" s
    | Exec.Async (Exec.Plan _) -> "plan"
  in
  List.iter
    (fun (name, domains, seed, expected) ->
      let what = Printf.sprintf "engine %S" name in
      let got =
        Result.map
          (fun { Spec.exec; name; key } ->
            (timing exec.Exec.timing, name, key))
          (Spec.engine ?domains ?seed name)
      in
      Alcotest.(check (result (triple string string string) string))
        what expected got)
    [
      ("sync", None, None, Ok ("sequential", "sync", "sync"));
      ("sequential", None, Some 3, Ok ("sequential", "sync", "sync"));
      ("seq", Some 0, None, Ok ("sequential", "sync", "sync"));
      ("sharded", None, None, Ok ("sharded:default", "sharded", "sharded"));
      ("sharded", Some 2, Some 3, Ok ("sharded:2", "sharded", "sharded"));
      ("async", None, Some 3, Ok ("async:3", "async(seed=3)", "async-s3"));
      ("async", Some 2, Some 0, Ok ("async:0", "async(seed=0)", "async-s0"));
      ("sharded", Some 0, None, Error "\"domains\" must be a positive integer");
      ("async", None, None, Error "engine async needs a seed");
      ( "warp", None, None,
        Error "\"engine\" must be \"sync\", \"sharded\" or \"async\"" );
      ( "SYNC", None, None,
        Error "\"engine\" must be \"sync\", \"sharded\" or \"async\"" );
    ]

let test_trace_labels () =
  List.iter
    (fun task ->
      List.iter
        (fun spec ->
          let label = Spec.trace_label ~task spec in
          match Spec.parse_trace_label label with
          | Ok (t, s) ->
              Alcotest.(check (pair string string))
                label
                (Shades_election.Task.kind_to_string task, spec)
                (Shades_election.Task.kind_to_string t, s)
          | Error e -> Alcotest.failf "%s: %s" label e)
        [ "path:6"; "gclass:3,1,2"; "line-ports:0,1,1,0" ])
    Shades_election.Task.all;
  Alcotest.(check string) "lower-case task" "cppe path:6"
    (Spec.trace_label ~task:Shades_election.Task.CPPE "path:6");
  List.iter
    (fun label ->
      Alcotest.(check bool)
        (label ^ " rejected") true
        (Result.is_error (Spec.parse_trace_label label)))
    [ "g-sync-d3-k1-i2"; "xe path:6"; "" ]

(* --- service (no sockets) --- *)

let handle_ok service req =
  match Service.handle service req with
  | Service.Reply r -> r
  | Service.Reply_and_stop r -> r

let result_of reply =
  match Json.member "result" reply with
  | Some r -> r
  | None -> Alcotest.fail ("no result in " ^ Json.to_string reply)

let is_error ?code reply =
  match (Json.member "ok" reply, Json.member "error" reply) with
  | Some (Json.Bool false), Some e -> (
      match code with
      | None -> true
      | Some c -> Json.member "code" e = Some (Json.String c))
  | _ -> false

let advise_req spec =
  Json.Obj
    [
      ("op", Json.String "advise");
      ("graph", Json.String spec);
      ("task", Json.String "pe");
    ]

let test_service_errors () =
  let s = Service.create () in
  Alcotest.(check bool)
    "missing op" true
    (is_error ~code:"bad-request" (handle_ok s (Json.Obj [])));
  Alcotest.(check bool)
    "unknown op" true
    (is_error ~code:"unknown-op"
       (handle_ok s (Json.Obj [ ("op", Json.String "fly") ])));
  Alcotest.(check bool)
    "bad graph spec" true
    (is_error ~code:"request-failed" (handle_ok s (advise_req "ring:banana")));
  (* infeasible topology: the oracle itself refuses; still a reply *)
  Alcotest.(check bool)
    "infeasible graph is a structured error" true
    (is_error ~code:"request-failed"
       (handle_ok s
          (Json.Obj
             [
               ("op", Json.String "advise");
               ("graph", Json.String "ring:6");
               ("task", Json.String "s");
             ])))

let test_service_cache_behaviour () =
  let s = Service.create () in
  let m = Service.metrics s in
  let r1 = result_of (handle_ok s (advise_req "gclass:3,1,2")) in
  let r2 = result_of (handle_ok s (advise_req "gclass:3,1,2")) in
  Alcotest.(check bool)
    "first advise is cold"
    true
    (Json.member "cached" r1 = Some (Json.Bool false));
  Alcotest.(check bool)
    "second advise is warm"
    true
    (Json.member "cached" r2 = Some (Json.Bool true));
  Alcotest.(check string)
    "same advice both times"
    (Json.to_string (Option.get (Json.member "advice" r1)))
    (Json.to_string (Option.get (Json.member "advice" r2)));
  Alcotest.(check int) "one oracle run" 1 (counter m "advise_computes");
  Alcotest.(check int) "one cache hit" 1 (counter m "advice_cache_hits");
  (* an isomorphic renumbering shares the cache entry: same canonical
     digest, no second oracle run *)
  let g = Shades_graph.Gen.path 7 in
  let base = result_of (handle_ok s
    (Json.Obj [ ("op", Json.String "advise");
                ("graph", Protocol.graph_to_json g);
                ("task", Json.String "pe") ])) in
  let renum =
    let n = Shades_graph.Port_graph.order g in
    let perm v = (v + 3) mod n in
    Shades_graph.Port_graph.of_edges n
      (List.map
         (fun ((v, p), (u, q)) -> ((perm v, p), (perm u, q)))
         (Shades_graph.Port_graph.edges g))
  in
  let iso = result_of (handle_ok s
    (Json.Obj [ ("op", Json.String "advise");
                ("graph", Protocol.graph_to_json renum);
                ("task", Json.String "pe") ])) in
  Alcotest.(check bool)
    "isomorphic submission is a cache hit" true
    (Json.member "cached" iso = Some (Json.Bool true));
  Alcotest.(check string)
    "isomorphic submissions share a digest"
    (Json.to_string (Option.get (Json.member "digest" base)))
    (Json.to_string (Option.get (Json.member "digest" iso)))

let test_service_eviction () =
  let s = Service.create ~cache_capacity:1 () in
  let m = Service.metrics s in
  ignore (handle_ok s (advise_req "path:5"));
  ignore (handle_ok s (advise_req "path:6"));
  ignore (handle_ok s (advise_req "path:5"));
  Alcotest.(check int) "capacity 1 evicts" 2 (counter m "advice_cache_evictions");
  Alcotest.(check int) "every advise recomputed" 3 (counter m "advise_computes")

let timings m name =
  match List.assoc_opt name (Metrics.snapshot m) with
  | Some (Metrics.Timing { count; _ }) -> count
  | _ -> 0

(* A cold advise canonicalizes once: the memo miss and the advice miss
   share one canonical form, and the digest it answers is the graph's
   canonical content address. *)
let test_service_cold_advise_canonicalizes_once () =
  let s = Service.create () in
  let m = Service.metrics s in
  let spec = "random:17,30,10" in
  let r =
    result_of
      (handle_ok s
         (Json.Obj
            [
              ("op", Json.String "advise");
              ("graph", Json.String spec);
              ("task", Json.String "cppe");
            ]))
  in
  Alcotest.(check int) "one canonicalization" 1 (timings m "canonicalize");
  Alcotest.(check int) "one oracle run" 1 (counter m "advise_computes");
  Alcotest.(check bool)
    "digest is the canonical digest" true
    (Json.member "digest" r
    = Some (Json.String (Shades_graph.Port_graph.digest (Spec.parse_exn spec))))

(* A memo hit whose advice entry was evicted canonicalizes again and
   serves the advice of its own graph, not of the last one seen. *)
let test_service_evicted_advice_recomputed () =
  let s = Service.create ~cache_capacity:1 () in
  let m = Service.metrics s in
  let advice spec = Json.member "advice" (result_of (handle_ok s (advise_req spec))) in
  let first = advice "random:3,12,4" in
  let other = advice "random:4,12,4" in
  let again = advice "random:3,12,4" in
  Alcotest.(check bool) "the two graphs' advice differ" true (first <> other);
  Alcotest.(check int) "memo answered the third advise" 1 (counter m "memo_hits");
  Alcotest.(check int) "advice recomputed" 3 (counter m "advise_computes");
  Alcotest.(check int) "three canonicalizations" 3 (timings m "canonicalize");
  Alcotest.(check bool) "same advice as the cold run" true (first = again)

let test_service_elect_and_verify () =
  let s = Service.create () in
  let elect =
    result_of
      (handle_ok s
         (Json.Obj
            [
              ("op", Json.String "elect");
              ("graph", Json.String "path:6");
              ("task", Json.String "pe");
            ]))
  in
  Alcotest.(check bool)
    "elect verified" true
    (Json.member "verified" elect = Some (Json.Bool true));
  let outputs = Option.get (Json.member "outputs" elect) in
  let verify_req outputs =
    Json.Obj
      [
        ("op", Json.String "verify");
        ("graph", Json.String "path:6");
        ("task", Json.String "pe");
        ("outputs", outputs);
      ]
  in
  let verdict = result_of (handle_ok s (verify_req outputs)) in
  Alcotest.(check bool)
    "claimed outputs check out" true
    (Json.member "valid" verdict = Some (Json.Bool true));
  (* corrupt one claim: a second leader must be rejected with a reason *)
  let corrupted =
    match outputs with
    | Json.List (_ :: rest) -> Json.List (Json.String "leader" :: rest)
    | _ -> Alcotest.fail "outputs should be a list"
  in
  let verdict = result_of (handle_ok s (verify_req corrupted)) in
  Alcotest.(check bool)
    "corrupted outputs rejected" true
    (Json.member "valid" verdict = Some (Json.Bool false));
  Alcotest.(check bool)
    "with a reason" true
    (Json.member "reason" verdict <> None)

let test_service_elect_sharded () =
  (* "engine":"sharded" is the sync path on the parallel executor: same
     outputs and counts as "sync", advice served from the same cache
     entry, and the reply names the engine it ran. *)
  let s = Service.create () in
  let m = Service.metrics s in
  let elect_req engine =
    Json.Obj
      ([
         ("op", Json.String "elect");
         ("graph", Json.String "path:6");
         ("task", Json.String "pe");
       ]
      @
      match engine with
      | None -> []
      | Some e -> [ ("engine", Json.String e); ("domains", Json.Int 3) ])
  in
  let sync = result_of (handle_ok s (elect_req None)) in
  let sharded = result_of (handle_ok s (elect_req (Some "sharded"))) in
  let field name r = Json.to_string (Option.get (Json.member name r)) in
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " matches sync") (field name sync) (field name sharded))
    [ "outputs"; "rounds"; "messages"; "advice_bits"; "leader"; "digest" ];
  Alcotest.(check bool)
    "sharded elect verified" true
    (Json.member "verified" sharded = Some (Json.Bool true));
  Alcotest.(check string) "engine echoed" "\"sharded\"" (field "engine" sharded);
  Alcotest.(check bool)
    "advice reused from the sync run's cache entry" true
    (Json.member "cached" sharded = Some (Json.Bool true));
  Alcotest.(check int) "single oracle run" 1 (counter m "advise_computes");
  (* malformed domains is a structured error, not a crash *)
  let bad =
    handle_ok s
      (Json.Obj
         [
           ("op", Json.String "elect");
           ("graph", Json.String "path:6");
           ("task", Json.String "pe");
           ("engine", Json.String "sharded");
           ("domains", Json.String "three");
         ])
  in
  Alcotest.(check bool) "bad domains rejected" true (is_error bad)

(* "engine":"async" reports the run's message total, like every other
   engine — on a two-round election, where the count at the last round
   start would fall short of it. *)
let test_service_elect_async () =
  let s = Service.create () in
  let elect_req extra =
    Json.Obj
      ([
         ("op", Json.String "elect");
         ("graph", Json.String "gclass:3,2,2");
         ("task", Json.String "s");
       ]
      @ extra)
  in
  let sync = result_of (handle_ok s (elect_req [])) in
  let field name r = Json.to_string (Option.get (Json.member name r)) in
  Alcotest.(check string) "two rounds" "2" (field "rounds" sync);
  List.iter
    (fun seed ->
      let async =
        result_of
          (handle_ok s
             (elect_req
                [ ("engine", Json.String "async"); ("seed", Json.Int seed) ]))
      in
      List.iter
        (fun name ->
          Alcotest.(check string)
            (Printf.sprintf "%s matches sync (seed %d)" name seed)
            (field name sync) (field name async))
        [ "outputs"; "rounds"; "messages"; "leader" ])
    [ 0; 3 ]

let test_service_verify_trace () =
  let s = Service.create () in
  (* record a trace exactly as `shades trace record` does *)
  let open Shades_trace in
  let g = Shades_graph.Gen.path 6 in
  let r = Trace.recorder () in
  ignore
    (Shades_election.Scheme.run ~tracer:(Trace.emit r)
       Shades_election.Map_advice.port_election g);
  let trace =
    Trace.capture r
      {
        Trace.engine = Trace.Sync;
        graph_order = Shades_graph.Port_graph.order g;
        advice_bits = 0;
        label = "pe path:6";
      }
  in
  let blob = Codec.encode trace in
  let req hex =
    Json.Obj [ ("op", Json.String "verify-trace"); ("trace", Json.String hex) ]
  in
  let verdict = result_of (handle_ok s (req (Protocol.hex_encode blob))) in
  Alcotest.(check bool)
    "genuine trace replays clean" true
    (Json.member "valid" verdict = Some (Json.Bool true));
  (* flip one byte deep in the event stream: decode or replay must fail,
     never accept *)
  let tampered = Bytes.of_string blob in
  let pos = Bytes.length tampered - 3 in
  Bytes.set tampered pos (Char.chr (Char.code (Bytes.get tampered pos) lxor 0xff));
  let reply = handle_ok s (req (Protocol.hex_encode (Bytes.to_string tampered))) in
  let accepted =
    (not (is_error reply))
    && Json.member "valid" (result_of reply) = Some (Json.Bool true)
  in
  Alcotest.(check bool) "tampered trace is not accepted" false accepted

let strip_cache_flags = function
  | Json.Obj ms ->
      Json.Obj
        (List.filter
           (fun (n, _) -> n <> "cached" && n <> "result_cached")
           ms)
  | j -> j

let test_service_restart_recovery () =
  let dir = fresh_dir "shades-service" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let elect_req =
        Json.Obj
          [
            ("op", Json.String "elect");
            ("graph", Json.String "path:6");
            ("task", Json.String "pe");
          ]
      in
      let s1 = Service.create ~cache_dir:dir () in
      let a1 = result_of (handle_ok s1 (advise_req "gclass:3,1,2")) in
      let e1 = result_of (handle_ok s1 elect_req) in
      let outputs = Option.get (Json.member "outputs" e1) in
      let verify_req =
        Json.Obj
          [
            ("op", Json.String "verify");
            ("graph", Json.String "path:6");
            ("task", Json.String "pe");
            ("outputs", outputs);
          ]
      in
      let v1 = result_of (handle_ok s1 verify_req) in
      (* the restart: a second service on the same directory must
         answer all three from the disk tier — zero oracle, engine or
         referee runs — with byte-identical results modulo the
         cache-status flags *)
      let s2 = Service.create ~cache_dir:dir () in
      let m2 = Service.metrics s2 in
      let a2 = result_of (handle_ok s2 (advise_req "gclass:3,1,2")) in
      let e2 = result_of (handle_ok s2 elect_req) in
      let v2 = result_of (handle_ok s2 verify_req) in
      Alcotest.(check int) "no oracle runs after restart" 0
        (counter m2 "advise_computes");
      Alcotest.(check int) "no engine runs after restart" 0
        (counter m2 "elect_computes");
      Alcotest.(check int) "no referee runs after restart" 0
        (counter m2 "verify_computes");
      Alcotest.(check int) "three answers served from cache" 3
        (counter m2 "computes_avoided");
      Alcotest.(check bool)
        "restarted advise says cached" true
        (Json.member "cached" a2 = Some (Json.Bool true));
      Alcotest.(check bool)
        "restarted elect says result_cached" true
        (Json.member "result_cached" e2 = Some (Json.Bool true));
      List.iter
        (fun (what, r1, r2) ->
          Alcotest.(check string)
            (what ^ " reply identical across restart")
            (Json.to_string (strip_cache_flags r1))
            (Json.to_string (strip_cache_flags r2)))
        [ ("advise", a1, a2); ("elect", e1, e2); ("verify", v1, v2) ])

(* A result entry stored under the previous result version — the v1.1
   elect key, written before async replies changed their [messages] —
   must never be served once [Versions.result] moves past it. *)
let test_service_stale_result_version () =
  let dir = fresh_dir "shades-stale" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let elect_req =
        Json.Obj
          [
            ("op", Json.String "elect");
            ("graph", Json.String "path:6");
            ("task", Json.String "pe");
          ]
      in
      (* one election names the result file of this request's key *)
      ignore (handle_ok (Service.create ~cache_dir:dir ()) elect_req);
      let results = Filename.concat dir "results" in
      let file =
        match Sys.readdir results with
        | [| f |] -> f
        | fs -> Alcotest.failf "expected one result file, got %d" (Array.length fs)
      in
      let body =
        In_channel.with_open_bin (Filename.concat results file)
          In_channel.input_all
      in
      Sys.remove (Filename.concat results file);
      (* the same key under result version 1 ("/" is escaped as "%2F") *)
      let version_at =
        Str.search_backward (Str.regexp_string "%2Fv") file (String.length file)
      in
      let old = String.sub file 0 version_at ^ "%2Fv1.1" in
      Out_channel.with_open_bin (Filename.concat results old) (fun oc ->
          output_string oc body);
      let s = Service.create ~cache_dir:dir () in
      let r = result_of (handle_ok s elect_req) in
      Alcotest.(check bool)
        "stale-version entry not served" true
        (Json.member "result_cached" r = Some (Json.Bool false));
      Alcotest.(check int) "the election ran" 1
        (counter (Service.metrics s) "elect_computes"))

let batch_req items =
  Json.Obj [ ("op", Json.String "batch"); ("requests", Json.List items) ]

let test_service_batch () =
  let s = Service.create () in
  let m = Service.metrics s in
  let reply =
    match
      Service.handle s
        (batch_req
           [
             advise_req "gclass:3,1,2";
             Json.Obj [ ("op", Json.String "stats") ];
             advise_req "ring:banana";
             batch_req [];
             Json.Obj [ ("op", Json.String "shutdown") ];
           ])
    with
    | Service.Reply r -> r
    | Service.Reply_and_stop _ ->
        Alcotest.fail "a batched shutdown must not stop the daemon"
  in
  let result = result_of reply in
  Alcotest.(check bool)
    "count echoed" true
    (Json.member "count" result = Some (Json.Int 5));
  let replies =
    match Json.member "replies" result with
    | Some (Json.List l) -> Array.of_list l
    | _ -> Alcotest.fail "batch reply needs a replies list"
  in
  Alcotest.(check int) "one reply per item" 5 (Array.length replies);
  (* order: slot i answers request i *)
  Alcotest.(check bool)
    "slot 0 is the advise" true
    (Json.member "op" replies.(0) = Some (Json.String "advise"));
  Alcotest.(check bool)
    "slot 1 is the stats" true
    (Json.member "op" replies.(1) = Some (Json.String "stats"));
  (* isolation: the failures each sit in their own slot *)
  Alcotest.(check bool)
    "bad graph isolated" true
    (is_error ~code:"request-failed" replies.(2));
  Alcotest.(check bool)
    "nested batch rejected" true
    (is_error ~code:"bad-request" replies.(3));
  Alcotest.(check bool)
    "batched shutdown rejected" true
    (is_error ~code:"bad-request" replies.(4));
  Alcotest.(check int) "items counted" 5 (counter m "batch_items");
  (* an empty batch is a valid degenerate frame *)
  let empty = result_of (handle_ok s (batch_req [])) in
  Alcotest.(check bool)
    "empty batch" true
    (Json.member "count" empty = Some (Json.Int 0))

let test_service_batch_parallel () =
  (* same semantics with a real crew installed as the fan-out hook:
     replies stay in request order regardless of scheduling *)
  let module Pool = Shades_pool in
  let s = Service.create () in
  let crew = Pool.Crew.create ~domains:3 () in
  Service.set_parallel s (Some (Pool.Crew.run_all crew));
  Fun.protect
    ~finally:(fun () ->
      Service.set_parallel s None;
      Pool.Crew.shutdown crew)
    (fun () ->
      let specs = [ "path:5"; "path:6"; "path:7"; "path:8"; "path:9" ] in
      let result =
        result_of (handle_ok s (batch_req (List.map advise_req specs)))
      in
      let replies =
        match Json.member "replies" result with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "batch reply needs a replies list"
      in
      List.iter2
        (fun spec reply ->
          Alcotest.(check bool) (spec ^ " ok") true (not (is_error reply));
          let solo = result_of (handle_ok s (advise_req spec)) in
          Alcotest.(check string)
            (spec ^ " reply in its own slot")
            (Json.to_string (strip_cache_flags solo))
            (Json.to_string (strip_cache_flags (result_of reply))))
        specs replies)

(* --- the HTTP plane --- *)

let prom_value text name =
  let prefix = name ^ " " in
  let rec find = function
    | [] -> None
    | line :: rest ->
        if String.starts_with ~prefix line then
          float_of_string_opt
            (String.sub line (String.length prefix)
               (String.length line - String.length prefix))
        else find rest
  in
  find (String.split_on_char '\n' text)

let test_http_render () =
  let s = Service.create () in
  ignore (handle_ok s (advise_req "gclass:3,1,2"));
  ignore (handle_ok s (advise_req "gclass:3,1,2"));
  let text = Http.render_metrics s in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec at i = i + n <= h && (String.sub text i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition has " ^ needle) true (contains needle))
    [
      "# TYPE shades_uptime_seconds gauge";
      "# HELP shades_advice_cache_hits_total ";
      "# TYPE shades_advise_computes_total counter";
      "# TYPE shades_op_advise_seconds_total counter";
    ];
  Alcotest.(check (option (float 0.)))
    "one oracle run" (Some 1.)
    (prom_value text "shades_advise_computes_total");
  Alcotest.(check (option (float 0.)))
    "one cache hit" (Some 1.)
    (prom_value text "shades_advice_cache_hits_total");
  Alcotest.(check (option (float 0.)))
    "per-op request pair" (Some 2.)
    (prom_value text "shades_op_advise_requests_total");
  Alcotest.(check bool)
    "uptime positive" true
    (match prom_value text "shades_uptime_seconds" with
    | Some u -> u >= 0.
    | None -> false);
  (* counters are monotonic between scrapes *)
  ignore (handle_ok s (advise_req "gclass:3,1,2"));
  let text2 = Http.render_metrics s in
  List.iter
    (fun name ->
      match (prom_value text name, prom_value text2 name) with
      | Some before, Some after ->
          Alcotest.(check bool) (name ^ " monotonic") true (after >= before)
      | _ -> Alcotest.fail (name ^ " vanished between scrapes"))
    [
      "shades_requests_total";
      "shades_advice_cache_hits_total";
      "shades_advise_computes_total";
      "shades_op_advise_requests_total";
    ];
  Alcotest.(check (option (float 0.)))
    "hit counted by the second scrape" (Some 2.)
    (prom_value text2 "shades_advice_cache_hits_total");
  (* a budgeted disk tier exports its ledger total, with its own help *)
  let dir = fresh_dir "shades-http" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Service.create ~cache_dir:dir ~cache_max_bytes:1_000_000 () in
      ignore (handle_ok s (advise_req "gclass:3,1,2"));
      let text = Http.render_metrics s in
      Alcotest.(check bool) "disk_bytes has its own help line" true
        (List.mem
           "# HELP shades_advice_cache_disk_bytes Advice-cache tier bytes on \
            disk, as the budget ledger counts them."
           (String.split_on_char '\n' text));
      Alcotest.(check bool) "the advice tier holds bytes" true
        (match prom_value text "shades_advice_cache_disk_bytes" with
        | Some b -> b > 0.
        | None -> false))

let http_get path sock_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock_path);
  let oc = Unix.out_channel_of_descr fd in
  output_string oc ("GET " ^ path ^ " HTTP/1.1\r\nHost: test\r\n\r\n");
  flush oc;
  let ic = Unix.in_channel_of_descr fd in
  let response = In_channel.input_all ic in
  Unix.close fd;
  response

(* --- end to end over a Unix socket --- *)

let test_daemon_end_to_end () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "shades-test-%d.sock" (Unix.getpid ()))
  in
  let endpoint = Protocol.Unix_path socket in
  let service = Service.create () in
  let daemon = Domain.spawn (fun () -> Daemon.run ~domains:2 endpoint service) in
  let conn =
    let rec retry n =
      match Client.connect endpoint with
      | Ok c -> c
      | Error e ->
          if n = 0 then Alcotest.fail ("daemon never came up: " ^ e)
          else (
            Unix.sleepf 0.05;
            retry (n - 1))
    in
    retry 100
  in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      let ask req = Result.get_ok (Client.request conn req) in
      let cold = result_of (ask (advise_req "gclass:3,1,2")) in
      let warm = result_of (ask (advise_req "gclass:3,1,2")) in
      Alcotest.(check bool)
        "cold then warm over the wire" true
        (Json.member "cached" cold = Some (Json.Bool false)
        && Json.member "cached" warm = Some (Json.Bool true));
      (* a second concurrent client sees the same shared cache *)
      let other = Result.get_ok (Client.connect endpoint) in
      let from_other =
        Fun.protect
          ~finally:(fun () -> Client.close other)
          (fun () -> result_of (Result.get_ok (Client.request other (advise_req "gclass:3,1,2"))))
      in
      Alcotest.(check bool)
        "cache shared across connections" true
        (Json.member "cached" from_other = Some (Json.Bool true));
      let stats = result_of (ask (Json.Obj [ ("op", Json.String "stats") ])) in
      let computes =
        match Json.member "counters" stats with
        | Some c -> (
            match Json.member "advise_computes" c with
            | Some v -> Json.member "value" v
            | None -> None)
        | None -> None
      in
      Alcotest.(check bool)
        "exactly one oracle run for three advises" true
        (computes = Some (Json.Int 1));
      (* bad JSON in a good frame: this request fails, the next works *)
      let reply = ask (Json.Obj [ ("op", Json.Int 3) ]) in
      Alcotest.(check bool) "non-string op rejected" true (is_error reply);
      let again = ask (advise_req "gclass:3,1,2") in
      Alcotest.(check bool)
        "connection survives a rejected request" true (not (is_error again));
      let bye = ask (Json.Obj [ ("op", Json.String "shutdown") ]) in
      Alcotest.(check bool) "shutdown acknowledged" true (not (is_error bye)));
  Domain.join daemon;
  Alcotest.(check bool)
    "socket file removed on shutdown" false (Sys.file_exists socket)

let test_daemon_http_and_batch () =
  let tmp = Filename.get_temp_dir_name () in
  let socket =
    Filename.concat tmp (Printf.sprintf "shades-test-h-%d.sock" (Unix.getpid ()))
  in
  let http_path =
    Filename.concat tmp
      (Printf.sprintf "shades-test-http-%d.sock" (Unix.getpid ()))
  in
  let endpoint = Protocol.Unix_path socket in
  let service = Service.create () in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.run ~domains:2 ~http:(Protocol.Unix_path http_path) endpoint
          service)
  in
  let conn =
    let rec retry n =
      match Client.connect endpoint with
      | Ok c -> c
      | Error e ->
          if n = 0 then Alcotest.fail ("daemon never came up: " ^ e)
          else (
            Unix.sleepf 0.05;
            retry (n - 1))
    in
    retry 100
  in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      let ask req = Result.get_ok (Client.request conn req) in
      (* prime the cache first: two identical items inside one parallel
         batch may legitimately race and both compute *)
      ignore (ask (advise_req "gclass:3,1,2"));
      (* a batch over the wire: ordered, isolated *)
      let reply =
        ask
          (batch_req
             [
               advise_req "gclass:3,1,2";
               advise_req "ring:banana";
               advise_req "gclass:3,1,2";
             ])
      in
      let replies =
        match Json.member "replies" (result_of reply) with
        | Some (Json.List l) -> Array.of_list l
        | _ -> Alcotest.fail "batch reply needs a replies list"
      in
      Alcotest.(check bool)
        "wire batch: slot 0 ok" true
        (not (is_error replies.(0)));
      Alcotest.(check bool)
        "wire batch: slot 1 isolated failure" true
        (is_error replies.(1));
      Alcotest.(check bool)
        "wire batch: slot 2 a cache hit" true
        (Json.member "cached" (result_of replies.(2)) = Some (Json.Bool true));
      (* the HTTP plane answers on its own socket *)
      let health = http_get "/healthz" http_path in
      Alcotest.(check bool)
        "healthz is 200 ok" true
        (String.starts_with ~prefix:"HTTP/1.1 200 OK\r\n" health
        && String.ends_with ~suffix:"ok\n" health);
      let metrics = http_get "/metrics" http_path in
      let contains needle =
        let n = String.length needle and h = String.length metrics in
        let rec at i =
          i + n <= h && (String.sub metrics i n = needle || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool)
        "metrics is 200" true
        (String.starts_with ~prefix:"HTTP/1.1 200 OK\r\n" metrics);
      Alcotest.(check bool)
        "metrics counts the batch items" true
        (contains "shades_batch_items_total 3");
      Alcotest.(check bool)
        "metrics counts the http plane itself" true
        (contains "shades_http_requests_total");
      let missing = http_get "/nope" http_path in
      Alcotest.(check bool)
        "unknown path is 404" true
        (String.starts_with ~prefix:"HTTP/1.1 404" missing);
      let bye = ask (Json.Obj [ ("op", Json.String "shutdown") ]) in
      Alcotest.(check bool) "shutdown acknowledged" true (not (is_error bye)));
  Domain.join daemon;
  Alcotest.(check bool)
    "both socket files removed on shutdown" false
    (Sys.file_exists socket || Sys.file_exists http_path)

(* child mode: the shared --cache-dir test re-executes this binary
   with SHADES_CACHE_CHILD set; run the stampede and exit before
   Alcotest ever sees argv *)
let () =
  match Sys.getenv_opt "SHADES_CACHE_CHILD" with
  | Some dir ->
      let seed =
        Option.value ~default:0
          (Option.bind (Sys.getenv_opt "SHADES_CACHE_SEED") int_of_string_opt)
      in
      exit (shared_dir_child dir seed)
  | None -> ()

let () =
  Alcotest.run "shades_server"
    [
      ( "protocol",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "frame errors" `Quick test_frame_errors;
          Alcotest.test_case "hex codec" `Quick test_hex;
          Alcotest.test_case "endpoints" `Quick test_endpoints;
          Alcotest.test_case "graph json" `Quick test_graph_json;
          Alcotest.test_case "engine names" `Quick test_engine_names;
          Alcotest.test_case "trace labels" `Quick test_trace_labels;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru semantics" `Quick test_cache_lru;
          Alcotest.test_case "find_or_compute" `Quick test_cache_find_or_compute;
          Alcotest.test_case "concurrent hammering" `Quick test_cache_concurrent;
          Alcotest.test_case "disk tier" `Quick test_cache_persistence;
          Alcotest.test_case "corrupt files" `Quick test_cache_corrupt_files;
          Alcotest.test_case "disk budget" `Quick test_cache_disk_budget;
          Alcotest.test_case "shared cache dir" `Quick test_cache_shared_dir;
          Alcotest.test_case "ledger drift" `Quick test_cache_ledger_drift;
          Alcotest.test_case "ledger matches a scan" `Quick
            test_cache_ledger_matches_scan;
          Alcotest.test_case "ledger siblings" `Quick test_cache_ledger_siblings;
          Alcotest.test_case "orphan sweep" `Quick test_cache_orphan_sweep;
        ] );
      ( "service",
        [
          Alcotest.test_case "structured errors" `Quick test_service_errors;
          Alcotest.test_case "cache behaviour" `Quick test_service_cache_behaviour;
          Alcotest.test_case "eviction" `Quick test_service_eviction;
          Alcotest.test_case "cold advise canonicalizes once" `Quick
            test_service_cold_advise_canonicalizes_once;
          Alcotest.test_case "evicted advice recomputed" `Quick
            test_service_evicted_advice_recomputed;
          Alcotest.test_case "elect + verify" `Quick test_service_elect_and_verify;
          Alcotest.test_case "elect sharded" `Quick test_service_elect_sharded;
          Alcotest.test_case "elect async" `Quick test_service_elect_async;
          Alcotest.test_case "verify-trace" `Quick test_service_verify_trace;
          Alcotest.test_case "restart recovery" `Quick
            test_service_restart_recovery;
          Alcotest.test_case "stale result version" `Quick
            test_service_stale_result_version;
          Alcotest.test_case "batch" `Quick test_service_batch;
          Alcotest.test_case "batch parallel" `Quick test_service_batch_parallel;
        ] );
      ( "http",
        [ Alcotest.test_case "render metrics" `Quick test_http_render ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end" `Quick test_daemon_end_to_end;
          Alcotest.test_case "http + batch" `Quick test_daemon_http_and_batch;
        ] );
    ]
