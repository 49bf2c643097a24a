(* shades_bench: the end-to-end benchmark of the election service and the
   sweep runtime.

     shades_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
                  [--repeat K] [--json OUT]

   Run from the repository root after building the benchmark and the
   CLI (bench/e2e/run.sh does both).  Workloads:

     cold-advise  closed loop, 2 connections, every advise a new topology
     elect-iso    closed loop, 2 connections, elect on fresh renumberings
                  of a fixed pool (advice cached, results never)
     hot-zipf     open loop at a fixed Poisson rate over a Zipf working
                  set, against a daemon restarted on a populated cache
     sweep-all    the G, U and J sweep grids on 2 domains, plus a store

   The serving workloads drive the real daemon ([shades_cli serve]) as a
   child process.  With [--trace 0] the run reports the end-to-end
   metrics; with [--trace 1] it also replays the same request stream in
   process with a span around every stage ([Replay]), and reports the
   per-layer metrics instead.  The last line of standard output is one
   JSON object: correct, attempted, failed, metrics. *)

module Json = Shades_json.Json
module Task = Shades_election.Task
module W = Shades_e2e.Workload

let usage =
  "shades_bench --workload NAME --seed N [--seconds S] [--trace 0|1] [--repeat \
   K] [--json OUT]"

let workloads = [ "cold-advise"; "elect-iso"; "hot-zipf"; "sweep-all" ]
let workload = ref ""
let seed = ref 1
let seconds = ref 15.
let trace = ref 0
let repeat = ref 1
let json_out = ref ""

(* Set-ups per run: [setup_s] is their median. *)
let setups = 3

let now_ns = Loadgen.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6
let secs_of_ns ns = float_of_int ns /. 1e9

(* --- scratch space, inside the checkout --- *)

let root = ".shades_bench"
let work = Filename.concat root (string_of_int (Unix.getpid ()))
let trace_dir = Filename.concat root "trace"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* --- results --- *)

type run = {
  attempted : int;
  failed : int;
  correct : bool;  (** every check beyond the per-reply ones held *)
  metrics : (string * string * float) list;  (** name, unit, value *)
}

(* The tail is the 95th percentile: on this system the 99th moves with
   the machine's own noise (disk metadata latency above all) by more than
   any bound worth keeping, and every window still leaves dozens of
   samples beyond the 95th. *)
let end_to_end ~setup_s ~lat_ms ~throughput ~rss_mb =
  [
    ("setup_s", "s", setup_s);
    ("lat_p50_ms", "ms", Stats.median lat_ms);
    ("lat_p95_ms", "ms", Stats.quantile lat_ms 0.95);
    ("throughput_rps", "1/s", throughput);
    ("rss_peak_mb", "MiB", rss_mb);
  ]

(* Every per-layer metric, zero where the workload leaves a layer idle;
   [known] supplies the measured ones. *)
let layer_metrics known =
  let spec =
    [
      ("protocol.encode_us_p50", "us"); ("protocol.decode_us_p50", "us");
      ("protocol.req_bytes_mean", "bytes"); ("protocol.reply_bytes_mean", "bytes");
      ("graph_decode.us_p50", "us"); ("encoding_digest.us_p50", "us");
      ("canon.calls", "count"); ("canon.busy_ms", "ms"); ("canon.us_p50", "us");
      ("memo.hit_ratio", "ratio");
      ("cache.advice.mem_hit_ratio", "ratio"); ("cache.advice.disk_hit_ratio", "ratio");
      ("cache.result.mem_hit_ratio", "ratio"); ("cache.result.disk_hit_ratio", "ratio");
      ("cache.disk_writes", "count"); ("cache.disk_evictions", "count");
      ("cache.disk_read_us_p50", "us"); ("cache.disk_write_us_p50", "us");
      ("oracle.calls", "count"); ("oracle.busy_ms", "ms");
      ("oracle.s.ms_p50", "ms"); ("oracle.pe.ms_p50", "ms");
      ("oracle.ppe.ms_p50", "ms"); ("oracle.cppe.ms_p50", "ms");
      ("oracle.s.advice_bits_mean", "bits"); ("oracle.pe.advice_bits_mean", "bits");
      ("oracle.ppe.advice_bits_mean", "bits"); ("oracle.cppe.advice_bits_mean", "bits");
      ("engine.calls", "count"); ("engine.busy_ms", "ms"); ("engine.ms_p50", "ms");
      ("engine.round_ms_p50", "ms"); ("engine.rounds_total", "count");
      ("engine.messages_total", "count");
      ("verify.calls", "count"); ("verify.us_p50", "us");
      ("service.op_ms_mean.advise", "ms"); ("service.op_ms_mean.elect", "ms");
      ("service.op_ms_mean.verify", "ms"); ("daemon.overhead_ms_mean", "ms");
      ("sweep.jobs", "count"); ("sweep.grid_s", "s"); ("sweep.busy_s", "s");
      ("sweep.busy_s.g", "s"); ("sweep.busy_s.u", "s"); ("sweep.busy_s.j", "s");
      ("sweep.longest_job_s", "s"); ("sweep.pool_util", "ratio");
      ("sweep.store_ms", "ms");
      ("share.protocol", "ratio"); ("share.graph_decode", "ratio");
      ("share.encoding_digest", "ratio"); ("share.cache", "ratio");
      ("share.canon", "ratio"); ("share.oracle", "ratio"); ("share.engine", "ratio");
      ("share.verify", "ratio"); ("share.service", "ratio");
      ("slo_miss_ratio", "ratio"); ("gen.late_ms_p99", "ms");
      ("trace.overhead_ratio", "ratio");
    ]
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name spec) then failwith ("unlisted metric " ^ name))
    known;
  List.map
    (fun (name, unit_) ->
      (name, unit_, Option.value (List.assoc_opt name known) ~default:0.))
    spec

(* --- the daemon's own counters --- *)

let num counters name field =
  match List.assoc_opt name counters with
  | Some o -> (
      match Json.member field o with
      | Some (Json.Int n) -> float_of_int n
      | Some (Json.Float f) -> f
      | _ -> 0.)
  | None -> 0.

let ratio a b = if b > 0. then a /. b else 0.

(* Per-layer counts and busy times: deltas of the daemon's counters over
   the measured window. *)
let daemon_layers ~before ~after ~client_mean_ms =
  let d name field = num after name field -. num before name field in
  let c name = d name "value" in
  let tier name =
    let hits = c (name ^ "_hits") and disk = c (name ^ "_disk_hits") in
    let lookups = hits +. disk +. c (name ^ "_misses") in
    (ratio hits lookups, ratio disk lookups)
  in
  let advice_mem, advice_disk = tier "advice_cache" in
  let result_mem, result_disk = tier "result_cache" in
  let op name = ratio (d ("op_" ^ name) "total_ns" /. 1e6) (d ("op_" ^ name) "count") in
  let ops = [ "advise"; "elect"; "verify" ] in
  let op_ms = List.fold_left (fun a o -> a +. d ("op_" ^ o) "total_ns") 0. ops /. 1e6 in
  let op_count = List.fold_left (fun a o -> a +. d ("op_" ^ o) "count") 0. ops in
  [
    ("canon.calls", d "canonicalize" "count");
    ("canon.busy_ms", d "canonicalize" "total_ns" /. 1e6);
    ("memo.hit_ratio", ratio (c "memo_hits") (c "memo_hits" +. c "memo_misses"));
    ("cache.advice.mem_hit_ratio", advice_mem);
    ("cache.advice.disk_hit_ratio", advice_disk);
    ("cache.result.mem_hit_ratio", result_mem);
    ("cache.result.disk_hit_ratio", result_disk);
    ("cache.disk_writes", c "advice_cache_disk_writes" +. c "result_cache_disk_writes");
    ("cache.disk_evictions",
     c "advice_cache_disk_evictions" +. c "result_cache_disk_evictions");
    ("oracle.calls", d "oracle" "count");
    ("oracle.busy_ms", d "oracle" "total_ns" /. 1e6);
    ("engine.calls", d "elect" "count");
    ("engine.busy_ms", d "elect" "total_ns" /. 1e6);
    ("verify.calls", c "elect_computes" +. c "verify_computes");
    ("service.op_ms_mean.advise", op "advise");
    ("service.op_ms_mean.elect", op "elect");
    ("service.op_ms_mean.verify", op "verify");
    ("daemon.overhead_ms_mean", client_mean_ms -. ratio op_ms op_count);
  ]

(* The counts a replay must reproduce: computes, cache hits, disk hits. *)
let cross_counts get =
  [
    ("computes", get "advise_computes" +. get "elect_computes" +. get "verify_computes");
    ("hits", get "advice_cache_hits" +. get "result_cache_hits" +. get "memo_hits");
    ("disk hits", get "advice_cache_disk_hits" +. get "result_cache_disk_hits");
  ]

(* --- replies --- *)

let parse payload =
  match Json.of_string payload with
  | Ok j -> j
  | Error e -> failwith ("unparsable reply: " ^ e)

let result_of reply =
  match (Json.member "ok" reply, Json.member "result" reply) with
  | Some (Json.Bool true), Some r -> Some r
  | _ -> None

let field name r = Option.value (Json.member name r) ~default:Json.Null

(* A reply without its cache flags: what must not depend on which tier
   answered. *)
let strip payload =
  match parse payload with
  | Json.Obj members ->
      Json.to_string
        (Json.Obj
           (List.map
              (function
                | "result", Json.Obj r ->
                    ( "result",
                      Json.Obj
                        (List.filter
                           (fun (n, _) -> n <> "cached" && n <> "result_cached")
                           r) )
                | m -> m)
              members))
  | j -> Json.to_string j

(* The fields a replay must reproduce, per op. *)
let semantic op reply =
  match result_of reply with
  | None -> "error"
  | Some r ->
      let fields =
        match op with
        | "advise" -> [ "digest"; "advice"; "advice_bits"; "rounds" ]
        | "elect" ->
            [ "rounds"; "messages"; "advice_bits"; "verified"; "leader"; "outputs" ]
        | _ -> [ "valid"; "leader" ]
      in
      Json.to_string (Json.Obj (List.map (fun f -> (f, field f r)) fields))

(* --- serving workloads --- *)

type running = {
  daemon : Daemon_proc.t;
  conns : Loadgen.conn list;
  budget : int option;
  setup_sent : string array;  (** set-up traffic, in send order *)
}

let boot ~name ~cache_dir args =
  let daemon =
    Daemon_proc.spawn ~sock:(Filename.concat work (name ^ ".sock")) ~cache_dir args
  in
  let conns = Daemon_proc.connect daemon 2 in
  ignore (Daemon_proc.counters (List.hd conns));
  (daemon, conns)

let stop s =
  match s.conns with
  | c :: others -> Daemon_proc.stop s.daemon c others
  | [] -> ()

(* Send [payloads] with [depth] in flight per connection; replies in
   request order. *)
let exchange ?(depth = 4) conns payloads =
  let n = Array.length payloads in
  let replies = Array.make n "" in
  let next = ref 0 in
  Loadgen.closed ~depth conns
    ~next:(fun () ->
      let i = !next in
      if i >= n then None
      else begin
        next := i + 1;
        Some (i, payloads.(i))
      end)
    ~on_reply:(fun r -> replies.(r.Loadgen.idx) <- r.Loadgen.payload);
  replies

type exchange = {
  req : string;
  reply : string;  (** [""] if none came back *)
  lat_ms : float;
  ok : bool;
}

type window = {
  exchanges : exchange array;  (** in send order *)
  window_ns : int;
  late_ms : float list;
}

let exchange_of ~req ~check (r : Loadgen.reply option) =
  match r with
  | Some r ->
      {
        req;
        reply = r.Loadgen.payload;
        lat_ms = ms_of_ns (r.Loadgen.end_ns - r.Loadgen.start_ns);
        ok = (try check r.Loadgen.payload with Failure _ -> false);
      }
  | None -> { req; reply = ""; lat_ms = 0.; ok = false }

(* Closed loop for [seconds]: [request i] is the i-th payload, [check i
   reply] whether its reply is correct. *)
let closed_window s ~request ~check =
  let deadline = now_ns () + int_of_float (!seconds *. 1e9) in
  let sent = ref [] and got = ref [] in
  let count = ref 0 in
  let t0 = now_ns () in
  Loadgen.closed s.conns
    ~next:(fun () ->
      if now_ns () >= deadline then None
      else begin
        let i = !count in
        incr count;
        let payload = request i in
        sent := payload :: !sent;
        Some (i, payload)
      end)
    ~on_reply:(fun r -> got := r :: !got);
  let window_ns = now_ns () - t0 in
  let sent = Array.of_list (List.rev !sent) in
  let replies = Array.make (Array.length sent) None in
  List.iter (fun r -> replies.(r.Loadgen.idx) <- Some r) !got;
  let exchanges =
    Array.mapi (fun i req -> exchange_of ~req ~check:(check i) replies.(i)) sent
  in
  { exchanges; window_ns; late_ms = [] }

let cold_window s =
  let check _ payload =
    match result_of (parse payload) with
    | Some r -> (
        match (field "cached" r, field "advice" r, field "advice_bits" r) with
        | Json.Bool false, Json.String a, Json.Int bits -> String.length a = bits
        | _ -> false)
    | None -> false
  in
  closed_window s
    ~request:(fun i -> Json.to_string (W.cold_request ~seed:!seed i))
    ~check

(* Set-up for elect-iso: one election per base, whose leader every
   renumbering must map to. *)
let iso_leaders s pool =
  let payloads =
    Array.map
      (fun (b : W.base) ->
        Json.to_string (W.request W.Elect ~task:b.W.task ~graph:(Json.String b.W.spec)))
      pool
  in
  let replies = exchange ~depth:1 s.conns payloads in
  let leaders =
    Array.map
      (fun reply ->
        match result_of (parse reply) with
        | Some r when field "verified" r = Json.Bool true -> (
            match field "leader" r with
            | Json.Int l -> l
            | _ -> failwith "elect-iso set-up: no leader")
        | _ -> failwith ("elect-iso set-up failed: " ^ reply))
      replies
  in
  (payloads, leaders)

let iso_window s pool leaders =
  let expected = Hashtbl.create 4096 in
  let request i =
    let iso = W.iso_request ~seed:!seed pool i in
    Hashtbl.replace expected i iso.W.perm.(leaders.(iso.W.base));
    Json.to_string iso.W.req
  in
  let check i payload =
    match result_of (parse payload) with
    | Some r ->
        field "verified" r = Json.Bool true
        && field "result_cached" r = Json.Bool false
        && field "leader" r = Json.Int (Hashtbl.find expected i)
    | None -> false
  in
  closed_window s ~request ~check

(* hot-zipf set-up: every working-set key computed once (advise and elect
   per topology, then verify on the elected outputs), the tier sized, and
   the daemon restarted on the same directory under a byte budget of
   1.5x the larger tier. *)
type hot_ref = { refs : (W.op * int, string) Hashtbl.t; outputs : Json.t array }

let hot_topo_request ?outputs op k =
  W.request ?outputs op ~task:(W.hot_task k)
    ~graph:(Json.String (W.hot_spec ~seed:!seed k))

let hot_populate ~name ~cache_dir =
  let capacity = [ "--cache-capacity"; string_of_int W.hot_capacity ] in
  let daemon, conns = boot ~name:(name ^ "a") ~cache_dir capacity in
  let w = W.hot_topologies in
  let op i = if i mod 2 = 0 then W.Advise else W.Elect in
  let first =
    Array.init (2 * w) (fun i -> Json.to_string (hot_topo_request (op i) (i / 2)))
  in
  let r1 = exchange conns first in
  let outputs =
    Array.init w (fun k ->
        match result_of (parse r1.((2 * k) + 1)) with
        | Some r when field "verified" r = Json.Bool true -> field "outputs" r
        | _ -> failwith ("hot-zipf set-up: election failed: " ^ r1.((2 * k) + 1)))
  in
  let second =
    Array.init w (fun k ->
        Json.to_string (hot_topo_request ~outputs:outputs.(k) W.Verify k))
  in
  let r2 = exchange conns second in
  let refs = Hashtbl.create (3 * w) in
  Array.iteri
    (fun i reply ->
      Hashtbl.replace refs (op i, i / 2) (strip reply))
    r1;
  Array.iteri
    (fun k reply ->
      (match result_of (parse reply) with
      | Some r when field "valid" r = Json.Bool true -> ()
      | _ -> failwith ("hot-zipf set-up: verify failed: " ^ reply));
      Hashtbl.replace refs (W.Verify, k) (strip reply))
    r2;
  Daemon_proc.stop daemon (List.hd conns) (List.tl conns);
  let tier = max (dir_bytes (Filename.concat cache_dir "advice"))
      (dir_bytes (Filename.concat cache_dir "results")) in
  let budget = tier * 3 / 2 in
  let daemon, conns =
    boot ~name:(name ^ "b") ~cache_dir
      (capacity @ [ "--cache-max-bytes"; string_of_int budget ])
  in
  ( { daemon; conns; budget = Some budget; setup_sent = Array.append first second },
    { refs; outputs } )

let hot_window s hot =
  let stream = W.hot_stream ~seed:!seed ~seconds:!seconds in
  let payload (h : W.hot) =
    let outputs = if h.W.op = W.Verify then Some hot.outputs.(h.W.topo) else None in
    Json.to_string (hot_topo_request ?outputs h.W.op h.W.topo)
  in
  let payloads = Array.map payload stream in
  let t0 = now_ns () + 20_000_000 in
  let schedule =
    Array.mapi (fun i (h : W.hot) -> (t0 + h.W.due_ns, i mod 2, payloads.(i))) stream
  in
  let got = ref [] and late = ref [] in
  Loadgen.open_loop s.conns ~schedule
    ~on_reply:(fun r -> got := r :: !got)
    ~on_late:(fun ns -> late := ms_of_ns ns :: !late);
  let last = List.fold_left (fun a r -> max a r.Loadgen.end_ns) t0 !got in
  let replies = Array.make (Array.length stream) None in
  List.iter (fun r -> replies.(r.Loadgen.idx) <- Some r) !got;
  let check (h : W.hot) payload =
    if h.W.topo < W.hot_topologies then
      Hashtbl.find_opt hot.refs (h.W.op, h.W.topo) = Some (strip payload)
    else
      (* a fresh topology, always an advise *)
      match result_of (parse payload) with
      | Some r -> (
          match (field "advice" r, field "advice_bits" r) with
          | Json.String a, Json.Int bits -> String.length a = bits
          | _ -> false)
      | None -> false
  in
  let exchanges =
    Array.mapi
      (fun i h -> exchange_of ~req:payloads.(i) ~check:(check h) replies.(i))
      stream
  in
  { exchanges; window_ns = last - t0; late_ms = !late }

(* One set-up of a serving workload, from a fresh cache directory to a
   daemon ready for the window. *)
type prepared = Cold | Iso of W.base array * int array | Hot of hot_ref

let setup_serving name k =
  let cache_dir = Filename.concat work (Printf.sprintf "cache-%d" k) in
  rm_rf cache_dir;
  let plain () =
    let daemon, conns = boot ~name:(Printf.sprintf "d%d" k) ~cache_dir [] in
    { daemon; conns; budget = None; setup_sent = [||] }
  in
  match name with
  | "cold-advise" -> (plain (), Cold)
  | "elect-iso" ->
      let s = plain () in
      let pool = W.iso_pool () in
      let sent, leaders = iso_leaders s pool in
      ({ s with setup_sent = sent }, Iso (pool, leaders))
  | _ ->
      let s, hot = hot_populate ~name:(Printf.sprintf "d%d" k) ~cache_dir in
      (s, Hot hot)

(* The in-process replay of a finished window, twice in lockstep: an
   untraced replica and a traced one, each on its own scratch tiers,
   alternating which answers a request first so neither runs warmer.
   Set-up traffic is replayed untraced.  Returns the traced replica, its
   replies, both replicas' summed handling times over the window, and the
   traced replica's cross-check counts over the window. *)
let replay_window ~name ~(s : running) (w : window) =
  let replica tag =
    let dir = Filename.concat work (name ^ "-replay-" ^ tag) in
    rm_rf dir;
    let capacity =
      if name = "hot-zipf" then W.hot_capacity
      else Shades_server.Service.default_cache_capacity
    in
    let r = Replay.create ~dir ~capacity () in
    Array.iteri (fun i p -> ignore (Replay.handle r ~req:(-1 - i) p)) s.setup_sent;
    (* hot-zipf's daemon restarted after set-up: fresh memory tiers over
       the populated directory, under the same budget *)
    if name = "hot-zipf" then
      Replay.create ~dir ~capacity ?max_bytes:s.budget ()
    else r
  in
  let plain = replica "u" and traced = replica "t" in
  let counts r =
    cross_counts (fun n -> float_of_int (Replay.counter (Replay.all_counters r) n))
  in
  let before = counts traced in
  Replay.start_tracing traced;
  let plain_ns = ref 0 and traced_ns = ref 0 in
  let timed r total ~req payload =
    let t0 = now_ns () in
    let reply = Replay.handle r ~req payload in
    total := !total + (now_ns () - t0);
    reply
  in
  let replies =
    Array.mapi
      (fun i e ->
        if i mod 2 = 0 then ignore (timed plain plain_ns ~req:i e.req);
        let reply = timed traced traced_ns ~req:i e.req in
        if i mod 2 = 1 then ignore (timed plain plain_ns ~req:i e.req);
        Json.to_string reply)
      w.exchanges
  in
  let counts =
    List.map2 (fun (n, a) (_, b) -> (n, a -. b)) (counts traced) before
  in
  (traced, replies, !plain_ns, !traced_ns, counts)

let write_trace ~name (r : Replay.t) table =
  mkdir_p trace_dir;
  Replay.write_spans r (Filename.concat trace_dir (name ^ ".spans.jsonl"));
  Out_channel.with_open_text (Filename.concat trace_dir (name ^ ".layers.txt"))
    (fun oc -> output_string oc table)

let table_text rows =
  let total = List.fold_left (fun a (_, _, ns) -> a + ns) 0 rows in
  String.concat ""
    (Printf.sprintf "%-16s %8s %12s %7s\n" "layer" "spans" "self_ms" "share"
    :: List.map
         (fun (l, n, ns) ->
           Printf.sprintf "%-16s %8d %12.3f %6.1f%%\n" l n (ms_of_ns ns)
             (100. *. ratio (float_of_int ns) (float_of_int total)))
         rows)

(* Per-layer metrics of a serving workload: daemon counters over the
   window, stage timings from the traced replay, and the replay's
   cross-checks against the daemon (replies and counts). *)
let serving_layers ~name ~s ~w ~before ~after =
  let lat = Array.to_list (Array.map (fun e -> e.lat_ms) w.exchanges) in
  let daemon = daemon_layers ~before ~after ~client_mean_ms:(Stats.mean lat) in
  let r, replies, plain_ns, traced_ns, counts = replay_window ~name ~s w in
  let mismatches = ref 0 in
  Array.iteri
    (fun i e ->
      let op =
        match Json.member "op" (parse e.req) with Some (Json.String o) -> o | _ -> ""
      in
      if e.reply = "" || semantic op (parse e.reply) <> semantic op (parse replies.(i))
      then incr mismatches)
    w.exchanges;
  let daemon_counts =
    cross_counts (fun n -> num after n "value" -. num before n "value")
  in
  let count_drift =
    List.filter
      (fun ((n, a), (_, b)) ->
        let off = Float.abs (a -. b) > Float.max 2. (0.02 *. Float.max a b) in
        if off then Printf.eprintf "%s: replay %s %.0f, daemon %.0f\n" name n a b;
        off)
      (List.combine counts daemon_counts)
  in
  if !mismatches > 0 then
    Printf.eprintf "%s: %d replayed replies differ from the daemon's\n" name
      !mismatches;
  (* median span duration over the named stages, in [unit_ns] *)
  let p50 ?tier names unit_ns =
    Stats.median (List.concat_map (Replay.durations ?tier r) names) /. unit_ns
  in
  let us name = p50 [ name ] 1e3 in
  let y = r.Replay.tally in
  let bits task =
    Stats.mean
      (List.filter_map
         (fun (t, b) -> if t = task then Some (float_of_int b) else None)
         y.Replay.advice_bits)
  in
  let oracle task = p50 [ "oracle." ^ Replay.task_name task ] 1e6 in
  let rows = Replay.layer_table r in
  let self_ns l =
    List.fold_left (fun a (l', _, ns) -> if l' = l then a + ns else a) 0 rows
  in
  let total = List.fold_left (fun a (_, _, ns) -> a + ns) 0 rows in
  let share l = ("share." ^ l, ratio (float_of_int (self_ns l)) (float_of_int total)) in
  let text = table_text rows in
  print_string text;
  write_trace ~name r text;
  let mean_bytes l = Stats.mean (List.map float_of_int l) in
  let fails =
    Array.fold_left (fun a e -> if e.ok then a else a + 1) 0 w.exchanges
  in
  let layers =
    daemon
    @ [
        ("protocol.encode_us_p50", us "protocol.encode");
        ("protocol.decode_us_p50", us "protocol.decode");
        ("protocol.req_bytes_mean", mean_bytes y.Replay.req_bytes);
        ("protocol.reply_bytes_mean", mean_bytes y.Replay.reply_bytes);
        ("graph_decode.us_p50", us "graph_decode");
        ("encoding_digest.us_p50", us "encoding_digest");
        ("canon.us_p50", p50 [ "canon.digest"; "canon.canonical" ] 1e3);
        ("cache.disk_read_us_p50",
         p50 ~tier:"disk" [ "cache.advice_cache.find"; "cache.result_cache.find" ] 1e3);
        ("cache.disk_write_us_p50",
         p50 [ "cache.advice_cache.put"; "cache.result_cache.put" ] 1e3);
        ("oracle.s.ms_p50", oracle Task.S); ("oracle.pe.ms_p50", oracle Task.PE);
        ("oracle.ppe.ms_p50", oracle Task.PPE); ("oracle.cppe.ms_p50", oracle Task.CPPE);
        ("oracle.s.advice_bits_mean", bits Task.S);
        ("oracle.pe.advice_bits_mean", bits Task.PE);
        ("oracle.ppe.advice_bits_mean", bits Task.PPE);
        ("oracle.cppe.advice_bits_mean", bits Task.CPPE);
        ("engine.ms_p50", p50 [ "engine" ] 1e6);
        ("engine.round_ms_p50", Stats.median y.Replay.round_ms);
        ("engine.rounds_total", float_of_int y.Replay.rounds_total);
        ("engine.messages_total", float_of_int y.Replay.messages_total);
        ("verify.us_p50", us "verify");
        share "protocol"; share "graph_decode"; share "encoding_digest"; share "cache";
        share "canon"; share "oracle"; share "engine"; share "verify"; share "service";
        ("gen.late_ms_p99", Stats.quantile w.late_ms 0.99);
        ("trace.overhead_ratio",
         ratio (float_of_int traced_ns) (float_of_int plain_ns));
      ]
    (* the open loop's latency limit: a failed request misses it too *)
    @
    if name <> "hot-zipf" then []
    else
      let missed =
        Array.fold_left
          (fun a e -> if (not e.ok) || e.lat_ms > W.hot_slo_ms then a + 1 else a)
          0 w.exchanges
      in
      [ ("slo_miss_ratio",
         ratio (float_of_int missed) (float_of_int (Array.length w.exchanges))) ]
  in
  (fails + !mismatches, count_drift = [], layers)

let serving name =
  let traced = !trace = 1 in
  let rounds = if traced then 1 else setups in
  let durations = ref [] in
  let rec prepare k =
    let t0 = now_ns () in
    let s, p = setup_serving name k in
    durations := secs_of_ns (now_ns () - t0) :: !durations;
    if k + 1 < rounds then begin
      stop s;
      prepare (k + 1)
    end
    else (s, p)
  in
  let s, p = prepare 0 in
  let c0 = List.hd s.conns in
  let before = Daemon_proc.counters c0 in
  let w =
    match p with
    | Cold -> cold_window s
    | Iso (pool, leaders) -> iso_window s pool leaders
    | Hot hot -> hot_window s hot
  in
  let after = Daemon_proc.counters c0 in
  let rss_mb = Daemon_proc.peak_rss_mb s.daemon.Daemon_proc.pid in
  stop s;
  let attempted = Array.length w.exchanges in
  let ok = Array.fold_left (fun a e -> if e.ok then a + 1 else a) 0 w.exchanges in
  (* cold-advise: every request must have run the oracle *)
  let computes_ok =
    name <> "cold-advise"
    || num after "advise_computes" "value" -. num before "advise_computes" "value"
       = float_of_int attempted
  in
  if traced then begin
    let failed, counts_ok, known = serving_layers ~name ~s ~w ~before ~after in
    { attempted; failed; correct = failed = 0 && counts_ok && computes_ok;
      metrics = layer_metrics known }
  end
  else
    {
      attempted;
      failed = attempted - ok;
      correct = ok = attempted && computes_ok;
      metrics =
        end_to_end ~setup_s:(Stats.median !durations)
          ~lat_ms:(Array.to_list (Array.map (fun e -> e.lat_ms) w.exchanges))
          ~throughput:(float_of_int ok /. secs_of_ns w.window_ns)
          ~rss_mb;
    }

(* --- sweep-all --- *)

let sweep () =
  let traced = !trace = 1 in
  let durations = ref [] and prepared = ref None in
  for _ = 1 to if traced then 1 else setups do
    let t0 = now_ns () in
    prepared := Some (Sweep_all.setup ~seed:!seed);
    durations := secs_of_ns (now_ns () - t0) :: !durations
  done;
  let base, jobs = Option.get !prepared in
  let path = Filename.concat work "sweep-store.json" in
  let deadline = now_ns () + int_of_float (!seconds *. 1e9) in
  let rec grids acc =
    if acc <> [] && now_ns () >= deadline then List.rev acc
    else grids (Sweep_all.run_grid ~jobs ~path :: acc)
  in
  let grids = grids [] in
  let first = (List.hd grids).Sweep_all.records in
  let failed = List.fold_left (fun a g -> a + Sweep_all.check ~base ~first g) 0 grids in
  let attempted =
    List.fold_left (fun a g -> a + List.length g.Sweep_all.records) 0 grids
  in
  let metrics =
    if traced then begin
      (* the per-layer numbers of the median grid *)
      let g =
        List.nth
          (List.sort (fun a b -> compare a.Sweep_all.grid_ns b.Sweep_all.grid_ns) grids)
          (List.length grids / 2)
      in
      let busy fam =
        List.fold_left
          (fun a s ->
            if fam = "" || s.Sweep_all.fam = fam then a +. Sweep_all.job_s s else a)
          0. g.Sweep_all.spans
      in
      let grid_s = secs_of_ns g.Sweep_all.grid_ns in
      mkdir_p trace_dir;
      Sweep_all.write_spans grids (Filename.concat trace_dir "sweep-all.spans.jsonl");
      layer_metrics
        [
          ("sweep.jobs", float_of_int (List.length g.Sweep_all.records));
          ("sweep.grid_s", grid_s);
          ("sweep.busy_s", busy "");
          ("sweep.busy_s.g", busy "g");
          ("sweep.busy_s.u", busy "u");
          ("sweep.busy_s.j", busy "j");
          ("sweep.longest_job_s",
           List.fold_left
             (fun a s -> Float.max a (Sweep_all.job_s s))
             0. g.Sweep_all.spans);
          ("sweep.pool_util", busy "" /. (2. *. grid_s));
          ("sweep.store_ms", ms_of_ns g.Sweep_all.store_ns);
        ]
    end
    else
      (* a sweep's requests are its jobs, each answered when its record
         is ready: latency counts from the start of the job's grid *)
      let busy_s =
        List.fold_left (fun a g -> a +. secs_of_ns g.Sweep_all.grid_ns) 0. grids
      in
      end_to_end ~setup_s:(Stats.median !durations)
        ~lat_ms:(List.concat_map Sweep_all.completions_ms grids)
        ~throughput:(float_of_int attempted /. busy_s)
        ~rss_mb:(Daemon_proc.peak_rss_mb 0)
  in
  { attempted; failed; correct = failed = 0; metrics }

(* --- reporting --- *)

let commit () =
  let read path = String.trim (In_channel.with_open_text path In_channel.input_all) in
  match read ".git/HEAD" with
  | head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      try read (Filename.concat ".git" ref_) with Sys_error _ -> "unknown")
  | head -> head
  | exception Sys_error _ -> "unknown"

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit_, value) ->
               ( name,
                 Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ] ))
             r.metrics) );
    ]

(* [--repeat K]: every metric's median and quartiles over K runs; the
   result line carries the medians. *)
let summarize runs =
  let first = List.hd runs in
  let metrics =
    List.map
      (fun (name, unit_, _) ->
        let value r =
          let _, _, v = List.find (fun (n, _, _) -> n = name) r.metrics in
          v
        in
        let values = List.map value runs in
        let q1, q3 = Stats.quartiles values in
        let med = Stats.median values in
        Printf.printf "%-24s %12.4f %-5s IQR %5.1f%%  runs: %s\n" name med unit_
          (100. *. ratio (q3 -. q1) med)
          (String.concat " " (List.map (Printf.sprintf "%.4g") values));
        (name, unit_, med))
      first.metrics
  in
  {
    attempted = List.fold_left (fun a r -> a + r.attempted) 0 runs;
    failed = List.fold_left (fun a r -> a + r.failed) 0 runs;
    correct = List.for_all (fun r -> r.correct) runs;
    metrics;
  }

let run_workload name =
  Printf.printf
    "# shades_bench workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s \
     commit=%s inputs=%s\n%!"
    name !seed !seconds !trace (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ())
    (W.stream_digest ~seed:!seed ~count:50);
  mkdir_p work;
  let once () = if name = "sweep-all" then sweep () else serving name in
  let runs = List.init !repeat (fun _ -> once ()) in
  let r = if !repeat = 1 then List.hd runs else summarize runs in
  if not r.correct then
    Printf.eprintf "%s: FAILED checks (%d of %d failed)\n%!" name r.failed r.attempted;
  let line = Json.to_string (result_json r) in
  if !json_out <> "" then
    Out_channel.with_open_text !json_out (fun oc -> output_string oc (line ^ "\n"));
  print_endline line

let () =
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " workloads ^ " (default: all)" );
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured window per run (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced replay");
      ("--repeat", Arg.Set_int repeat, "K runs, reporting median and IQR (default 1)");
      ("--json", Arg.Set_string json_out, "OUT also write the result line to OUT");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !workload <> "" && not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 || !repeat < 1 || !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end;
  at_exit (fun () ->
      Daemon_proc.kill_all ();
      rm_rf work);
  (* an interrupted run still stops its daemons and clears its scratch *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let selected = if !workload = "" then workloads else [ !workload ] in
  match List.iter run_workload selected with
  | () -> ()
  | exception e ->
      Printf.eprintf "shades_bench: %s\n" (Printexc.to_string e);
      exit 1
