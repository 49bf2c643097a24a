module Metrics = Shades_runtime.Metrics

(* Prometheus metric names: [a-zA-Z0-9_:] only, so internal names like
   "op_verify-trace" sanitize their hyphens away. *)
let sanitize name =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
    name

(* HELP strings for the documented series (the DESIGN §13 table);
   anything else gets a generic line so the exposition stays valid. *)
let help_of_name name =
  let table =
    [
      ("shades_uptime_seconds", "Seconds since the service was created.");
      ("shades_requests_total", "JSONL frames handled (a batch frame counts once).");
      ("shades_batch_items_total", "Requests carried inside batch frames.");
      ("shades_connections_total", "Accepted JSONL connections.");
      ("shades_http_requests_total", "HTTP requests accepted on the metrics plane.");
      ("shades_advise_computes_total", "Oracle runs (advice actually computed).");
      ("shades_elect_computes_total", "Engine runs (elections actually executed).");
      ("shades_verify_computes_total", "Referee runs (verdicts actually evaluated).");
      ("shades_computes_avoided_total",
       "Requests answered from a cache tier instead of computing.");
      ("shades_advice_cache_hits_total", "Advice-cache memory hits.");
      ("shades_advice_cache_misses_total", "Advice-cache misses (both tiers).");
      ("shades_advice_cache_evictions_total", "Advice-cache LRU evictions (memory only).");
      ("shades_advice_cache_disk_hits_total", "Advice-cache disk-tier hits.");
      ("shades_advice_cache_disk_writes_total", "Advice-cache disk-tier writes.");
      ("shades_advice_cache_disk_invalid_total",
       "Advice-cache disk files unreadable or corrupt (served as misses).");
      ("shades_advice_cache_disk_errors_total",
       "Advice-cache disk writes that failed (entry kept in memory only).");
      ("shades_advice_cache_disk_evictions_total",
       "Advice-cache files deleted to keep the tier within --cache-max-bytes.");
      ("shades_advice_cache_disk_orphans_total",
       "Advice-cache temp files of dead writers removed by a directory scan.");
      ("shades_advice_cache_disk_bytes",
       "Advice-cache tier bytes on disk, as the budget ledger counts them.");
      ("shades_advice_cache_entries", "Advice-cache memory entries.");
      ("shades_advice_cache_capacity", "Advice-cache memory capacity.");
      ("shades_result_cache_hits_total", "Result-cache memory hits.");
      ("shades_result_cache_misses_total", "Result-cache misses (both tiers).");
      ("shades_result_cache_evictions_total", "Result-cache LRU evictions (memory only).");
      ("shades_result_cache_disk_hits_total", "Result-cache disk-tier hits.");
      ("shades_result_cache_disk_writes_total", "Result-cache disk-tier writes.");
      ("shades_result_cache_disk_invalid_total",
       "Result-cache disk files unreadable or corrupt (served as misses).");
      ("shades_result_cache_disk_errors_total",
       "Result-cache disk writes that failed (entry kept in memory only).");
      ("shades_result_cache_disk_evictions_total",
       "Result-cache files deleted to keep the tier within --cache-max-bytes.");
      ("shades_result_cache_disk_orphans_total",
       "Result-cache temp files of dead writers removed by a directory scan.");
      ("shades_result_cache_disk_bytes",
       "Result-cache tier bytes on disk, as the budget ledger counts them.");
      ("shades_result_cache_entries", "Result-cache memory entries.");
      ("shades_result_cache_capacity", "Result-cache memory capacity.");
      ("shades_memo_hits_total", "Encoding-digest memo hits.");
      ("shades_memo_misses_total", "Encoding-digest memo misses.");
      ("shades_memo_entries", "Encoding-digest memo entries.");
      ("shades_memo_capacity", "Encoding-digest memo capacity.");
      ("shades_http_connections_total",
       "Accepted HTTP connections on the metrics plane.");
      ("shades_http_healthz_total", "GET /healthz requests answered.");
      ("shades_http_not_found_total", "HTTP requests for unknown paths.");
      ("shades_http_bad_request_total",
       "Malformed or non-GET HTTP requests.");
      ("shades_http_metrics_requests_total", "GET /metrics renders.");
      ("shades_http_metrics_seconds_total",
       "Seconds spent rendering GET /metrics.");
      ("shades_canonicalize_requests_total",
       "Graph canonicalizations performed (memo misses).");
      ("shades_canonicalize_seconds_total",
       "Seconds spent canonicalizing graphs.");
    ]
  in
  match List.assoc_opt name table with
  | Some help -> help
  | None -> (
      (* per-op timings are a family: derive their help instead of
         enumerating every op *)
      let op_prefix = "shades_op_" in
      let strip_suffix s suffix =
        if String.ends_with ~suffix s then
          Some (String.sub s 0 (String.length s - String.length suffix))
        else None
      in
      if String.starts_with ~prefix:op_prefix name then
        let rest =
          String.sub name (String.length op_prefix)
            (String.length name - String.length op_prefix)
        in
        match strip_suffix rest "_requests_total" with
        | Some op -> Printf.sprintf "Frames answered for op %s." op
        | None -> (
            match strip_suffix rest "_seconds_total" with
            | Some op -> Printf.sprintf "Seconds spent answering op %s." op
            | None -> "shades internal metric " ^ name)
      else "shades internal metric " ^ name)

let series buf ~typ name value =
  Buffer.add_string buf
    (Printf.sprintf "# HELP %s %s\n# TYPE %s %s\n%s %s\n" name
       (help_of_name name) name typ name value)

let float_repr f =
  (* %.9g keeps counters integral-looking and sums precise enough *)
  Printf.sprintf "%.9g" f

let render_metrics service =
  let buf = Buffer.create 4096 in
  series buf ~typ:"gauge" "shades_uptime_seconds"
    (float_repr (Service.uptime_seconds service));
  List.iter
    (fun (name, value) ->
      let base = "shades_" ^ sanitize name in
      match value with
      | Metrics.Counter n ->
          series buf ~typ:"counter" (base ^ "_total") (string_of_int n)
      | Metrics.Gauge g -> series buf ~typ:"gauge" base (float_repr g)
      | Metrics.Timing { count; total_ns } ->
          (* one timing becomes the per-endpoint pair: how many and how
             long — e.g. op_advise -> shades_op_advise_requests_total +
             shades_op_advise_seconds_total *)
          series buf ~typ:"counter" (base ^ "_requests_total")
            (string_of_int count);
          series buf ~typ:"counter" (base ^ "_seconds_total")
            (float_repr (float_of_int total_ns /. 1e9))
      | Metrics.Histogram h ->
          series buf ~typ:"gauge" (base ^ "_count")
            (string_of_int h.Metrics.count);
          series buf ~typ:"gauge" (base ^ "_sum") (float_repr h.Metrics.sum))
    (Metrics.snapshot (Service.metrics service));
  Buffer.contents buf

(* --- the listener side --- *)

let status_line = function
  | 200 -> "200 OK"
  | 404 -> "404 Not Found"
  | 405 -> "405 Method Not Allowed"
  | _ -> "400 Bad Request"

let respond oc ~status ~content_type body =
  output_string oc
    (Printf.sprintf
       "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
        close\r\n\r\n"
       (status_line status) content_type (String.length body));
  output_string oc body;
  flush oc

let trim_cr line =
  if String.length line > 0 && line.[String.length line - 1] = '\r' then
    String.sub line 0 (String.length line - 1)
  else line

(* drain headers until the blank line; we never need their contents *)
let rec drain_headers ic =
  match input_line ic with
  | exception End_of_file -> ()
  | line -> if trim_cr line = "" then () else drain_headers ic

let handle ?(log = fun _ -> ()) service fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let metrics = Service.metrics service in
  let serve () =
    match input_line ic with
    | exception End_of_file -> ()
    | request_line -> (
        Metrics.incr metrics "http_requests";
        let request_line = trim_cr request_line in
        drain_headers ic;
        match String.split_on_char ' ' request_line with
        | [ "GET"; target; _version ] -> (
            (* strip any query string: /metrics?x=y routes like /metrics *)
            let path =
              match String.index_opt target '?' with
              | Some i -> String.sub target 0 i
              | None -> target
            in
            match path with
            | "/metrics" ->
                let body =
                  Metrics.time metrics "http_metrics" (fun () ->
                      render_metrics service)
                in
                respond oc ~status:200
                  ~content_type:"text/plain; version=0.0.4; charset=utf-8" body
            | "/healthz" ->
                Metrics.incr metrics "http_healthz";
                respond oc ~status:200 ~content_type:"text/plain" "ok\n"
            | _ ->
                Metrics.incr metrics "http_not_found";
                respond oc ~status:404 ~content_type:"text/plain"
                  "not found (try /metrics or /healthz)\n")
        | _ :: _ :: _ ->
            Metrics.incr metrics "http_bad_request";
            respond oc ~status:405 ~content_type:"text/plain"
              "only GET is served here\n"
        | _ ->
            Metrics.incr metrics "http_bad_request";
            respond oc ~status:400 ~content_type:"text/plain"
              "malformed request line\n")
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try serve () with
      | Unix.Unix_error (e, _, _) ->
          log ("http connection error: " ^ Unix.error_message e)
      | Sys_error e -> log ("http connection error: " ^ e))
