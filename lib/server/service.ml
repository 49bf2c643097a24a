module Json = Shades_json.Json
module Port_graph = Shades_graph.Port_graph
module Bitstring = Shades_bits.Bitstring
module Task = Shades_election.Task
module Scheme = Shades_election.Scheme
module Shade = Shades_election.Shade
module Metrics = Shades_runtime.Metrics
module Store = Shades_runtime.Store
module Trace = Shades_trace.Trace
module Codec = Shades_trace.Codec
module Replay = Shades_trace.Replay
module Exec = Shades_localsim.Exec

(* Versions folded into the cache keys — defined once in
   [Shades_versions.Versions] (bump [advice] whenever any scheme's
   oracle output changes for a fixed graph, [result] whenever an
   engine's execution, a verifier's semantics, or the stored result
   JSON shape changes; cached elect/verify results are replayed
   verbatim as replies, so their format is part of the contract).  The
   key grammar lives there too: shadescheck's version-drift rule
   rejects any re-derivation outside the registry. *)
module Versions = Shades_versions.Versions

let advice_version = Versions.advice
let result_version = Versions.result

let default_cache_capacity = 256

let cache_key ~digest ~task =
  Versions.advice_key ~digest ~task:(Task.kind_to_string task)

let elect_key ~digest ~task ~engine =
  Versions.elect_key ~digest ~task:(Task.kind_to_string task) ~engine

let verify_key ~digest ~task ~outputs_digest =
  Versions.verify_key ~digest ~task:(Task.kind_to_string task) ~outputs_digest

type advice_entry = { advice : Bitstring.t; rounds : int }

type t = {
  metrics : Metrics.t;
  advice : advice_entry Cache.t;
  results : Json.t Cache.t;
  memo : string Cache.t;
  cache_dir : string option;
  started_ns : int;
  mutable parallel : ((unit -> unit) array -> unit) option;
      (** batch fan-out, installed by the daemon (a crew's [run_all]);
          [None] executes batch items sequentially *)
}

(* --- disk-tier codecs ---

   Values are stored as the same JSON dialect the wire speaks, so a
   cache directory is inspectable with standard tools.  Decoders are
   total: any unreadable file is an [Error] (counted by the cache as
   [disk_invalid]) and behaves as a miss. *)

let advice_persist ?max_bytes dir =
  {
    Cache.max_bytes;
    dir = Filename.concat dir "advice";
    encode =
      (fun { advice; rounds } ->
        Json.to_string
          (Json.Obj
             [
               ("advice", Json.String (Bitstring.to_string advice));
               ("rounds", Json.Int rounds);
             ]));
    decode =
      (fun data ->
        match Json.of_string data with
        | Error e -> Error e
        | Ok j -> (
            match (Json.member "advice" j, Json.member "rounds" j) with
            | Some (Json.String bits), Some (Json.Int rounds) -> (
                match Bitstring.of_string bits with
                | advice -> Ok { advice; rounds }
                | exception Invalid_argument e -> Error e)
            | _ -> Error "advice entry needs \"advice\" and \"rounds\""));
  }

let result_persist ?max_bytes dir =
  {
    Cache.max_bytes;
    dir = Filename.concat dir "results";
    encode = Json.to_string;
    decode = Json.of_string;
  }

let create ?(cache_capacity = default_cache_capacity) ?cache_dir
    ?cache_max_bytes () =
  let metrics = Metrics.create () in
  (* the byte budget bounds each tier directory independently *)
  let persist mk = Option.map (mk ?max_bytes:cache_max_bytes) cache_dir in
  {
    metrics;
    advice =
      Cache.create ~name:"advice_cache" ?persist:(persist advice_persist)
        ~capacity:cache_capacity ~metrics ();
    results =
      Cache.create ~name:"result_cache" ?persist:(persist result_persist)
        ~capacity:cache_capacity ~metrics ();
    memo = Cache.create ~name:"memo" ~capacity:(max cache_capacity 1024) ~metrics ();
    cache_dir;
    started_ns = Metrics.now_ns ();
    parallel = None;
  }

let metrics t = t.metrics
let cache_dir t = t.cache_dir
let set_parallel t parallel = t.parallel <- parallel

let uptime_seconds t =
  float_of_int (Metrics.now_ns () - t.started_ns) /. 1e9

(* --- the advice cache --- *)

(* [encoding] is the digest of the submitted (non-canonical) encoding
   ([Port_graph.encoding_digest], computed once per request).  It is the
   memo index in front of the canonical content address (repeated
   queries on byte-identical topologies skip even canonicalization) and
   the representation-bound half of the elect/verify result keys:
   advice is isomorphism-invariant, but per-node outputs are indexed by
   the vertices of the graph as submitted, so full results must never
   be shared between isomorphic renumberings.

   Returns the canonical digest of [g], plus the canonical graph when
   this call had to compute it (a memo miss), so that an advice miss
   right after does not canonicalize a second time. *)
let canonical_digest t ~encoding g =
  match Cache.find t.memo encoding with
  | Some digest -> (digest, None)
  | None ->
      let canon =
        Metrics.time t.metrics "canonicalize" (fun () ->
            fst (Port_graph.canonical g))
      in
      let digest = Port_graph.encoding_digest canon in
      Cache.put t.memo encoding digest;
      (digest, Some canon)

(* [advise_entry] is the one path to cached advice: every endpoint that
   needs advice funnels through it, so hit/miss/compute counters tell
   one coherent story. *)
let advise_entry t ~encoding g task =
  let digest, canon = canonical_digest t ~encoding g in
  let key = cache_key ~digest ~task in
  let (Shade.Shade { scheme; _ }) = Shade.min_time task in
  let entry, hit =
    Cache.find_or_compute t.advice key ~compute:(fun () ->
        Metrics.incr t.metrics "advise_computes";
        let canon =
          match canon with
          | Some canon -> canon
          | None ->
              (* memo hit, advice evicted *)
              Metrics.time t.metrics "canonicalize" (fun () ->
                  fst (Port_graph.canonical g))
        in
        let advice =
          Metrics.time t.metrics "oracle" (fun () -> scheme.Scheme.oracle canon)
        in
        let rounds =
          scheme.Scheme.rounds_of ~advice ~degree:(Port_graph.max_degree canon)
        in
        { advice; rounds })
  in
  (digest, entry, hit)

(* --- request plumbing --- *)

let error = Protocol.error_response

let member_exn what req =
  match Json.member what req with
  | Some v -> v
  | None -> failwith (Printf.sprintf "request needs a %S member" what)

let graph_exn req =
  match Protocol.graph_of_json (member_exn "graph" req) with
  | Ok g -> g
  | Error e -> failwith ("bad graph: " ^ e)

let task_exn req =
  match member_exn "task" req with
  | Json.String s -> (
      match Protocol.task_of_string s with
      | Ok k -> k
      | Error e -> failwith e)
  | _ -> failwith "\"task\" must be a string (s, pe, ppe, cppe)"

let graph_info g =
  Json.Obj
    [
      ("order", Json.Int (Port_graph.order g));
      ("size", Json.Int (Port_graph.size g));
      ("max_degree", Json.Int (Port_graph.max_degree g));
    ]

(* replace an existing member in place (order preserved) / append one *)
let with_member name value = function
  | Json.Obj members ->
      Json.Obj
        (List.map (fun (n, v) -> if n = name then (n, value) else (n, v)) members)
  | j -> j

let append_member name value = function
  | Json.Obj members -> Json.Obj (members @ [ (name, value) ])
  | j -> j

(* --- endpoints --- *)

let advise t req =
  let g = graph_exn req in
  let task = task_exn req in
  let digest, entry, cached =
    advise_entry t ~encoding:(Port_graph.encoding_digest g) g task
  in
  if cached then Metrics.incr t.metrics "computes_avoided";
  Protocol.ok_response ~op:"advise"
    (Json.Obj
       [
         ("digest", Json.String digest);
         ("task", Json.String (Task.kind_to_string task));
         ("advice", Json.String (Bitstring.to_string entry.advice));
         ("advice_bits", Json.Int (Bitstring.length entry.advice));
         ("rounds", Json.Int entry.rounds);
         ("cached", Json.Bool cached);
         ("graph", graph_info g);
       ])

let elect t req =
  let g = graph_exn req in
  let task = task_exn req in
  (* "sharded" is the synchronous engine executed vertex-sharded across
     worker domains — same results, telemetry and traces, so it shares
     the sync path (cached advice included) and only the executor
     differs.  "async" is a semantic variant with its own path.

     The result key: every engine is deterministic (async per seed), so
     the whole reply is a pure function of (submitted encoding, task,
     engine, versions) and can be served from the result cache without
     touching oracle or engine.  The sharded engine is observationally
     identical to sync at any domain count, but echoes a different
     engine name, so it gets its own key ({!Spec.engine}). *)
  let int_member name ~what =
    match Json.member name req with
    | None -> None
    | Some (Json.Int i) -> Some i
    | Some _ -> failwith (Printf.sprintf "%S must be %s" name what)
  in
  let { Spec.exec; name = engine_name; key = result_engine } =
    match
      Spec.engine
        ?domains:(int_member "domains" ~what:"a positive integer")
        ~seed:(Option.value ~default:0 (int_member "seed" ~what:"an integer"))
        (match Json.member "engine" req with
        | None -> "sync"
        | Some (Json.String e) -> e
        | Some _ -> "" (* not a name: Spec's unknown-engine error *))
    with
    | Ok e -> e
    | Error e -> failwith e
  in
  let encoding = Port_graph.encoding_digest g in
  let key = elect_key ~digest:encoding ~task ~engine:result_engine in
  let result, result_cached =
    Cache.find_or_compute t.results key ~compute:(fun () ->
        Metrics.incr t.metrics "elect_computes";
        let (Shade.Shade { scheme; verify; to_json; _ }) = Shade.min_time task in
        let digest, run, cached =
          match exec.Exec.timing with
          | Async _ ->
              (* the α-synchronizer path exercises the full scheme (oracle
                 included) — it pins schedules, not advice reuse *)
              let digest, _ = canonical_digest t ~encoding g in
              let run =
                Metrics.time t.metrics "elect" (fun () -> Scheme.run ~exec scheme g)
              in
              (digest, run, false)
          | Sequential | Sharded _ ->
              (* the sync path reuses the cached advice end-to-end: a warm
                 election never recomputes the oracle *)
              let digest, entry, cached = advise_entry t ~encoding g task in
              let run =
                Metrics.time t.metrics "elect" (fun () ->
                    Scheme.run_with_advice ~exec scheme g ~advice:entry.advice)
              in
              (digest, run, cached)
        in
        let verdict = verify g run.Scheme.outputs in
        Json.Obj
          [
            ("digest", Json.String digest);
            ("task", Json.String (Task.kind_to_string task));
            ("engine", Json.String engine_name);
            ("rounds", Json.Int run.Scheme.rounds);
            ("messages", Json.Int run.Scheme.messages);
            ("advice_bits", Json.Int run.Scheme.advice_bits);
            ("cached", Json.Bool cached);
            ("verified", Json.Bool (Result.is_ok verdict));
            ("leader",
             match verdict with Ok l -> Json.Int l | Error _ -> Json.Null);
            ("outputs",
             Json.List
               (Array.to_list (Array.map to_json run.Scheme.outputs)));
            ("graph", graph_info g);
          ])
  in
  if result_cached then Metrics.incr t.metrics "computes_avoided";
  (* a stored result carries the advice-cache verdict of its compute
     time; a full-result hit ran nothing at all, so [cached] is
     overridden — and [result_cached] (never stored) says which tier
     answered *)
  let result =
    if result_cached then with_member "cached" (Json.Bool true) result
    else result
  in
  Protocol.ok_response ~op:"elect"
    (append_member "result_cached" (Json.Bool result_cached) result)

let verify_outputs t req =
  let g = graph_exn req in
  let task = task_exn req in
  let outputs_json = member_exn "outputs" req in
  (* keyed on the re-rendered parse tree, so two spellings of the same
     JSON (whitespace, escapes) share an entry *)
  let outputs_digest = Digest.to_hex (Digest.string (Json.to_string outputs_json)) in
  let encoding = Port_graph.encoding_digest g in
  let key = verify_key ~digest:encoding ~task ~outputs_digest in
  let result, cached =
    Cache.find_or_compute t.results key ~compute:(fun () ->
        Metrics.incr t.metrics "verify_computes";
        let (Shade.Shade { verify; of_json; _ }) = Shade.min_time task in
        let outputs =
          match outputs_json with
          | Json.List l ->
              List.map
                (fun j ->
                  match of_json j with
                  | Ok a -> a
                  | Error e -> failwith ("bad output: " ^ e))
                l
          | _ -> failwith "\"outputs\" must be a list (one answer per vertex)"
        in
        if List.length outputs <> Port_graph.order g then
          failwith
            (Printf.sprintf "expected %d outputs, got %d" (Port_graph.order g)
               (List.length outputs));
        let verdict =
          Metrics.time t.metrics "verify" (fun () ->
              verify g (Array.of_list outputs))
        in
        let digest, _ = canonical_digest t ~encoding g in
        Json.Obj
          ([
             ("digest", Json.String digest);
             ("task", Json.String (Task.kind_to_string task));
             ("valid", Json.Bool (Result.is_ok verdict));
           ]
          @
          match verdict with
          | Ok leader -> [ ("leader", Json.Int leader) ]
          | Error reason -> [ ("reason", Json.String reason) ]))
  in
  if cached then Metrics.incr t.metrics "computes_avoided";
  Protocol.ok_response ~op:"verify"
    (append_member "cached" (Json.Bool cached) result)

(* The incremental path (cf. Belenios's verify-diff): the client
   uploads a full SHTR recording and the server re-executes it through
   the deterministic engines, failing on the first divergent event.
   Deliberately uncached: the blob-sized key would bloat the store and
   repeat uploads are rare. *)
let verify_trace t req =
  let blob =
    match member_exn "trace" req with
    | Json.String hex -> (
        match Protocol.hex_decode hex with
        | Ok blob -> blob
        | Error e -> failwith ("bad trace hex: " ^ e))
    | _ -> failwith "\"trace\" must be a hex string of a shades trace (.shtr) file"
  in
  let trace =
    match Codec.decode blob with
    | Ok tr -> tr
    | Error e -> failwith ("bad trace: " ^ e)
  in
  let label = trace.Trace.meta.Trace.label in
  let task, spec =
    match Spec.parse_trace_label label with
    | Ok parsed -> parsed
    | Error e -> failwith e
  in
  let g = Spec.parse_exn spec in
  let exec = Shade.trace_exec task ~engine:trace.Trace.meta.Trace.engine g in
  let outcome = Metrics.time t.metrics "replay" (fun () -> Replay.run trace exec) in
  Protocol.ok_response ~op:"verify-trace"
    (Json.Obj
       ([
          ("label", Json.String label);
          ("engine",
           Json.String (Trace.engine_to_string trace.Trace.meta.Trace.engine));
          ("events", Json.Int (Array.length trace.Trace.events));
          ("valid", Json.Bool (Result.is_ok outcome));
        ]
       @
       match outcome with
       | Ok () -> []
       | Error d -> [ ("divergence", Json.String (Replay.pp_divergence d)) ]))

let cache_json name (c : _ Cache.t) =
  ( name,
    Json.Obj
      [
        ("capacity", Json.Int (Cache.capacity c));
        ("entries", Json.Int (Cache.entries c));
        ("persistent", Json.Bool (Cache.persistent c));
      ] )

let stats_json t =
  Json.Obj
    [
      ("protocol", Json.Int Protocol.version);
      ("advice_version", Json.Int advice_version);
      ("result_version", Json.Int result_version);
      ("uptime_seconds", Json.Float (uptime_seconds t));
      ("cache_dir",
       match t.cache_dir with Some d -> Json.String d | None -> Json.Null);
      cache_json "cache" t.advice;
      cache_json "result_cache" t.results;
      ("counters",
       Json.Obj
         (List.map
            (fun (name, v) -> (name, Store.json_of_metric v))
            (Metrics.snapshot t.metrics)));
    ]

let stats t = Protocol.ok_response ~op:"stats" (stats_json t)

(* --- dispatch --- *)

type reaction = Reply of Json.t | Reply_and_stop of Json.t

(* one non-shutdown, non-batch op -> one reply; total *)
let dispatch t op req =
  let guarded f =
    match Metrics.time t.metrics ("op_" ^ op) f with
    | reply -> reply
    | exception Failure msg -> error ~code:"request-failed" msg
    | exception Invalid_argument msg -> error ~code:"request-failed" msg
  in
  match op with
  | "advise" -> guarded (fun () -> advise t req)
  | "elect" -> guarded (fun () -> elect t req)
  | "verify" -> guarded (fun () -> verify_outputs t req)
  | "verify-trace" -> guarded (fun () -> verify_trace t req)
  | "stats" -> guarded (fun () -> stats t)
  | op -> error ~code:"unknown-op" ("unknown op: " ^ op)

let batch_item t req =
  match Json.member "op" req with
  | Some (Json.String (("batch" | "shutdown") as op)) ->
      error ~code:"bad-request" ("op " ^ op ^ " is not allowed inside a batch")
  | Some (Json.String op) -> dispatch t op req
  | _ -> error ~code:"bad-request" "request needs a string \"op\" member"

(* One frame, many requests: items are answered in request order, each
   in isolation (a failing item yields its own error reply and never
   poisons its neighbours).  With a [parallel] hook installed, items
   fan out across the daemon's batch crew; results land in
   position-indexed slots, so the reply order is the request order
   regardless of scheduling. *)
let batch t req =
  let items =
    match member_exn "requests" req with
    | Json.List l -> Array.of_list l
    | _ -> failwith "\"requests\" must be a list of request objects"
  in
  let n = Array.length items in
  Metrics.incr ~by:n t.metrics "batch_items";
  let replies = Array.make n Json.Null in
  let thunks =
    Array.mapi (fun i item () -> replies.(i) <- batch_item t item) items
  in
  (match t.parallel with
  | Some run_all when n > 1 -> run_all thunks
  | _ -> Array.iter (fun f -> f ()) thunks);
  Protocol.ok_response ~op:"batch"
    (Json.Obj
       [
         ("count", Json.Int n);
         ("replies", Json.List (Array.to_list replies));
       ])

let handle t req =
  Metrics.incr t.metrics "requests";
  let op =
    match Json.member "op" req with Some (Json.String op) -> Some op | _ -> None
  in
  match op with
  | None ->
      Reply (error ~code:"bad-request" "request needs a string \"op\" member")
  | Some "shutdown" ->
      Metrics.incr t.metrics "op_shutdown";
      Reply_and_stop
        (Protocol.ok_response ~op:"shutdown"
           (Json.Obj [ ("stopping", Json.Bool true) ]))
  | Some "batch" ->
      Reply
        (match Metrics.time t.metrics "op_batch" (fun () -> batch t req) with
        | reply -> reply
        | exception Failure msg -> error ~code:"request-failed" msg
        | exception Invalid_argument msg -> error ~code:"request-failed" msg)
  | Some op -> Reply (dispatch t op req)
