(* The traced replay: a serving workload's exact request stream, answered
   in process by the public stage functions the daemon's [Service] calls,
   in the same order, with a span around each stage.

   The stages, as [service.ml] runs them: frame decode (the JSON codec
   inside [Protocol.read_frame]; socket I/O happens in the daemon only),
   graph decode ([Spec.parse] / [Protocol.graph_of_json]), encoding
   digest ([Port_graph.encode] + MD5), the memo, advice and result
   caches ([Cache.find] / [put] on scratch tiers with the daemon's
   capacities and budget), canonicalization ([Port_graph.digest] /
   [canonical]), the scheme's oracle, [Scheme.run_with_advice ~on_round],
   the [Verify] referee, and reply encode (the [Json.to_string] inside
   [Protocol.write_frame]).  Spans stay in memory until the run ends. *)

module Json = Shades_json.Json
module Bitstring = Shades_bits.Bitstring
module Port_graph = Shades_graph.Port_graph
module Task = Shades_election.Task
module Scheme = Shades_election.Scheme
module Verify = Shades_election.Verify
module Select_by_view = Shades_election.Select_by_view
module Map_advice = Shades_election.Map_advice
module Metrics = Shades_runtime.Metrics
module Cache = Shades_server.Cache
module Service = Shades_server.Service
module Protocol = Shades_server.Protocol

let now_ns = Loadgen.now_ns

(* --- spans --- *)

type span = {
  id : int;
  parent : int;  (** -1 for a request's root span *)
  req : int;
  name : string;
  start_ns : int;
  mutable stop_ns : int;
  mutable tier : string;  (** which cache tier answered a lookup, if any *)
}

type tracer = {
  mutable on : bool;
  mutable spans : span list;  (** newest first *)
  mutable stack : span list;
  mutable next_id : int;
  mutable req : int;
}


let span tr name f =
  if not tr.on then f ()
  else begin
    let parent = match tr.stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = tr.next_id; parent; req = tr.req; name; start_ns = now_ns ();
        stop_ns = 0; tier = "" }
    in
    tr.next_id <- tr.next_id + 1;
    tr.stack <- s :: tr.stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- now_ns ();
        tr.stack <- List.tl tr.stack;
        tr.spans <- s :: tr.spans)
      f
  end

(* --- the service, stage by stage --- *)

(* [Service]'s private per-task table: scheme, referee, output codec *)
type impl =
  | Impl : {
      scheme : 'p Task.answer Scheme.t;
      verify :
        Port_graph.t -> 'p Task.answer array -> (Port_graph.vertex, string) result;
      to_json : 'p -> Json.t;
      of_json : Json.t -> 'p option;
    }
      -> impl

let ints = List.map (fun p -> Json.Int p)

let impl_of_task = function
  | Task.S ->
      Impl
        { scheme = Select_by_view.scheme; verify = Verify.selection;
          to_json = (fun () -> Json.String "follower");
          of_json = (function Json.String "follower" -> Some () | _ -> None) }
  | Task.PE ->
      Impl
        { scheme = Map_advice.port_election; verify = Verify.port_election;
          to_json = (fun p -> Json.Int p);
          of_json = (function Json.Int p -> Some p | _ -> None) }
  | Task.PPE ->
      Impl
        { scheme = Map_advice.port_path_election;
          verify = Verify.port_path_election;
          to_json = (fun ps -> Json.List (ints ps));
          of_json =
            (function
            | Json.List l ->
                List.fold_right
                  (fun j acc ->
                    match (j, acc) with
                    | Json.Int p, Some ps -> Some (p :: ps)
                    | _ -> None)
                  l (Some [])
            | _ -> None) }
  | Task.CPPE ->
      Impl
        { scheme = Map_advice.complete_port_path_election;
          verify = Verify.complete_port_path_election;
          to_json =
            (fun pairs ->
              Json.List (List.map (fun (p, q) -> Json.List (ints [ p; q ])) pairs));
          of_json =
            (function
            | Json.List l ->
                List.fold_right
                  (fun j acc ->
                    match (j, acc) with
                    | Json.List [ Json.Int p; Json.Int q ], Some ps ->
                        Some ((p, q) :: ps)
                    | _ -> None)
                  l (Some [])
            | _ -> None) }

let answer_to_json to_json = function
  | Task.Leader -> Json.String "leader"
  | Task.Follower p -> to_json p

let answer_of_json of_json = function
  | Json.String "leader" -> Some Task.Leader
  | j -> Option.map (fun p -> Task.Follower p) (of_json j)

type advice_entry = { advice : Bitstring.t; rounds : int }

(* the daemon's disk encodings, so scratch tiers hold the same bytes *)
let advice_persist ?max_bytes dir =
  {
    Cache.max_bytes;
    dir = Filename.concat dir "advice";
    encode =
      (fun { advice; rounds } ->
        Json.to_string
          (Json.Obj
             [ ("advice", Json.String (Bitstring.to_string advice));
               ("rounds", Json.Int rounds) ]));
    decode =
      (fun data ->
        match Json.of_string data with
        | Ok j -> (
            match (Json.member "advice" j, Json.member "rounds" j) with
            | Some (Json.String bits), Some (Json.Int rounds) ->
                Ok { advice = Bitstring.of_string bits; rounds }
            | _ -> Error "bad advice entry")
        | Error e -> Error e);
  }

let result_persist ?max_bytes dir =
  {
    Cache.max_bytes;
    dir = Filename.concat dir "results";
    encode = Json.to_string;
    decode = Json.of_string;
  }

(* Observations that are not span durations. *)
type tally = {
  mutable rounds_total : int;
  mutable messages_total : int;
  mutable round_ms : float list;
  mutable advice_bits : (Task.kind * int) list;
  mutable req_bytes : int list;
  mutable reply_bytes : int list;
}

(* A cache with a registry of its own, so a traced lookup can tell
   cheaply which tier answered. *)
type 'a tier = { label : string; cache : 'a Cache.t; registry : Metrics.t }

type t = {
  tr : tracer;
  counters : Metrics.t;  (** the daemon's compute counters *)
  advice : advice_entry tier;
  results : Json.t tier;
  memo : string tier;
  tally : tally;
}

let tier ~name ?persist ~capacity () =
  let registry = Metrics.create () in
  let cache = Cache.create ~name ?persist ~capacity ~metrics:registry () in
  { label = name; cache; registry }

(* Scratch tiers configured as [Service.create] configures the daemon's;
   spans are recorded once {!start_tracing} is called. *)
let create ~dir ~capacity ?max_bytes () =
  {
    tr = { on = false; spans = []; stack = []; next_id = 0; req = 0 };
    counters = Metrics.create ();
    advice =
      tier ~name:"advice_cache" ~persist:(advice_persist ?max_bytes dir) ~capacity ();
    results =
      tier ~name:"result_cache" ~persist:(result_persist ?max_bytes dir) ~capacity ();
    memo = tier ~name:"memo" ~capacity:(max capacity 1024) ();
    tally =
      { rounds_total = 0; messages_total = 0; round_ms = []; advice_bits = [];
        req_bytes = []; reply_bytes = [] };
  }

let counter registries name =
  List.fold_left
    (fun acc m ->
      match List.assoc_opt name (Metrics.snapshot m) with
      | Some (Metrics.Counter n) -> acc + n
      | _ -> acc)
    0 registries

let all_counters t = [ t.counters; t.advice.registry; t.results.registry; t.memo.registry ]

let note t f = if t.tr.on then f t.tally

let start_tracing t = t.tr.on <- true

let encoding_digest g =
  let bits = Port_graph.encode g in
  Digest.to_hex
    (Digest.string
       (string_of_int (Bitstring.length bits)
       ^ ":"
       ^ Bytes.unsafe_to_string (Bitstring.to_packed bits)))

(* A traced lookup records which tier answered, read from the cache's
   own counters outside the timed interval. *)
let find t tier key =
  if not t.tr.on then Cache.find tier.cache key
  else begin
    let count what = counter [ tier.registry ] (tier.label ^ what) in
    let disk_before = count "_disk_hits" and hits_before = count "_hits" in
    let v =
      span t.tr ("cache." ^ tier.label ^ ".find") (fun () -> Cache.find tier.cache key)
    in
    (List.hd t.tr.spans).tier <-
      (if count "_disk_hits" > disk_before then "disk"
       else if count "_hits" > hits_before then "memory"
       else "miss");
    v
  end

let put t tier key v =
  span t.tr ("cache." ^ tier.label ^ ".put") (fun () -> Cache.put tier.cache key v)

let canonical_digest t g =
  let ed = span t.tr "encoding_digest" (fun () -> encoding_digest g) in
  match find t t.memo ed with
  | Some digest -> digest
  | None ->
      let digest = span t.tr "canon.digest" (fun () -> Port_graph.digest g) in
      let ed = span t.tr "encoding_digest" (fun () -> encoding_digest g) in
      put t t.memo ed digest;
      digest

let task_name task = String.lowercase_ascii (Task.kind_to_string task)

let advise_entry t g task =
  let digest = canonical_digest t g in
  let key = Service.cache_key ~digest ~task in
  match find t t.advice key with
  | Some entry -> (digest, entry, true)
  | None ->
      Metrics.incr t.counters "advise_computes";
      let (Impl { scheme; _ }) = impl_of_task task in
      let canon, _ =
        span t.tr "canon.canonical" (fun () -> Port_graph.canonical g)
      in
      (* the map schemes' oracle only encodes the map; deriving the round
         count from it is where their refinement work happens, so both
         belong to the oracle layer *)
      let advice, rounds =
        span t.tr ("oracle." ^ task_name task) (fun () ->
            let advice = scheme.Scheme.oracle canon in
            ( advice,
              span t.tr "oracle.rounds_of" (fun () ->
                  scheme.Scheme.rounds_of ~advice
                    ~degree:(Port_graph.max_degree canon)) ))
      in
      note t (fun y -> y.advice_bits <- (task, Bitstring.length advice) :: y.advice_bits);
      let entry = { advice; rounds } in
      put t t.advice key entry;
      (digest, entry, false)

let member_exn what req =
  match Json.member what req with
  | Some v -> v
  | None -> failwith ("request needs a " ^ what)

let graph_and_task t req =
  let g =
    span t.tr "graph_decode" (fun () ->
        match Protocol.graph_of_json (member_exn "graph" req) with
        | Ok g -> g
        | Error e -> failwith ("bad graph: " ^ e))
  in
  let task =
    match member_exn "task" req with
    | Json.String s -> (
        match Protocol.task_of_string s with Ok k -> k | Error e -> failwith e)
    | _ -> failwith "task must be a string"
  in
  (g, task)

let advise t req =
  let g, task = graph_and_task t req in
  let digest, entry, cached = advise_entry t g task in
  Json.Obj
    [
      ("digest", Json.String digest);
      ("advice", Json.String (Bitstring.to_string entry.advice));
      ("advice_bits", Json.Int (Bitstring.length entry.advice));
      ("rounds", Json.Int entry.rounds);
      ("cached", Json.Bool cached);
    ]

let elect t req =
  let g, task = graph_and_task t req in
  let ed = span t.tr "encoding_digest" (fun () -> encoding_digest g) in
  let key = Service.elect_key ~digest:ed ~task ~engine:"sync" in
  match find t t.results key with
  | Some result -> result
  | None ->
      Metrics.incr t.counters "elect_computes";
      let (Impl { scheme; verify; to_json; _ }) = impl_of_task task in
      let digest, entry, _ = advise_entry t g task in
      let messages = ref 0 in
      let last = ref 0 in
      let on_round ~round:_ ~messages:m =
        note t (fun y ->
            let now = now_ns () in
            y.round_ms <- (float_of_int (now - !last) /. 1e6) :: y.round_ms;
            last := now);
        messages := m
      in
      let run =
        span t.tr "engine" (fun () ->
            last := now_ns ();
            Scheme.run_with_advice ~on_round scheme g ~advice:entry.advice)
      in
      note t (fun y ->
          y.rounds_total <- y.rounds_total + run.Scheme.rounds;
          y.messages_total <- y.messages_total + !messages);
      let verdict = span t.tr "verify" (fun () -> verify g run.Scheme.outputs) in
      let result =
        Json.Obj
          [
            ("digest", Json.String digest);
            ("rounds", Json.Int run.Scheme.rounds);
            ("messages", Json.Int !messages);
            ("advice_bits", Json.Int run.Scheme.advice_bits);
            ("verified", Json.Bool (Result.is_ok verdict));
            ("leader", match verdict with Ok l -> Json.Int l | Error _ -> Json.Null);
            ("outputs",
             Json.List
               (Array.to_list (Array.map (answer_to_json to_json) run.Scheme.outputs)));
          ]
      in
      put t t.results key result;
      result

let verify_outputs t req =
  let g, task = graph_and_task t req in
  let outputs_json = member_exn "outputs" req in
  let outputs_digest = Digest.to_hex (Digest.string (Json.to_string outputs_json)) in
  let ed = span t.tr "encoding_digest" (fun () -> encoding_digest g) in
  let key = Service.verify_key ~digest:ed ~task ~outputs_digest in
  match find t t.results key with
  | Some result -> result
  | None ->
      Metrics.incr t.counters "verify_computes";
      let (Impl { verify; of_json; _ }) = impl_of_task task in
      let outputs =
        match outputs_json with
        | Json.List l ->
            Array.of_list
              (List.map
                 (fun j ->
                   match answer_of_json of_json j with
                   | Some a -> a
                   | None -> failwith "bad output")
                 l)
        | _ -> failwith "outputs must be a list"
      in
      let verdict = span t.tr "verify" (fun () -> verify g outputs) in
      let digest = canonical_digest t g in
      let result =
        Json.Obj
          ([ ("digest", Json.String digest);
             ("valid", Json.Bool (Result.is_ok verdict)) ]
          @ match verdict with Ok l -> [ ("leader", Json.Int l) ] | Error _ -> [])
      in
      put t t.results key result;
      result

(* One request payload in, one reply payload out. *)
let handle t ~req payload =
  t.tr.req <- req;
  note t (fun y -> y.req_bytes <- String.length payload :: y.req_bytes);
  span t.tr "request" (fun () ->
      let request =
        span t.tr "protocol.decode" (fun () ->
            match Json.of_string payload with
            | Ok j -> j
            | Error e -> failwith ("bad request: " ^ e))
      in
      let op =
        match Json.member "op" request with Some (Json.String op) -> op | _ -> ""
      in
      let reply =
        span t.tr ("service." ^ op) (fun () ->
            match
              match op with
              | "advise" -> advise t request
              | "elect" -> elect t request
              | "verify" -> verify_outputs t request
              | _ -> failwith ("unsupported op " ^ op)
            with
            | result -> Protocol.ok_response ~op result
            | exception Failure msg ->
                Protocol.error_response ~code:"request-failed" msg)
      in
      let encoded = span t.tr "protocol.encode" (fun () -> Json.to_string reply) in
      note t (fun y -> y.reply_bytes <- String.length encoded :: y.reply_bytes);
      reply)

(* --- what a traced replay reports --- *)

(* [(span, self_ns)] for every span, children subtracted *)
let self_times t =
  let spans = Array.of_list (List.rev t.tr.spans) in
  let n = t.tr.next_id in
  let child_ns = Array.make n 0 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        child_ns.(s.parent) <- child_ns.(s.parent) + (s.stop_ns - s.start_ns))
    spans;
  Array.map (fun s -> (s, s.stop_ns - s.start_ns - child_ns.(s.id))) spans

(* The layer a span belongs to: its name up to the first dot, so every
   cache tier is one layer and every shade's oracle another. *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let write_spans t path =
  Out_channel.with_open_text path (fun oc ->
      Array.iter
        (fun (s, self) ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  ([ ("id", Json.Int s.id); ("parent", Json.Int s.parent);
                     ("req", Json.Int s.req); ("name", Json.String s.name);
                     ("start_ns", Json.Int s.start_ns);
                     ("dur_ns", Json.Int (s.stop_ns - s.start_ns));
                     ("self_ns", Json.Int self) ]
                  @ if s.tier = "" then [] else [ ("tier", Json.String s.tier) ])));
          output_char oc '\n')
        (self_times t))

(* [(layer, spans, self_ns)], largest self time first *)
let layer_table t =
  let rows = ref [] in
  Array.iter
    (fun (s, self) ->
      let l = layer s.name in
      let n, ns = Option.value (List.assoc_opt l !rows) ~default:(0, 0) in
      rows := (l, (n + 1, ns + self)) :: List.remove_assoc l !rows)
    (self_times t);
  List.map (fun (l, (n, ns)) -> (l, n, ns)) !rows
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

(* durations (ns) of the spans named [name], optionally only those a
   given cache tier answered *)
let durations ?tier t name =
  List.filter_map
    (fun s ->
      if s.name = name && (tier = None || Some s.tier = tier) then
        Some (float_of_int (s.stop_ns - s.start_ns))
      else None)
    t.tr.spans
