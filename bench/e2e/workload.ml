(* Seeded request generators for the serving workloads.

   Every request is a pure function of (seed, workload, index), so two
   commits benchmarked with one seed send byte-identical requests, and
   the daemon only ever sees the requests, never the seed. *)

module Json = Shades_json.Json
module Port_graph = Shades_graph.Port_graph
module Task = Shades_election.Task
module Spec = Shades_server.Spec
module Protocol = Shades_server.Protocol

type op = Advise | Elect | Verify

let op_name = function
  | Advise -> "advise"
  | Elect -> "elect"
  | Verify -> "verify"

let request ?outputs op ~task ~graph =
  Json.Obj
    ([
       ("op", Json.String (op_name op));
       ("task", Json.String (Task.kind_to_string task));
       ("graph", graph);
     ]
    @ match outputs with Some o -> [ ("outputs", o) ] | None -> [])

(* One independent stream per (seed, workload tag, index): requests can
   be built in any order and still come out identical. *)
let rng seed tag i = Random.State.make [| seed; tag; i |]

(* Sizes cycle through their range instead of being drawn, so every
   window holds each size in equal share and only the graphs' random
   structure depends on the seed. *)
let cycle i ~lo ~hi = lo + (i mod (hi - lo + 1))

(* The [random] spec's own seed: distinct per (seed, tag, index) for
   indexes below a million, so specs within one run never repeat. *)
let spec_seed seed tag i = (abs seed mod 1_000_000 * 4_000_000) + (tag * 1_000_000) + i

let random_spec ~seed ~tag ~n i =
  Printf.sprintf "random:%d,%d,%d" (spec_seed seed tag i) n (n / 3)

(* --- cold-advise: every request a topology no earlier request had --- *)

(* The task mix, in shares of 10: S and PE cost far less than PPE and
   CPPE, so unequal shares keep the median inside one task's latency
   range instead of on the gap between two of them. *)
let cold_task i =
  match i mod 10 with
  | 0 | 1 | 2 | 3 -> Task.S
  | 4 | 5 | 6 -> Task.PE
  | 7 | 8 -> Task.PPE
  | _ -> Task.CPPE

let cold_spec ~seed i =
  let n =
    match cold_task i with
    | Task.S | Task.PE -> cycle (i / 10) ~lo:40 ~hi:100
    | Task.PPE | Task.CPPE -> cycle (i / 10) ~lo:20 ~hi:40
  in
  random_spec ~seed ~tag:1 ~n i

let cold_request ~seed i =
  request Advise ~task:(cold_task i) ~graph:(Json.String (cold_spec ~seed i))

(* --- elect-iso: fresh vertex renumberings of a fixed pool --- *)

type base = { spec : string; task : Task.kind; graph : Port_graph.t }

(* Bases of all four shades whose elections cost 2–40 ms in process; the
   oracle runs once per base in set-up, the engine on every request. *)
let iso_specs =
  [
    ("random:101,40,13", Task.PE);
    ("random:102,36,12", Task.PE);
    ("random:103,48,16", Task.PE);
    ("gclass:4,1,2", Task.PE);
    ("random:201,200,60", Task.S);
    ("random:202,300,100", Task.S);
    ("path:10", Task.PPE);
    ("path:14", Task.PPE);
    ("star:30", Task.PPE);
    ("random:7,20,6", Task.PPE);
    ("path:12", Task.CPPE);
    ("star:30", Task.CPPE);
    ("random:8,20,6", Task.CPPE);
  ]

let iso_pool () =
  Array.of_list
    (List.map
       (fun (spec, task) -> { spec; task; graph = Spec.parse_exn spec })
       iso_specs)

let permutation st n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- x
  done;
  p

type iso = { base : int; perm : int array; req : Json.t }

(* Bases in strict rotation, so every window holds each base in equal
   share and only the renumberings depend on the seed. *)
let iso_request ~seed pool i =
  let base = i mod Array.length pool in
  let b = pool.(base) in
  let perm = permutation (rng seed 2 i) (Port_graph.order b.graph) in
  let graph = Protocol.graph_to_json (Port_graph.renumber b.graph perm) in
  { base; perm; req = request Elect ~task:b.task ~graph }

(* --- hot-zipf: an open-loop Poisson stream over a Zipf working set --- *)

(* The working set and its traffic.  500 topologies against 256 memory
   entries per cache leave about a quarter of advice reads and a third of
   result reads to the disk tier after the restart.  The rate (req/s) is
   a fifth of the ~4900 req/s at which the daemon's backlog starts to
   grow on 2 cores: low enough that the tail comes from queueing behind
   fresh topologies rather than from a growing backlog.  The latency
   limit (ms) sits near the 98th percentile there. *)
let hot_topologies = 500
let hot_rate = 1000.
let hot_slo_ms = 4.
let hot_fresh_share = 0.03
let hot_capacity = 256

(* Topology [k] of the hot working set (and, for [k >= hot_topologies],
   the [k - hot_topologies]-th fresh one); S and PE alternate. *)
let hot_spec ~seed k = random_spec ~seed ~tag:3 ~n:(cycle (k / 2) ~lo:16 ~hi:40) k

let hot_task k = if k mod 2 = 0 then Task.S else Task.PE

type hot = { due_ns : int; op : op; topo : int }

let zipf_cdf w =
  let weights = Array.init w (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    weights

(* smallest rank whose cumulative share reaches [u] *)
let zipf_rank cdf u =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cdf - 1)

(* The whole open-loop schedule for a window of [seconds]: Poisson
   arrivals at {!hot_rate}, 70% advise / 20% elect / 10% verify, and a
   {!hot_fresh_share} of never-seen topologies, which arrive as advise
   requests (a client's first contact with a network). *)
let hot_stream ~seed ~seconds =
  let cdf = zipf_cdf hot_topologies in
  let by_rank = permutation (rng seed 4 0) hot_topologies in
  let st = rng seed 5 0 in
  let horizon = seconds *. 1e9 in
  let rec go t fresh acc =
    let t = t -. (log (1. -. Random.State.float st 1.) /. hot_rate *. 1e9) in
    if t >= horizon then List.rev acc
    else
      let is_fresh = Random.State.float st 1. < hot_fresh_share in
      let u = Random.State.float st 1. in
      let op = if u < 0.7 then Advise else if u < 0.9 then Elect else Verify in
      let rank = zipf_rank cdf (Random.State.float st 1.) in
      if is_fresh then
        go t (fresh + 1)
          ({ due_ns = int_of_float t; op = Advise; topo = hot_topologies + fresh } :: acc)
      else go t fresh ({ due_ns = int_of_float t; op; topo = by_rank.(rank) } :: acc)
  in
  Array.of_list (go 0. 0 [])

(* --- a digest of the first [count] requests of every stream, stamped on
   each run so two runs can show they sent the same inputs --- *)

let stream_digest ~seed ~count =
  let pool = iso_pool () in
  let cold = List.init count (fun i -> Json.to_string (cold_request ~seed i)) in
  let iso =
    List.init count (fun i -> Json.to_string (iso_request ~seed pool i).req)
  in
  let hot =
    let stream = hot_stream ~seed ~seconds:1. in
    List.map
      (fun h ->
        Printf.sprintf "%d %s %s %s" h.due_ns (op_name h.op)
          (Task.kind_to_string (hot_task h.topo))
          (hot_spec ~seed h.topo))
      (Array.to_list (Array.sub stream 0 (min count (Array.length stream))))
  in
  Digest.to_hex (Digest.string (String.concat "\n" (cold @ iso @ hot)))
