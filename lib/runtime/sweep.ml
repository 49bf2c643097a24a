module Port_graph = Shades_graph.Port_graph
module Scheme = Shades_election.Scheme
module Verify = Shades_election.Verify
module Select_by_view = Shades_election.Select_by_view
module Gclass = Shades_families.Gclass
module Uclass = Shades_families.Uclass
module Jclass = Shades_families.Jclass
module Component = Shades_families.Component
module Trace = Shades_trace.Trace
module Exec = Shades_localsim.Exec

type point = (string * int) list

type axis = { name : string; values : int list }

let axis name values = { name; values }

let range ?(step = 1) name ~lo ~hi =
  if step <= 0 then invalid_arg "Sweep.range: step must be positive";
  let rec collect v = if v > hi then [] else v :: collect (v + step) in
  { name; values = collect lo }

let cross axes =
  List.fold_right
    (fun { name; values } tails ->
      List.concat_map
        (fun v -> List.map (fun tail -> (name, v) :: tail) tails)
        values)
    axes [ [] ]

type outcome = {
  rounds : int;
  messages : int;
  advice_bits : int;
  graph_order : int;
  verified : bool;
}

type job = {
  family : string;
  params : point;
  cost : int;
  engine : Trace.engine;
  exec : tracer:(Shades_trace.Event.t -> unit) option -> Metrics.t -> outcome;
}

let value point name = List.assoc_opt name point

let with_default point name default =
  match value point name with
  | Some _ -> point
  | None -> point @ [ (name, default) ]

let ipow base exp =
  let rec go acc e = if e = 0 then acc else go (acc * base) (e - 1) in
  if exp < 0 then invalid_arg "Sweep.ipow" else go 1 exp

(* Run [scheme] on [g] through the simulator under [exec], collecting
   the engine's per-round telemetry into [metrics].  The
   [round_messages] histogram (messages sent per engine round) is always
   recorded, tracer or not, so traced and untraced runs of the same job
   produce byte-identical store records.  The [messages] outcome is the
   cumulative count at the last [on_round] call — the run total for the
   synchronous timings, the count at the last round start under the
   α-synchronizer. *)
let elect ~exec ?tracer metrics scheme verify g =
  let messages = ref 0 in
  let on_round ~round:_ ~messages:m =
    Metrics.observe metrics "round_messages" (float_of_int (m - !messages));
    messages := m;
    Metrics.incr metrics "engine_rounds"
  in
  let r =
    Metrics.time metrics "elect" (fun () ->
        Scheme.run ~exec ~on_round ?tracer scheme g)
  in
  let verified =
    Metrics.time metrics "verify" (fun () ->
        Result.is_ok (verify g r.Scheme.outputs))
  in
  {
    rounds = r.Scheme.rounds;
    messages = !messages;
    advice_bits = r.Scheme.advice_bits;
    graph_order = Port_graph.order g;
    verified;
  }

(* Projected node counts, used only to order jobs largest-first (the
   classic longest-processing-time heuristic): they must be cheap and
   deterministic, not exact.  G_i of G_{∆,k} has (4i−1) blocks of one
   tree (z leaves, plus internal nodes ≈ z + k) each; the U-class
   estimate was calibrated against built instances (u(4,1): 468
   projected vs 450 actual). *)
let gclass_cost ~delta ~k ~i =
  let z = (delta - 2) * ipow (delta - 1) (k - 1) in
  ((4 * i) - 1) * ((3 * z) + k + 2)

let uclass_cost ~delta ~k ~y =
  let z = (delta - 2) * ipow (delta - 1) (k - 1) in
  y * ((4 * ((3 * z) + k + 2)) + (2 * (k + 1)) + (2 * (delta - 1) * (k + 1)))

(* Exact, cheap: 2^{z_eff} gadgets, each 4 components sharing ρ. *)
let jclass_order ~mu ~k ~z_eff =
  ipow 2 z_eff * ((4 * (Component.size ~mu ~k - 1)) + 1)

let gclass_job ?(exec = Exec.default) point =
  match (value point "delta", value point "k") with
  | Some delta, Some k when delta >= 3 && k >= 1 ->
      let point = with_default point "i" 2 in
      let i = Option.get (value point "i") in
      let p = { Gclass.delta; k } in
      let within_class =
        i >= 1
        &&
        match Gclass.num_graphs p with Some c -> i <= c | None -> true
      in
      if not within_class then None
      else
        Some
          {
            family = "g";
            params = point;
            cost = gclass_cost ~delta ~k ~i;
            engine = Trace.Sync;
            exec =
              (fun ~tracer metrics ->
                let t = Metrics.time metrics "build" (fun () -> Gclass.build p ~i) in
                elect ~exec ?tracer metrics Select_by_view.scheme
                  Verify.selection t.Gclass.graph);
          }
  | _ -> None

let uclass_job ?(exec = Exec.default) point =
  match (value point "delta", value point "k") with
  | Some delta, Some k when delta >= 4 && k >= 1 ->
      let point = with_default point "sigma" 1 in
      let sigma = Option.get (value point "sigma") in
      let p = { Uclass.delta; k } in
      (* y trees ≈ n/4 nodes each of size Θ(∆k): refuse instances that
         could not be built in memory (u(4,2)'s 19683 trees / 86k nodes
         is the largest instance the repo exercises) *)
      let trees =
        match Uclass.num_trees p with
        | Some y when y <= 50_000 -> Some y
        | _ -> None
      in
      if sigma < 1 || sigma > delta - 1 then None
      else
        Option.map
          (fun y ->
            {
              family = "u";
              params = point;
              cost = uclass_cost ~delta ~k ~y;
              engine = Trace.Sync;
              exec =
                (fun ~tracer metrics ->
                  let t =
                    Metrics.time metrics "build" (fun () ->
                        Uclass.build p ~sigma:(Uclass.uniform_sigma p sigma))
                  in
                  elect ~exec ?tracer metrics Uclass.pe_scheme
                    Verify.port_election t.Uclass.graph);
            })
          trees
  | _ -> None

let default_max_order = 20_000

let jclass_job ?(exec = Exec.default) ?(max_order = default_max_order) ~metrics
    point =
  match (value point "mu", value point "k") with
  | Some mu, Some k when mu >= 3 && k >= 4 ->
      let point = with_default point "z_eff" 1 in
      let z_eff = Option.get (value point "z_eff") in
      if z_eff < 1 || z_eff > Jclass.z ~mu ~k then None
      else begin
        let order = jclass_order ~mu ~k ~z_eff in
        if order > max_order then begin
          (* Never skip silently: the chain doubles per z_eff, so a
             grid routinely strays over budget and the gap must show
             up in telemetry. *)
          Metrics.incr metrics "jclass_skipped_max_order";
          None
        end
        else
          let p = { Jclass.mu; k; z_eff } in
          Some
            {
              family = "j";
              params = point;
              cost = order;
              engine = Trace.Sync;
              exec =
                (fun ~tracer metrics ->
                  let t =
                    Metrics.time metrics "build" (fun () ->
                        Jclass.build p ~y:(Jclass.y_zero p))
                  in
                  elect ~exec ?tracer metrics (Jclass.cppe_scheme t)
                    Verify.complete_port_path_election t.Jclass.graph);
            }
      end
  | _ -> None

(* Same G-class instances, driven through the α-synchronizer with
   seeded adversarial delays.  The outputs and round count must equal
   the synchronous run (the scheme is oblivious to timing); what the
   async family pins down in baselines is the *trace*: delay draws,
   sync markers and message interleaving as a function of the seed. *)
let gclass_async_job point =
  match gclass_job point with
  | None -> None
  | Some job ->
      let point = with_default job.params "seed" 0 in
      let seed = Option.get (value point "seed") in
      let delta = Option.get (value point "delta")
      and k = Option.get (value point "k")
      and i = Option.get (value point "i") in
      let p = { Gclass.delta; k } in
      let engine = Trace.Async { seed } in
      Some
        {
          job with
          family = "g-async";
          params = point;
          engine;
          exec =
            (fun ~tracer metrics ->
              let t = Metrics.time metrics "build" (fun () -> Gclass.build p ~i) in
              elect ~exec:(Exec.of_trace_engine engine) ?tracer metrics
                Select_by_view.scheme Verify.selection t.Gclass.graph);
        }

let gclass_jobs ?exec points = List.filter_map (gclass_job ?exec) points

let gclass_async_jobs points = List.filter_map gclass_async_job points

let uclass_jobs ?exec points = List.filter_map (uclass_job ?exec) points

let jclass_jobs ?exec ?max_order ~metrics points =
  List.filter_map (jclass_job ?exec ?max_order ~metrics) points

(* The smallest honest grid — shared by `sweep --tiny`, `make check`
   and the test suite, so the CI gate exercises exactly this grid. *)
let tiny_points =
  cross [ range "delta" ~lo:3 ~hi:4; range "k" ~lo:1 ~hi:1; axis "i" [ 2 ] ]

(* One async point rides along so the gates (store compare and trace
   forensics alike) pin the seeded α-synchronizer schedule, not just
   the synchronous engine. *)
let tiny_async_points =
  cross
    [
      range "delta" ~lo:3 ~hi:3; range "k" ~lo:1 ~hi:1; axis "i" [ 2 ];
      axis "seed" [ 0 ];
    ]

(* One J-class point rides along so the tiny gates also pin the CPPE
   task (Section 4).  mu = 3, k = 4 is the smallest legal corner; at
   z_eff = 1 the scaled template has 402 nodes — well inside the
   default order budget and fast enough for `make check`. *)
let tiny_jclass_points =
  cross [ axis "mu" [ 3 ]; axis "k" [ 4 ]; axis "z_eff" [ 1 ] ]

(* The async rider keeps its own timing: the α-synchronizer has no
   sharded variant (its event loop is inherently serial), and the rider
   exists to pin the seeded schedule, not to go fast. *)
let tiny_jobs ?exec () =
  gclass_jobs ?exec tiny_points
  @ gclass_async_jobs tiny_async_points
  @ jclass_jobs ?exec ~metrics:(Metrics.create ()) tiny_jclass_points

let record_of_job ?tracer job =
  let metrics = Metrics.create () in
  let t0 = Metrics.now_ns () in
  let outcome = job.exec ~tracer metrics in
  let wall_ns = Metrics.now_ns () - t0 in
  Metrics.incr ~by:outcome.graph_order metrics "graph_order";
  Metrics.incr ~by:(if outcome.verified then 1 else 0) metrics "verified";
  Metrics.incr ~by:outcome.messages metrics "engine_messages";
  ( {
      Store.params =
        ("family", Store.Json.String job.family)
        :: List.map (fun (n, v) -> (n, Store.Json.Int v)) job.params;
      rounds = outcome.rounds;
      messages = outcome.messages;
      advice_bits = outcome.advice_bits;
      wall_ns;
      metrics = Metrics.snapshot metrics;
    },
    outcome )

(* Schedule largest-first (by projected cost) so the big instance is
   never the straggler picked up last, then put the results back in
   job-list order — determinism is untouched because Shades_pool.map is
   input-order-stable and the permutation depends only on the costs. *)
let schedule_order jobs =
  let jobs = Array.of_list jobs in
  let order = Array.init (Array.length jobs) Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare jobs.(b).cost jobs.(a).cost with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  Array.to_list order

let run_ordered ?domains f jobs =
  let order = Array.of_list (schedule_order jobs) in
  let jobs = Array.of_list jobs in
  let results = Shades_pool.map ?domains (fun i -> (i, f jobs.(i))) order in
  let out = Array.make (Array.length jobs) None in
  Array.iter (fun (i, r) -> out.(i) <- Some r) results;
  Array.to_list (Array.map Option.get out)

let run ?domains jobs =
  run_ordered ?domains (fun job -> fst (record_of_job job)) jobs

let label_of_job job =
  String.concat ","
    (job.family :: List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) job.params)

let key_of_job job = Shades_trace.Baseline.key_of_label (label_of_job job)

let run_traced ?domains ?capacity ?baseline jobs =
  let traced =
    run_ordered ?domains
      (fun job ->
        let r = Trace.recorder ?capacity () in
        let record, outcome = record_of_job ~tracer:(Trace.emit r) job in
        let meta =
          {
            Trace.engine = job.engine;
            graph_order = outcome.graph_order;
            advice_bits = outcome.advice_bits;
            label = label_of_job job;
          }
        in
        (record, Trace.capture r meta))
      jobs
  in
  let report =
    Option.map
      (fun dir ->
        Shades_trace.Baseline.gate ~dir
          (List.map2 (fun job (_, tr) -> (key_of_job job, tr)) jobs traced))
      baseline
  in
  (traced, report)
