module Port_graph = Shades_graph.Port_graph
module Gen = Shades_graph.Gen
module Task = Shades_election.Task
module Shade = Shades_election.Shade
module Pool = Shades_pool
module Store = Shades_runtime.Store
module Json = Shades_json.Json

type scenario = {
  label : string;
  hypothesis : string;
  command : string;
  graph_label : string;
  graph : Port_graph.t;
  shades : Shade.t list;
  ops : bits:int -> n:int -> Corrupt.op list;
  require_fooling : bool;
}

type cell = {
  task : Task.kind;
  graph : string;
  op : string;
  classification : Corrupt.classification;
}

type shade_summary = {
  task : Task.kind;
  feasible : bool;
  reference_leader : int;
  reference_rounds : int;
  advice_bits : int;
  detected : int;
  harmless : int;
  fooling : int;
}

type report = {
  label : string;
  hypothesis : string;
  command : string;
  graph_label : string;
  require_fooling : bool;
  cells : cell list;
  summaries : shade_summary list;
}

let default_ops ~bits ~n =
  Corrupt.flips ~bits ~count:8
  @ Corrupt.bursts ~bits ~len:8 ~count:3
  @ Corrupt.truncations ~bits ~count:3
  @ [ Corrupt.(renumber_swap ~label:"reversal") (Gen.path n) (Corrupt.reversal n) ]

(* The committed CI gate: the smallest instance where every shade is
   feasible with at least two candidate leaders, so the reversal swap
   provably moves the election (the map-vertex-order argument —
   {!Corrupt}).  On path:4 all four vertices are view-singletons at
   depth 1 and the reversal exchanges the elected endpoint. *)
let smoke () =
  let n = 4 in
  {
    label = "adversary-smoke";
    hypothesis =
      "H-ADV-1: bit-level damage to map advice is detected (codec / \
       view-lookup / verifier / round budget), while advice honestly \
       computed for an isomorphic renumbering fools every shade — valid \
       outputs, wrong leader — because the decision procedure elects the \
       first feasible singleton in map vertex order.";
    command = "shades adversary campaign --smoke --out <dir>";
    graph_label = Printf.sprintf "path:%d" n;
    graph = Gen.path n;
    shades = List.map Shade.map_advice Task.all;
    ops = default_ops;
    require_fooling = true;
  }

(* Nightly, non-gating: same hypothesis over more instances and a
   denser mutation grid. *)
let wide () =
  let scenario ~graph_label ~graph =
    {
      label = "adversary-wide-" ^ graph_label;
      hypothesis =
        "H-ADV-2: the smoke classification generalizes across instances \
         — no bit-level mutation fools any shade, and reversal swaps \
         fool exactly the shades whose leader is not fixed by the \
         renumbering.";
      command =
        Printf.sprintf "shades adversary campaign --wide --out <dir> (%s)"
          graph_label;
      graph_label;
      graph;
      shades = List.map Shade.map_advice Task.all;
      ops =
        (fun ~bits ~n ->
          Corrupt.flips ~bits ~count:24
          @ Corrupt.bursts ~bits ~len:16 ~count:6
          @ Corrupt.truncations ~bits ~count:6
          @ [
              Corrupt.(renumber_swap ~label:"reversal") graph
                (Corrupt.reversal n);
            ]);
      (* H-ADV-2 predicts fooling only where the renumbering moves the
         leader — on a star the degree-unique center survives it — so
         the wide verdict checks consistency, not fooling presence *)
      require_fooling = false;
    }
  in
  [
    scenario ~graph_label:"path:4" ~graph:(Gen.path 4);
    scenario ~graph_label:"path:5" ~graph:(Gen.path 5);
    scenario ~graph_label:"path:6" ~graph:(Gen.path 6);
    scenario ~graph_label:"star:4" ~graph:(Gen.star 4);
  ]

let tally cells task =
  List.fold_left
    (fun (d, h, f) (c : cell) ->
      if c.task <> task then (d, h, f)
      else
        match c.classification with
        | Corrupt.Detected _ -> (d + 1, h, f)
        | Corrupt.Harmless _ -> (d, h + 1, f)
        | Corrupt.Fooling _ -> (d, h, f + 1))
    (0, 0, 0) cells

let run ?domains (scenario : scenario) =
  let n = Port_graph.order scenario.graph in
  (* Reference runs are sequential (one per shade); mutants fan out on
     the pool.  An infeasible shade (the honest oracle itself rejects
     the instance) is reported, not hidden. *)
  let prepared =
    List.map
      (fun shade ->
        match Corrupt.prepare shade scenario.graph with
        | p -> (shade, Some p)
        | exception Invalid_argument _ -> (shade, None))
      scenario.shades
  in
  let jobs =
    List.concat_map
      (fun (shade, p) ->
        match p with
        | None -> []
        | Some p ->
            List.map
              (fun op -> (Shade.task shade, p, op))
              (scenario.ops ~bits:p.Corrupt.advice_bits ~n))
      prepared
  in
  let classified =
    Pool.map ?domains
      (fun (task, p, op) ->
        ( task,
          Corrupt.op_label op,
          (p.Corrupt.classify op
           : Corrupt.classification) ))
      (Array.of_list jobs)
  in
  let cells =
    Array.to_list classified
    |> List.map (fun (task, op, classification) ->
           { task; graph = scenario.graph_label; op; classification })
  in
  let summaries =
    List.map
      (fun (shade, p) ->
        let task = Shade.task shade in
        match p with
        | None ->
            {
              task;
              feasible = false;
              reference_leader = -1;
              reference_rounds = 0;
              advice_bits = 0;
              detected = 0;
              harmless = 0;
              fooling = 0;
            }
        | Some p ->
            let detected, harmless, fooling = tally cells task in
            {
              task;
              feasible = true;
              reference_leader = p.Corrupt.reference_leader;
              reference_rounds = p.Corrupt.reference_rounds;
              advice_bits = p.Corrupt.advice_bits;
              detected;
              harmless;
              fooling;
            })
      prepared
  in
  {
    label = scenario.label;
    hypothesis = scenario.hypothesis;
    command = scenario.command;
    graph_label = scenario.graph_label;
    require_fooling = scenario.require_fooling;
    cells;
    summaries;
  }

let verdict ?require_fooling report =
  let require_fooling =
    Option.value require_fooling ~default:report.require_fooling
  in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun s ->
      if s.feasible then begin
        if require_fooling && s.fooling < 1 then
          fail "%s: no fooling corruption found" (Task.kind_to_string s.task);
        (* the consistency cross-check: an accepted mutant must agree
           with its own classification — a "harmless" wrong leader or a
           "fooling" same leader would be an undetected corruption *)
        List.iter
          (fun (c : cell) ->
            if c.task = s.task then
              match c.classification with
              | Corrupt.Harmless { leader; _ }
                when leader <> s.reference_leader ->
                  fail "%s/%s: classified harmless but leader moved"
                    (Task.kind_to_string s.task) c.op
              | Corrupt.Fooling { leader; reference; _ }
                when leader = reference ->
                  fail "%s/%s: classified fooling but leader unchanged"
                    (Task.kind_to_string s.task) c.op
              | _ -> ())
          report.cells
      end)
    report.summaries;
  match List.rev !problems with [] -> Ok () | ps -> Error ps

(* --- persistence: results store + markdown + JSON report --- *)

let record_of_cell c =
  let class_ = Corrupt.class_label c.classification in
  let reason, rounds, leader =
    match c.classification with
    | Corrupt.Detected { reason } -> (reason, 0, -1)
    | Corrupt.Harmless { leader; rounds } -> ("", rounds, leader)
    | Corrupt.Fooling { leader; rounds; _ } -> ("", rounds, leader)
  in
  {
    Store.params =
      [
        ("family", Json.String "adversary");
        ("task", Json.String (Task.kind_to_string c.task));
        ("graph", Json.String c.graph);
        ("op", Json.String c.op);
        ("class", Json.String class_);
        ("reason", Json.String reason);
        ("leader", Json.Int leader);
      ];
    rounds;
    messages = 0;
    advice_bits = 0;
    wall_ns = 0;
    metrics = [];
  }

let record_of_summary (s : shade_summary) graph =
  {
    Store.params =
      [
        ("family", Json.String "adversary");
        ("task", Json.String (Task.kind_to_string s.task));
        ("graph", Json.String graph);
        ("op", Json.String "reference");
        ( "class",
          Json.String (if s.feasible then "reference" else "infeasible") );
        ("reason", Json.String "");
        ("leader", Json.Int s.reference_leader);
      ];
    rounds = s.reference_rounds;
    messages = 0;
    advice_bits = s.advice_bits;
    wall_ns = 0;
    metrics = [];
  }

let to_store report =
  Store.make ~label:report.label
    (List.map (fun s -> record_of_summary s report.graph_label)
       report.summaries
    @ List.map record_of_cell report.cells)

(* One shard per task: re-running a campaign for one shade replaces one
   shard; the manifest digests drive the gate's skip-unchanged diff. *)
let slice r =
  List.filter (fun (k, _) -> k = "family" || k = "task") r.Store.params

let save ~dir report = ignore (Store.Sharded.save ~slice ~dir (to_store report))

let gate ~baseline_dir report =
  match verdict report with
  | Error ps -> Error (List.map (fun p -> "verdict: " ^ p) ps)
  | Ok () -> (
      match Store.Sharded.diff ~slice ~baseline_dir (to_store report) with
      | Error e -> Error [ "baseline: " ^ e ]
      | Ok [] -> Ok ()
      | Ok changes ->
          Error
            (List.map
               (fun (file, ch) -> file ^ ": " ^ Store.pp_change ch)
               changes))

let json_of_report report =
  Json.Obj
    [
      ("label", Json.String report.label);
      ("hypothesis", Json.String report.hypothesis);
      ("command", Json.String report.command);
      ("graph", Json.String report.graph_label);
      ("require_fooling", Json.Bool report.require_fooling);
      ( "summaries",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("task", Json.String (Task.kind_to_string s.task));
                   ("feasible", Json.Bool s.feasible);
                   ("reference_leader", Json.Int s.reference_leader);
                   ("reference_rounds", Json.Int s.reference_rounds);
                   ("advice_bits", Json.Int s.advice_bits);
                   ("detected", Json.Int s.detected);
                   ("harmless", Json.Int s.harmless);
                   ("fooling", Json.Int s.fooling);
                 ])
             report.summaries) );
      ( "cells",
        Json.List
          (List.map
             (fun (c : cell) ->
               Json.Obj
                 [
                   ("task", Json.String (Task.kind_to_string c.task));
                   ("graph", Json.String c.graph);
                   ("op", Json.String c.op);
                   ("class", Json.String (Corrupt.class_label c.classification));
                   ( "detail",
                     Json.String
                       (match c.classification with
                       | Corrupt.Detected { reason } -> reason
                       | Corrupt.Harmless { leader; _ } ->
                           Printf.sprintf "leader %d" leader
                       | Corrupt.Fooling { leader; reference; _ } ->
                           Printf.sprintf "leader %d instead of %d" leader
                             reference) );
                 ])
             report.cells) );
      ( "verdict",
        match verdict report with
        | Ok () -> Json.String "pass"
        | Error ps -> Json.List (List.map (fun p -> Json.String p) ps) );
    ]

let markdown_of_report report =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# Campaign: %s" report.label;
  line "";
  line "## Hypothesis";
  line "";
  line "%s" report.hypothesis;
  line "";
  line "## Command";
  line "";
  line "```";
  line "%s" report.command;
  line "```";
  line "";
  line "Instance: `%s`." report.graph_label;
  line "";
  line "## Per-shade tallies";
  line "";
  line "| Task | Feasible | Ref. leader | Ref. rounds | Advice bits | Detected | Harmless | Fooling |";
  line "|------|----------|-------------|-------------|-------------|----------|----------|---------|";
  List.iter
    (fun s ->
      line "| %s | %b | %d | %d | %d | %d | %d | %d |"
        (Task.kind_to_string s.task)
        s.feasible s.reference_leader s.reference_rounds s.advice_bits
        s.detected s.harmless s.fooling)
    report.summaries;
  line "";
  line "## Classifications";
  line "";
  line "| Task | Op | Class | Detail |";
  line "|------|----|-------|--------|";
  List.iter
    (fun (c : cell) ->
      let class_, detail =
        match c.classification with
        | Corrupt.Detected { reason } -> ("detected", reason)
        | Corrupt.Harmless { leader; _ } ->
            ("harmless", Printf.sprintf "leader %d" leader)
        | Corrupt.Fooling { leader; reference; _ } ->
            ( "fooling",
              Printf.sprintf "leader %d instead of %d" leader reference )
      in
      line "| %s | `%s` | %s | %s |" (Task.kind_to_string c.task) c.op class_
        detail)
    report.cells;
  line "";
  line "## Verdict and decision";
  line "";
  (match verdict report with
  | Ok () ->
      if report.require_fooling then
        line
          "**Pass**: every shade has at least one fooling corruption and \
           every accepted mutant agrees with its classification.  Decision: \
           continue — the smoke instance is gated in `make check`; widen \
           via the nightly campaign."
      else
        line
          "**Pass**: every accepted mutant agrees with its classification \
           (fooling presence not demanded on this instance — the \
           renumbering need not move the leader).  Decision: continue.";
  | Error ps ->
      line "**Fail**:";
      line "";
      List.iter (fun p -> line "- %s" p) ps);
  Buffer.contents b
