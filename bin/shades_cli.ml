(* Command-line interface: inspect port-labeled graphs, views, election
   indexes, run advice schemes, and build the paper's graph families.

   Examples:
     shades_cli index -g path:5
     shades_cli views -g ring:6 -v 0 -d 2
     shades_cli elect -g star:5 -t cppe
     shades_cli family-g --delta 4 -k 2 -i 3
     shades_cli family-u --delta 4 -k 1 --sigma 2
     shades_cli family-j --mu 3 -k 4 --zeff 3 *)

open Cmdliner
open Shades_graph
module Json = Shades_json.Json
open Shades_views
open Shades_election
open Shades_families

(* The spec grammars (graphs, tasks, engines, trace labels) live in the
   server library so the CLI and the daemon's wire protocol accept
   exactly the same strings. *)
module Spec = Shades_server.Spec

let parse_graph = Spec.parse_exn

let graph_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "g"; "graph" ] ~docv:"SPEC" ~doc:"Graph to operate on.")

let task_arg =
  let task_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Spec.task_of_string s)),
        fun fmt k -> Format.pp_print_string fmt (Task.kind_to_string k) )
  in
  Arg.(
    value & opt task_conv Task.S
    & info [ "t"; "task" ] ~docv:"TASK" ~doc:"One of s, pe, ppe, cppe.")

let pp_psi = function Some k -> string_of_int k | None -> "infinite"

(* --- execution-engine flags (shared by elect, sweep, trace) ---

   Sharding is an execution strategy: results, telemetry and traces are
   identical to the sequential engine for every domain count, so these
   flags never change what a command measures — only how fast. *)

let exec_arg ~domains_flag =
  let engine =
    Arg.(
      value & opt string "sync"
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Execution engine for synchronous runs, named as in the \
             daemon's requests: $(b,sync) (also $(b,sequential)), or \
             $(b,sharded) — the vertex-sharded parallel engine, which \
             produces identical outputs, telemetry and traces on any \
             domain count.")
  and domains =
    Arg.(
      value & opt (some int) None
      & info [ domains_flag ] ~docv:"N"
          ~doc:
            "Worker domains for $(b,--engine sharded) (default: recommended \
             domain count minus one).")
  in
  let exec engine domains =
    match Spec.engine ?domains engine with
    | Ok e -> e.Spec.exec
    | Error e -> failwith e
  in
  Term.(const exec $ engine $ domains)

(* --- index --- *)

let index_cmd =
  let run spec =
    let g = parse_graph spec in
    Printf.printf "n=%d m=%d max-degree=%d feasible=%b\n" (Port_graph.order g)
      (Port_graph.size g) (Port_graph.max_degree g) (Refinement.feasible g);
    List.iter
      (fun (kind, psi) ->
        Printf.printf "psi_%-4s = %s\n" (Task.kind_to_string kind) (pp_psi psi))
      (Index.all g)
  in
  Cmd.v
    (Cmd.info "index" ~doc:"Compute the four election indexes of a graph.")
    Term.(const run $ graph_arg)

(* --- views --- *)

let views_cmd =
  let run spec v depth =
    let g = parse_graph spec in
    let view = View_tree.of_graph g v ~depth in
    Format.printf "B^%d(%d) = %a@." depth v View_tree.pp view;
    Format.printf "nodes in view: %d; encoded: %d bits@."
      (View_tree.node_count view)
      (Shades_bits.Bitstring.length (View_tree.encode view));
    let t = Refinement.compute g ~depth in
    Format.printf "view classes at depth %d: %d; unique nodes: %s@." depth
      (Refinement.class_count t ~depth)
      (String.concat ","
         (List.map string_of_int (Refinement.singletons t ~depth)))
  in
  let v_arg =
    Arg.(value & opt int 0 & info [ "v"; "vertex" ] ~docv:"V" ~doc:"Vertex.")
  in
  let d_arg =
    Arg.(value & opt int 1 & info [ "d"; "depth" ] ~docv:"D" ~doc:"Depth.")
  in
  Cmd.v
    (Cmd.info "views" ~doc:"Print a node's augmented truncated view.")
    Term.(const run $ graph_arg $ v_arg $ d_arg)

(* --- elect --- *)

let elect_cmd =
  let run spec task exec =
    let g = parse_graph spec in
    (* answers are spelled as in the daemon's elect "outputs" *)
    let (Shade.Shade { scheme; verify; to_json; _ }) = Shade.min_time task in
    let r = Scheme.run ~exec scheme g in
    match verify g r.Scheme.outputs with
    | Ok leader ->
        Printf.printf "leader: node %d (%d rounds, %d advice bits)\n" leader
          r.Scheme.rounds r.Scheme.advice_bits;
        Array.iteri
          (fun v o ->
            Printf.printf "  node %d -> %s\n" v (Json.to_string (to_json o)))
          r.Scheme.outputs
    | Error e -> Printf.printf "FAILED: %s\n" e
  in
  Cmd.v
    (Cmd.info "elect"
       ~doc:
         "Run a minimum-time leader election scheme through the LOCAL \
          simulator.")
    Term.(const run $ graph_arg $ task_arg $ exec_arg ~domains_flag:"domains")

(* --- dot --- *)

let dot_cmd =
  let run spec =
    let g = parse_graph spec in
    print_string (Port_graph.to_dot g)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the graph in Graphviz DOT format.")
    Term.(const run $ graph_arg)

(* --- quotient --- *)

let quotient_cmd =
  let run spec =
    let g = parse_graph spec in
    Format.printf "%a@." Quotient.pp (Quotient.of_graph g);
    Format.printf "feasible: %b@."
      (Quotient.is_trivial (Quotient.of_graph g))
  in
  Cmd.v
    (Cmd.info "quotient"
       ~doc:"Print the quotient (minimal base) of an anonymous network.")
    Term.(const run $ graph_arg)

(* --- tradeoff --- *)

let tradeoff_cmd =
  let run spec =
    let g = parse_graph spec in
    Printf.printf "n=%d; comparing minimum-time vs 2(n-1)-round schemes:\n"
      (Port_graph.order g);
    let report name rounds bits ok =
      Printf.printf "  %-28s %6d rounds %10d advice bits  %s\n" name rounds
        bits
        (if ok then "ok" else "FAILED")
    in
    let s_min = Scheme.run Select_by_view.scheme g in
    report "S (Thm 2.2, min time)" s_min.Scheme.rounds s_min.Scheme.advice_bits
      (Result.is_ok (Verify.selection g s_min.Scheme.outputs));
    let s_rel = Size_advice.run Size_advice.selection g in
    report "S (size advice)" s_rel.Size_advice.rounds
      s_rel.Size_advice.advice_bits
      (Result.is_ok (Verify.selection g s_rel.Size_advice.outputs));
    let c_min = Scheme.run Map_advice.complete_port_path_election g in
    report "CPPE (map advice, min time)" c_min.Scheme.rounds
      c_min.Scheme.advice_bits
      (Result.is_ok (Verify.complete_port_path_election g c_min.Scheme.outputs));
    let c_rel = Size_advice.run Size_advice.complete_port_path_election g in
    report "CPPE (size advice)" c_rel.Size_advice.rounds
      c_rel.Size_advice.advice_bits
      (Result.is_ok
         (Verify.complete_port_path_election g c_rel.Size_advice.outputs))
  in
  Cmd.v
    (Cmd.info "tradeoff"
       ~doc:"Compare minimum-time advice against the 2(n-1)-round schemes.")
    Term.(const run $ graph_arg)

(* --- labelings --- *)

let labelings_cmd =
  let run skeleton =
    let n, edges =
      match String.split_on_char ':' skeleton with
      | [ "path"; n ] ->
          let n = int_of_string n in
          (n, List.init (n - 1) (fun i -> (i, i + 1)))
      | [ "cycle"; n ] ->
          let n = int_of_string n in
          (n, List.init n (fun i -> (i, (i + 1) mod n)))
      | [ "star"; n ] ->
          let n = int_of_string n in
          (n, List.init (n - 1) (fun i -> (0, i + 1)))
      | _ -> failwith "skeleton: path:<n> | cycle:<n> | star:<n>"
    in
    let labelings = Gen.all_labelings n edges in
    let feas = ref 0 in
    let tally = Hashtbl.create 8 in
    List.iter
      (fun g ->
        match (Index.psi_s g, Index.psi_cppe g) with
        | Some s, Some c ->
            incr feas;
            Hashtbl.replace tally (s, c)
              (1 + Option.value ~default:0 (Hashtbl.find_opt tally (s, c)))
        | _ -> ())
      labelings;
    Printf.printf "%s: %d labelings, %d feasible\n" skeleton
      (List.length labelings) !feas;
    Hashtbl.fold (fun key count acc -> (key, count) :: acc) tally []
    |> List.sort compare
    |> List.iter (fun ((s, c), count) ->
           Printf.printf "  psi_S=%d psi_CPPE=%d: %d labelings\n" s c count)
  in
  let skel_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "s"; "skeleton" ] ~docv:"SKEL"
          ~doc:"Unlabeled skeleton: path:<n>, cycle:<n>, or star:<n>.")
  in
  Cmd.v
    (Cmd.info "labelings"
       ~doc:
         "Sweep every port labeling of a skeleton and tally feasibility \
          and indexes.")
    Term.(const run $ skel_arg)

(* --- sweep --- *)

let sweep_cmd =
  let open Shades_runtime in
  let run family delta_lo delta_hi k_lo k_hi sigmas is mus zeffs max_order
      domains out sharded tiny compare_with strict trace_out exec dry_run =
    let domains =
      match domains with Some d -> d | None -> Shades_pool.default_domains ()
    in
    (* Sweep-level registry: J-class points skipped by the node budget
       are tallied here — the grid shrinking must never be silent. *)
    let sweep_metrics = Metrics.create () in
    let jobs, label =
      if tiny then
        (* the smallest honest grid — the CI smoke test and the grid
           `make check` gates against the committed baseline *)
        (Sweep.tiny_jobs ~exec (), "tiny grid")
      else begin
        let delta = Sweep.range "delta" ~lo:delta_lo ~hi:delta_hi in
        let k = Sweep.range "k" ~lo:k_lo ~hi:k_hi in
        let g_jobs () =
          Sweep.gclass_jobs ~exec
            (Sweep.cross [ delta; k; Sweep.axis "i" is ])
        in
        let u_jobs () =
          Sweep.uclass_jobs ~exec
            (Sweep.cross [ delta; k; Sweep.axis "sigma" sigmas ])
        in
        let j_jobs () =
          Sweep.jclass_jobs ~exec ~max_order ~metrics:sweep_metrics
            (Sweep.cross [ Sweep.axis "mu" mus; k; Sweep.axis "z_eff" zeffs ])
        in
        let jobs =
          match family with
          | "g" -> g_jobs ()
          | "u" -> u_jobs ()
          | "j" -> j_jobs ()
          | "both" -> g_jobs () @ u_jobs ()
          | "all" -> g_jobs () @ u_jobs () @ j_jobs ()
          | f ->
              failwith
                ("unknown family: " ^ f ^ " (expected g, u, j, both or all)")
        in
        ( jobs,
          Printf.sprintf "family=%s delta=%d..%d k=%d..%d" family delta_lo
            delta_hi k_lo k_hi )
      end
    in
    let jclass_skipped =
      List.fold_left
        (fun acc (name, v) ->
          match v with
          | Metrics.Counter c when name = "jclass_skipped_max_order" -> acc + c
          | _ -> acc)
        0
        (Metrics.snapshot sweep_metrics)
    in
    if jclass_skipped > 0 then
      Printf.printf
        "note: %d j-class point%s over the %d-node budget skipped (raise \
         --max-order to include)\n"
        jclass_skipped
        (if jclass_skipped = 1 then "" else "s")
        max_order;
    if jobs = [] then failwith "sweep: empty grid (all points invalid)";
    if dry_run then begin
      (* the resolved schedule, nothing executed: the same job list and
         the same largest-cost-first pickup order a real run would use *)
      let arr = Array.of_list jobs in
      let rank = Array.make (Array.length arr) 0 in
      List.iteri
        (fun pos idx -> rank.(idx) <- pos + 1)
        (Sweep.schedule_order jobs);
      Printf.printf "dry run (%s): %d job%s, %d domain%s, nothing executed\n"
        label (Array.length arr)
        (if Array.length arr = 1 then "" else "s")
        domains
        (if domains = 1 then "" else "s");
      Printf.printf "%-32s %-8s %-12s %10s %5s\n" "label" "family" "engine"
        "cost" "lpt";
      Array.iteri
        (fun i (job : Sweep.job) ->
          Printf.printf "%-32s %-8s %-12s %10d %5d\n" (Sweep.label_of_job job)
            job.Sweep.family
            (Shades_trace.Trace.engine_to_string job.Sweep.engine)
            job.Sweep.cost rank.(i))
        arr;
      Printf.printf "total projected cost: %d nodes\n"
        (Array.fold_left (fun acc (j : Sweep.job) -> acc + j.Sweep.cost) 0 arr)
    end
    else begin
    let t0 = Unix.gettimeofday () in
    let records =
      match trace_out with
      | None -> Sweep.run ~domains jobs
      | Some dir ->
          let traced, _ = Sweep.run_traced ~domains jobs in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          List.iteri
            (fun idx (_, tr) ->
              let name =
                String.map
                  (fun c -> if c = '/' || c = ' ' then '_' else c)
                  tr.Shades_trace.Trace.meta.Shades_trace.Trace.label
              in
              Shades_trace.Codec.write
                ~path:
                  (Filename.concat dir (Printf.sprintf "%02d-%s.trace" idx name))
                tr)
            traced;
          Printf.printf "wrote %d trace%s to %s/\n" (List.length traced)
            (if List.length traced = 1 then "" else "s")
            dir;
          List.map fst traced
    in
    let dt = Unix.gettimeofday () -. t0 in
    let store = Store.make ~label records in
    if sharded then ignore (Store.Sharded.save ~dir:out store)
    else Store.save ~path:out store;
    Printf.printf "%-28s %8s %7s %10s %12s %10s %9s\n" "point" "n" "rounds"
      "messages" "advice bits" "verified" "wall";
    List.iter
      (fun r ->
        let param_str =
          String.concat " "
            (List.map
               (fun (name, v) ->
                 match v with
                 | Store.Json.String s -> s
                 | v -> name ^ "=" ^ Store.Json.to_string v)
               r.Store.params)
        in
        let counter name =
          match Store.metric r name with
          | Some (Metrics.Counter c) -> c
          | _ -> 0
        in
        Printf.printf "%-28s %8d %7d %10d %12d %10s %8.2fs\n" param_str
          (counter "graph_order") r.Store.rounds r.Store.messages
          r.Store.advice_bits
          (if counter "verified" = 1 then "ok" else "FAILED")
          (float_of_int r.Store.wall_ns /. 1e9))
      records;
    Printf.printf "wrote %s%s: %d records, %.2fs wall, %d domain%s\n" out
      (if sharded then " (sharded)" else "")
      (List.length records) dt domains
      (if domains = 1 then "" else "s");
    if
      List.exists
        (fun r ->
          match Store.metric r "verified" with
          | Some (Metrics.Counter 1) -> false
          | _ -> true)
        records
    then failwith "sweep: some runs failed verification";
    match compare_with with
    | None -> ()
    | Some path -> (
        let changes =
          if Sys.file_exists path && Sys.is_directory path then
            match Store.Sharded.diff ~baseline_dir:path store with
            | Error e -> failwith ("cannot load baseline " ^ path ^ ": " ^ e)
            | Ok changes -> changes
          else
            match Store.load ~path with
            | Error e -> failwith ("cannot load baseline " ^ path ^ ": " ^ e)
            | Ok baseline ->
                List.map
                  (fun c -> ("", c))
                  (Store.diff_changes ~baseline ~current:store)
        in
        match changes with
        | [] -> Printf.printf "no drift against %s\n" path
        | changes ->
            Printf.printf "drift against %s:\n" path;
            List.iter
              (fun (shard, c) ->
                Printf.printf "  %s%s\n"
                  (if shard = "" then "" else "[" ^ shard ^ "] ")
                  (Store.pp_change c))
              changes;
            let n_changed =
              List.length
                (List.filter (fun (_, c) -> Store.is_changed c) changes)
            in
            (* changed measurements always fail; under --strict any
               drift — including grid-shape changes — fails *)
            if strict || n_changed > 0 then begin
              Printf.eprintf
                "sweep: FAILED, %d drifting point%s (%d with changed \
                 measurements) against %s%s\n"
                (List.length changes)
                (if List.length changes = 1 then "" else "s")
                n_changed path
                (if strict then " [strict]" else "");
              exit 1
            end)
    end
  in
  let family_arg =
    Arg.(
      value & opt string "g"
      & info [ "family" ] ~docv:"FAM"
          ~doc:"Family to sweep: g (Selection on G), u (Port Election on U), \
                j (Complete Port-Position Election on scaled J), both (g and \
                u), or all.")
  in
  let range_arg name default_lo default_hi =
    ( Arg.(
        value & opt int default_lo
        & info [ name ^ "-min" ] ~docv:"N" ~doc:("Smallest " ^ name ^ ".")),
      Arg.(
        value & opt int default_hi
        & info [ name ^ "-max" ] ~docv:"N" ~doc:("Largest " ^ name ^ ".")) )
  in
  let delta_lo, delta_hi = range_arg "delta" 4 6 in
  let k_lo, k_hi = range_arg "k" 1 2 in
  let sigmas_arg =
    Arg.(
      value & opt (list int) [ 1 ]
      & info [ "sigma" ] ~docv:"S,..."
          ~doc:"Uniform sigma values for the U family axis.")
  in
  let is_arg =
    Arg.(
      value & opt (list int) [ 2; 3 ]
      & info [ "i" ] ~docv:"I,..." ~doc:"Graph indexes for the G family axis.")
  in
  let mus_arg =
    Arg.(
      value & opt (list int) [ 3 ]
      & info [ "mu" ] ~docv:"MU,..." ~doc:"Arities for the J family axis.")
  in
  let zeffs_arg =
    Arg.(
      value & opt (list int) [ 1; 2; 3 ]
      & info [ "zeff" ] ~docv:"Z,..."
          ~doc:"Scaled chain exponents for the J family axis (2^zeff \
                gadgets); J points also need $(b,--k-min) >= 4.")
  in
  let max_order_arg =
    Arg.(
      value & opt int Shades_runtime.Sweep.default_max_order
      & info [ "max-order" ] ~docv:"N"
          ~doc:"Node budget for J-class points: points whose exact instance \
                order exceeds N are skipped (and reported, never silently).")
  in
  let domains_arg =
    Arg.(
      value & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains (default: recommended count minus one).")
  in
  let out_arg =
    Arg.(
      value & opt string "BENCH_sweep.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Results file to write.")
  in
  let sharded_arg =
    Arg.(
      value & flag
      & info [ "sharded" ]
          ~doc:"Write a sharded store: treat $(b,--output) as a directory \
                holding one shard file per (family, delta) slice plus a \
                digest manifest.")
  in
  let tiny_arg =
    Arg.(
      value & flag
      & info [ "tiny" ]
          ~doc:"Smoke-test grid (overrides family/range flags) — used by \
                'make check'.")
  in
  let compare_arg =
    Arg.(
      value & opt (some string) None
      & info [ "compare" ] ~docv:"PATH"
          ~doc:"Diff the results against a previously saved store (timing \
                fields ignored): a single-file store, or a sharded store \
                directory — then unchanged shards are skipped by digest. \
                Changed measurements exit nonzero.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"With $(b,--compare): exit nonzero on any drift at all, \
                including added or removed sweep points (grid-shape \
                changes), not just changed measurements.")
  in
  let dry_run_arg =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"Resolve the grid and print the job list — label, family, \
                engine, projected node cost, and the LPT pickup order a \
                real run would use — without executing anything or \
                writing any file.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"DIR"
          ~doc:"Record every job's event stream and write one trace file \
                per record into DIR (created if missing).  Tracing never \
                changes the records, so $(b,--compare) still applies.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a parameter grid over the lower-bound families in parallel and \
          write a schema-versioned results store.")
    Term.(
      const run $ family_arg $ delta_lo $ delta_hi $ k_lo $ k_hi $ sigmas_arg
      $ is_arg $ mus_arg $ zeffs_arg $ max_order_arg $ domains_arg $ out_arg
      $ sharded_arg $ tiny_arg $ compare_arg $ strict_arg $ trace_out_arg
      $ exec_arg ~domains_flag:"engine-domains" $ dry_run_arg)

(* --- trace --- *)

module Trace = Shades_trace.Trace
module Codec = Shades_trace.Codec
module Replay = Shades_trace.Replay
module Tdiff = Shades_trace.Diff
module Event = Shades_trace.Event
module Baseline = Shades_trace.Baseline

let plural n = if n = 1 then "" else "s"

(* The trace subcommands' exit codes are part of their contract (the
   Makefile and CI distinguish divergence from decode failure): 0 =
   identical / success, 1 = divergent, 2 = a trace, manifest or
   baseline file could not be read or decoded. *)
let trace_exits =
  [
    Cmdliner.Cmd.Exit.info 0 ~doc:"on success (traces agree / gate clean).";
    Cmdliner.Cmd.Exit.info 1 ~doc:"on divergence (including grid-shape drift).";
    Cmdliner.Cmd.Exit.info 2
      ~doc:"when a trace, manifest or baseline file cannot be read or decoded.";
    Cmdliner.Cmd.Exit.info 124 ~doc:"on command line parsing errors.";
    Cmdliner.Cmd.Exit.info 125 ~doc:"on unexpected internal errors (bugs).";
  ]

let load_trace path =
  match Codec.read ~path with
  | Ok t -> t
  | Error e ->
      (* decode failures exit 2, distinct from divergence's 1 *)
      Printf.eprintf "%s: %s\n" path e;
      exit 2

let trace_file_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Trace file.")

let trace_record_cmd =
  let run spec task async seed capacity out =
    let g = parse_graph spec in
    let engine = if async then Trace.Async { seed } else Trace.Sync in
    let r = Trace.recorder ?capacity () in
    Shade.trace_exec task ~engine g (Trace.emit r);
    let draft =
      Trace.capture r
        {
          Trace.engine;
          graph_order = Port_graph.order g;
          advice_bits = 0;
          label = Spec.trace_label ~task spec;
        }
    in
    let advice_bits =
      Array.fold_left
        (fun acc e ->
          match e with
          | Event.Advice_read { bits; _ } -> max acc bits
          | _ -> acc)
        0 draft.Trace.events
    in
    let trace =
      { draft with Trace.meta = { draft.Trace.meta with Trace.advice_bits } }
    in
    Codec.write ~path:out trace;
    let s = Trace.stats trace in
    Printf.printf
      "wrote %s: %s, n=%d, %d advice bits, %d events (%d dropped), %d \
       round%s, %d sends, %d sync markers\n"
      out
      (Trace.engine_to_string engine)
      trace.Trace.meta.Trace.graph_order advice_bits s.Trace.events
      s.Trace.dropped s.Trace.rounds (plural s.Trace.rounds) s.Trace.sends
      s.Trace.sync_markers
  in
  let async_arg =
    Arg.(
      value & flag
      & info [ "async" ]
          ~doc:"Execute through the α-synchronizer (seeded delays) instead \
                of the synchronous engine.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"Delay PRNG seed (with $(b,--async)).")
  in
  let capacity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Recorder ring-buffer capacity (default 1048576 events); \
                beyond it the oldest events are evicted and counted.")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace file to write.")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run an election scheme through the simulator and record its \
          event stream to a versioned binary trace.")
    Term.(
      const run $ graph_arg $ task_arg $ async_arg $ seed_arg $ capacity_arg
      $ out_arg)

let trace_replay_cmd =
  let run file =
    let trace = load_trace file in
    let task, spec =
      match Spec.parse_trace_label trace.Trace.meta.Trace.label with
      | Ok parsed -> parsed
      | Error e -> failwith e
    in
    let engine = trace.Trace.meta.Trace.engine in
    match Replay.run trace (Shade.trace_exec task ~engine (parse_graph spec)) with
    | Ok () ->
        Printf.printf "replay ok: %d events reproduced (%s on %s, %s)\n"
          (Array.length trace.Trace.events)
          (String.lowercase_ascii (Task.kind_to_string task))
          spec (Trace.engine_to_string engine)
    | Error d ->
        Printf.printf "replay DIVERGED at %s\n" (Replay.pp_divergence d);
        exit 1
  in
  Cmd.v
    (Cmd.info "replay" ~exits:trace_exits
       ~doc:
         "Re-execute a recorded run and fail on the first event that \
          differs from the trace.")
    Term.(const run $ trace_file_arg)

let trace_diff_cmd =
  let run left right limit =
    let l = load_trace left and r = load_trace right in
    match Tdiff.divergences ~limit l r with
    | [] ->
        Printf.printf "traces agree modulo synchronizer markers (%s vs %s)\n"
          (Trace.engine_to_string l.Trace.meta.Trace.engine)
          (Trace.engine_to_string r.Trace.meta.Trace.engine)
    | ds ->
        List.iter (fun d -> print_endline (Tdiff.pp_divergence d)) ds;
        Printf.printf "%d divergence(s)%s\n" (List.length ds)
          (if List.length ds >= limit then " (capped)" else "");
        exit 1
  in
  let left_arg =
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"LEFT" ~doc:"Trace.")
  in
  let right_arg =
    Arg.(
      required & pos 1 (some string) None & info [] ~docv:"RIGHT" ~doc:"Trace.")
  in
  let limit_arg =
    Arg.(
      value & opt int 100
      & info [ "limit" ] ~docv:"N" ~doc:"Report at most N divergences.")
  in
  Cmd.v
    (Cmd.info "diff" ~exits:trace_exits
       ~doc:
         "Align two traces (synchronizer markers modulo'd out) and report \
          the earliest divergences as (round, vertex, event).  Exits 0 when \
          the traces agree, 1 on divergence, 2 when a file cannot be \
          decoded.")
    Term.(const run $ left_arg $ right_arg $ limit_arg)

let trace_stats_cmd =
  let run file =
    let t = load_trace file in
    let s = Trace.stats t in
    Printf.printf "label:        %s\n" t.Trace.meta.Trace.label;
    Printf.printf "engine:       %s\n"
      (Trace.engine_to_string t.Trace.meta.Trace.engine);
    Printf.printf "graph order:  %d\n" t.Trace.meta.Trace.graph_order;
    Printf.printf "advice bits:  %d\n" t.Trace.meta.Trace.advice_bits;
    Printf.printf "events:       %d (+%d dropped)\n" s.Trace.events
      s.Trace.dropped;
    Printf.printf "rounds:       %d (max round %d)\n" s.Trace.rounds
      s.Trace.max_round;
    Printf.printf "sends:        %d (total size %d)\n" s.Trace.sends
      s.Trace.send_size_total;
    Printf.printf "delivers:     %d\n" s.Trace.delivers;
    Printf.printf "decides:      %d\n" s.Trace.decides;
    Printf.printf "halts:        %d\n" s.Trace.halts;
    Printf.printf "advice reads: %d\n" s.Trace.advice_reads;
    Printf.printf "sync markers: %d\n" s.Trace.sync_markers;
    if s.Trace.crashes > 0 then
      Printf.printf "crashes:      %d\n" s.Trace.crashes;
    match Trace.per_round_sends t with
    | [] -> ()
    | per_round ->
        Printf.printf "sends by round:%s\n"
          (String.concat ""
             (List.map
                (fun (r, c) -> Printf.sprintf " %d:%d" r c)
                per_round))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Summarize a recorded trace.")
    Term.(const run $ trace_file_arg)

(* bless/gate share the tiny-grid runner: both re-record the grid with
   the same job keys, so what `gate` compares is exactly what `bless`
   committed. *)
let baseline_dir_arg =
  Arg.(
    value & opt string "BENCH_tiny/traces"
    & info [ "b"; "baseline" ] ~docv:"DIR"
        ~doc:"Blessed-trace store directory (one .shtr file per tiny-grid \
              job plus a digest manifest).")

let trace_domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains (default: recommended count minus one).  The \
              traces carry no wall-clock data, so the domain count never \
              changes what gets blessed or gated.")

let trace_bless_cmd =
  let run dir domains exec =
    let open Shades_runtime in
    let domains =
      match domains with Some d -> d | None -> Shades_pool.default_domains ()
    in
    let jobs = Sweep.tiny_jobs ~exec () in
    let traced, _ = Sweep.run_traced ~domains jobs in
    let keyed =
      List.map2 (fun job (_, tr) -> (Sweep.key_of_job job, tr)) jobs traced
    in
    let m = Baseline.save ~dir keyed in
    Printf.printf "blessed %d baseline trace%s into %s/ (format v%d)\n"
      (List.length m.Baseline.entries)
      (plural (List.length m.Baseline.entries))
      dir m.Baseline.version;
    List.iter
      (fun e ->
        Printf.printf "  %s  %s (%d event%s)\n" e.Baseline.digest
          e.Baseline.key e.Baseline.events (plural e.Baseline.events))
      m.Baseline.entries
  in
  Cmd.v
    (Cmd.info "bless"
       ~doc:
         "Re-record the tiny grid and commit its traces as the blessed \
          baselines that $(b,trace gate) (and 'make check') compare \
          against.  Unchanged traces are left untouched on disk.")
    Term.(
      const run $ baseline_dir_arg $ trace_domains_arg
      $ exec_arg ~domains_flag:"engine-domains")

let trace_gate_cmd =
  let run dir json_out domains exec =
    let open Shades_runtime in
    let domains =
      match domains with Some d -> d | None -> Shades_pool.default_domains ()
    in
    let jobs = Sweep.tiny_jobs ~exec () in
    let _, report = Sweep.run_traced ~domains ~baseline:dir jobs in
    match report with
    | None | Some (Error _) ->
        (match report with
        | Some (Error e) -> Printf.eprintf "trace gate: %s\n" e
        | _ -> Printf.eprintf "trace gate: no report produced\n");
        exit 2
    | Some (Ok r) -> (
        Option.iter
          (fun path ->
            let oc = open_out_bin path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc
                  (Shades_json.Json.to_string (Baseline.report_to_json r));
                output_char oc '\n');
            Printf.printf "wrote divergence report to %s\n" path)
          json_out;
        if Baseline.clean r then
          Printf.printf
            "trace gate: %d job%s identical to the blessed baselines in %s/\n"
            (List.length r.Baseline.jobs)
            (plural (List.length r.Baseline.jobs))
            dir
        else begin
          List.iter prerr_endline (Baseline.pp_report r);
          Printf.eprintf "trace gate: FAILED against %s/\n" dir;
          (* unreadable baselines are an infrastructure failure (2),
             not a behavioural divergence (1) *)
          exit (if Baseline.has_corrupt r then 2 else 1)
        end)
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the full report as JSON to FILE (the CI \
                divergence artifact).")
  in
  Cmd.v
    (Cmd.info "gate" ~exits:trace_exits
       ~doc:
         "Re-record the tiny grid and compare every trace against the \
          blessed baselines, failing with the first divergent (round, \
          vertex, event) per drifted job.  Unchanged traces are skipped by \
          digest without decoding.")
    Term.(
      const run $ baseline_dir_arg $ json_arg $ trace_domains_arg
      $ exec_arg ~domains_flag:"engine-domains")

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Record, replay, diff and summarize execution traces of the LOCAL \
          simulator — and bless/gate the tiny grid's baseline traces.")
    [
      trace_record_cmd;
      trace_replay_cmd;
      trace_diff_cmd;
      trace_stats_cmd;
      trace_bless_cmd;
      trace_gate_cmd;
    ]

(* --- lint --- *)

let lint_cmd =
  let open Shades_analysis in
  (* the --rules vocabulary and help text are generated from the
     registry, so they cannot drift from the rules that actually run *)
  let rules_doc =
    "Comma-separated subset of rules to run.  Available: "
    ^ String.concat "; "
        (List.map
           (fun (name, doc) -> Printf.sprintf "$(b,%s) (%s)" name doc)
           (Lint.describe ()))
    ^ "."
  in
  let lint_exits =
    [
      Cmdliner.Cmd.Exit.info 0 ~doc:"when the tree lints clean.";
      Cmdliner.Cmd.Exit.info 1 ~doc:"on unsuppressed error findings.";
      Cmdliner.Cmd.Exit.info 2
        ~doc:
          "when the typed ASTs (.cmt) cannot be discovered or decoded — \
           build first.";
      Cmdliner.Cmd.Exit.info 124 ~doc:"on command line parsing errors.";
      Cmdliner.Cmd.Exit.info 125 ~doc:"on unexpected internal errors (bugs).";
    ]
  in
  let run json sarif rules root paths =
    let rules = match rules with [] -> None | rs -> Some rs in
    let paths = match paths with [] -> [ "lib" ] | ps -> ps in
    let result = Lint.run ?rules ~root ~paths () in
    (match result with
    | Error e -> Printf.eprintf "lint: %s\n" e
    | Ok report ->
        Option.iter
          (fun path ->
            Report.write_json ~path report;
            Printf.printf "wrote lint report to %s\n" path)
          json;
        Option.iter
          (fun path ->
            (* selection cannot fail here: Lint.run already resolved it *)
            let selected =
              match Lint.select rules with Ok rs -> rs | Error _ -> Lint.rules
            in
            Report.write_sarif ~path ~rules:selected report;
            Printf.printf "wrote SARIF log to %s\n" path)
          sarif;
        Format.printf "%a@?" Report.pp report);
    exit (Lint.exit_code result)
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report as JSON to FILE (the CI artifact).")
  in
  let sarif_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sarif" ] ~docv:"FILE"
          ~doc:
            "Also write the report as a SARIF 2.1.0 log to FILE (the \
             dialect GitHub code scanning ingests).")
  in
  let rules_arg =
    Arg.(value & opt (list string) [] & info [ "rules" ] ~docv:"R1,R2" ~doc:rules_doc)
  in
  let root_arg =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Project root; .cmt files are read from its _build/default \
             mirror when one exists.")
  in
  let paths_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATHS"
          ~doc:"Source directories to lint (default: lib).")
  in
  Cmd.v
    (Cmd.info "lint" ~exits:lint_exits
       ~doc:
         "Run the shadescheck determinism & locality rules over the \
          project's typed ASTs.  Exits 0 clean, 1 on findings, 2 when \
          the .cmt files cannot be loaded.")
    Term.(const run $ json_arg $ sarif_arg $ rules_arg $ root_arg $ paths_arg)

(* --- families --- *)

let delta_arg =
  Arg.(value & opt int 4 & info [ "delta" ] ~docv:"DELTA" ~doc:"Max degree.")

let k_arg =
  Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Election index.")

let family_g_cmd =
  let run delta k i =
    let t = Gclass.build { Gclass.delta; k } ~i in
    let g = t.Gclass.graph in
    Printf.printf "G_%d of G_{%d,%d}: n=%d m=%d\n" i delta k
      (Port_graph.order g) (Port_graph.size g);
    Printf.printf "class size: %s graphs\n"
      (match Gclass.num_graphs { Gclass.delta; k } with
      | Some c -> string_of_int c
      | None ->
          Printf.sprintf "2^%.1f" (Gclass.num_graphs_log2 { Gclass.delta; k }));
    Printf.printf "psi_S = %s (expected %d)\n"
      (pp_psi (Refinement.min_unique_depth g))
      k;
    let r = Scheme.run Select_by_view.scheme g in
    Printf.printf "Thm 2.2 scheme: %d rounds, %d advice bits, leader %s\n"
      r.Scheme.rounds r.Scheme.advice_bits
      (match Verify.selection g r.Scheme.outputs with
      | Ok l -> Printf.sprintf "%d (r_{%d,2}=%d)" l i t.Gclass.special_root
      | Error e -> "FAILED: " ^ e)
  in
  let i_arg =
    Arg.(value & opt int 2 & info [ "i" ] ~docv:"I" ~doc:"Graph index.")
  in
  Cmd.v
    (Cmd.info "family-g" ~doc:"Build a graph of the class G (Section 2.2).")
    Term.(const run $ delta_arg $ k_arg $ i_arg)

let family_u_cmd =
  let run delta k s =
    let p = { Uclass.delta; k } in
    let t = Uclass.build p ~sigma:(Uclass.uniform_sigma p s) in
    let g = t.Uclass.graph in
    Printf.printf "G_sigma of U_{%d,%d} (sigma=%d uniform): n=%d m=%d\n" delta
      k s (Port_graph.order g) (Port_graph.size g);
    Printf.printf "psi_S = %s (expected %d)\n"
      (pp_psi (Refinement.min_unique_depth g))
      k;
    let r = Scheme.run Uclass.pe_scheme g in
    Printf.printf "Lemma 3.9 PE scheme: %d rounds, %d advice bits, %s\n"
      r.Scheme.rounds r.Scheme.advice_bits
      (match Verify.port_election g r.Scheme.outputs with
      | Ok l -> Printf.sprintf "leader %d" l
      | Error e -> "FAILED: " ^ e)
  in
  let s_arg =
    Arg.(value & opt int 1 & info [ "sigma" ] ~docv:"S" ~doc:"Uniform sigma.")
  in
  Cmd.v
    (Cmd.info "family-u" ~doc:"Build a graph of the class U (Section 3).")
    Term.(const run $ delta_arg $ k_arg $ s_arg)

let family_j_cmd =
  let run mu k z_eff =
    let p = { Jclass.mu; k; z_eff } in
    let t = Jclass.build p ~y:(Jclass.y_zero p) in
    let g = t.Jclass.graph in
    Printf.printf "scaled J_{%d,%d} with 2^%d gadgets: n=%d m=%d (full z=%d)\n"
      mu k z_eff (Port_graph.order g) (Port_graph.size g) (Jclass.z ~mu ~k);
    let answers = Jclass.cppe_assignment t in
    Printf.printf "Lemma 4.8 CPPE assignment: %s\n"
      (match Verify.complete_port_path_election g answers with
      | Ok l -> Printf.sprintf "verified, leader = rho_0 = %d" l
      | Error e -> "FAILED: " ^ e)
  in
  let mu_arg =
    Arg.(value & opt int 3 & info [ "mu" ] ~docv:"MU" ~doc:"Arity (>= 3).")
  in
  let k4_arg =
    Arg.(
      value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"Election index (>= 4).")
  in
  let z_arg =
    Arg.(
      value & opt int 3
      & info [ "zeff" ] ~docv:"Z"
          ~doc:"Chain 2^zeff gadgets (scaled template).")
  in
  Cmd.v
    (Cmd.info "family-j"
       ~doc:"Build a (scaled) graph of the class J (Section 4).")
    Term.(const run $ mu_arg $ k4_arg $ z_arg)

(* --- serve / client --- *)

(* The daemon subcommands' exit codes are part of their contract
   (scripts/serve_smoke.sh and CI distinguish a server-side rejection
   from an unreachable endpoint): 0 = success, 1 = the server answered
   with an error or an invalid verification verdict, 2 = the endpoint
   could not be bound or reached. *)
let server_exits =
  [
    Cmdliner.Cmd.Exit.info 0 ~doc:"on success (clean shutdown / ok reply).";
    Cmdliner.Cmd.Exit.info 1
      ~doc:
        "when the server answers with an error reply or an invalid \
         verification verdict.";
    Cmdliner.Cmd.Exit.info 2
      ~doc:"when the endpoint cannot be bound or reached.";
    Cmdliner.Cmd.Exit.info 124 ~doc:"on command line parsing errors.";
    Cmdliner.Cmd.Exit.info 125 ~doc:"on unexpected internal errors (bugs).";
  ]

let endpoint_conv =
  let parse s =
    match Shades_server.Protocol.endpoint_of_string s with
    | Ok e -> Ok e
    | Error msg -> Error (`Msg msg)
  in
  let print ppf e =
    Format.pp_print_string ppf (Shades_server.Protocol.endpoint_to_string e)
  in
  Arg.conv (parse, print) ~docv:"ENDPOINT"

let default_endpoint = "unix:/tmp/shades.sock"

let serve_cmd =
  let open Shades_server in
  let run listen http domains cache_capacity cache_dir cache_max_bytes
      max_frame metrics_out quiet =
    let service =
      Service.create ~cache_capacity ?cache_dir ?cache_max_bytes ()
    in
    let log =
      if quiet then fun _ -> ()
      else fun m -> Printf.eprintf "shades-serve: %s\n%!" m
    in
    let write_metrics () =
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc (Json.to_string (Service.stats_json service));
          output_char oc '\n';
          close_out oc;
          log ("metrics written to " ^ path))
        metrics_out
    in
    (match http with
    | Some h when h = listen ->
        Printf.eprintf
          "shades-serve: --http must differ from --listen (%s)\n"
          (Protocol.endpoint_to_string listen);
        exit 124
    | _ -> ());
    match Daemon.run ?domains ~max_frame ~log ?http listen service with
    | () -> write_metrics ()
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "shades-serve: cannot serve on %s: %s\n"
          (Protocol.endpoint_to_string listen)
          (Unix.error_message e);
        write_metrics ();
        exit 2
    | exception Failure msg ->
        Printf.eprintf "shades-serve: %s\n" msg;
        write_metrics ();
        exit 2
  in
  let listen_arg =
    Arg.(
      value
      & opt endpoint_conv
          (Result.get_ok (Protocol.endpoint_of_string default_endpoint))
      & info [ "l"; "listen" ] ~docv:"ENDPOINT"
          ~doc:
            "Endpoint to listen on: $(b,unix:<path>), $(b,tcp:<port>) or \
             $(b,tcp:<host>:<port>).")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Connection-handler domains (default: the machine's recommended \
             domain count).")
  in
  let http_arg =
    Arg.(
      value
      & opt (some endpoint_conv) None
      & info [ "http" ] ~docv:"ENDPOINT"
          ~doc:
            "Also serve an HTTP observability plane on ENDPOINT \
             ($(b,unix:<path>) or $(b,tcp:...)): $(b,GET /metrics) \
             (Prometheus text format) and $(b,GET /healthz).  Must differ \
             from $(b,--listen).")
  in
  let capacity_arg =
    Arg.(
      value
      & opt int Service.default_cache_capacity
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:
            "Memory-tier entries per cache (advice and results) before LRU \
             eviction.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist the advice and result caches under DIR (created if \
             missing): one file per content address, written atomically, \
             reloaded on restart so a daemon restarted on the same DIR \
             answers previously seen requests with zero recomputation.")
  in
  let cache_max_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Byte budget for each persistent cache tier directory (advice \
             and results separately).  A write that pushes a tier past the \
             budget evicts its oldest files (by mtime) until it fits; \
             evictions are counted as $(b,*_disk_evictions) in \
             $(b,GET /metrics).  Default: unbounded.")
  in
  let max_frame_arg =
    Arg.(
      value
      & opt int Protocol.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Largest accepted frame.")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the final stats snapshot (the $(b,stats) payload) to FILE \
             on exit — the CI smoke-test artifact.")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Suppress operational log lines (stderr).")
  in
  Cmd.v
    (Cmd.info "serve" ~exits:server_exits
       ~doc:
         "Run the election-as-a-service daemon: advise / elect / verify / \
          verify-trace / stats / batch over a framed JSONL protocol, with \
          content-addressed advice and result caches shared across \
          connections (optionally persisted with $(b,--cache-dir)) and an \
          optional HTTP metrics plane ($(b,--http)).  Blocks until a client \
          sends $(b,shutdown).")
    Term.(
      const run $ listen_arg $ http_arg $ domains_arg $ capacity_arg
      $ cache_dir_arg $ cache_max_bytes_arg $ max_frame_arg $ metrics_out_arg
      $ quiet_arg)

let client_cmd =
  let open Shades_server in
  let usage_failure msg =
    Printf.eprintf "shades-client: %s\n" msg;
    exit 124
  in
  let run connect connect_timeout connect_retries op spec task engine seed
      domains outputs trace_file requests =
    (* --outputs and --requests both accept inline JSON or @FILE *)
    let read_inline_or_file s =
      if String.length s > 0 && s.[0] = '@' then
        let path = String.sub s 1 (String.length s - 1) in
        match In_channel.with_open_bin path In_channel.input_all with
        | text -> text
        | exception Sys_error e -> usage_failure e
      else s
    in
    let graph_members () =
      match spec with
      | Some s -> [ ("graph", Json.String s); ("task", Json.String task) ]
      | None -> usage_failure ("op " ^ op ^ " needs --graph")
    in
    let req =
      match op with
      | "stats" | "shutdown" -> Json.Obj [ ("op", Json.String op) ]
      | "advise" -> Json.Obj (("op", Json.String op) :: graph_members ())
      | "elect" ->
          Json.Obj
            ((("op", Json.String op) :: graph_members ())
            @ [ ("engine", Json.String engine) ]
            @ List.filter_map
                (fun (name, v) -> Option.map (fun i -> (name, Json.Int i)) v)
                [ ("seed", seed); ("domains", domains) ])
      | "verify" ->
          let text =
            match outputs with
            | Some s -> read_inline_or_file s
            | None ->
                usage_failure
                  "op verify needs --outputs (a JSON list, or @FILE)"
          in
          let outputs_json =
            match Json.of_string text with
            | Ok j -> j
            | Error e -> usage_failure ("--outputs is not JSON: " ^ e)
          in
          Json.Obj
            ((("op", Json.String op) :: graph_members ())
            @ [ ("outputs", outputs_json) ])
      | "batch" ->
          let text =
            match requests with
            | Some s -> read_inline_or_file s
            | None ->
                usage_failure
                  "op batch needs --requests (a JSON list of request \
                   objects, or @FILE)"
          in
          let requests_json =
            match Json.of_string text with
            | Ok (Json.List _ as j) -> j
            | Ok _ -> usage_failure "--requests must be a JSON list"
            | Error e -> usage_failure ("--requests is not JSON: " ^ e)
          in
          Json.Obj
            [ ("op", Json.String op); ("requests", requests_json) ]
      | "verify-trace" ->
          let path =
            match trace_file with
            | Some p -> p
            | None -> usage_failure "op verify-trace needs --trace FILE"
          in
          let blob =
            match In_channel.with_open_bin path In_channel.input_all with
            | blob -> blob
            | exception Sys_error e -> usage_failure e
          in
          Json.Obj
            [
              ("op", Json.String op);
              ("trace", Json.String (Protocol.hex_encode blob));
            ]
      | other ->
          usage_failure
            ("unknown op: " ^ other
           ^ " (expected advise, elect, verify, verify-trace, stats, batch, \
              shutdown)")
    in
    match
      Client.with_connection ?timeout:connect_timeout
        ~attempts:(1 + max 0 connect_retries) connect (fun c ->
          Client.request c req)
    with
    | Error e | Ok (Error e) ->
        Printf.eprintf "shades-client: %s\n" e;
        exit 2
    | Ok (Ok reply) ->
        print_endline (Json.to_string reply);
        let ok =
          match Json.member "ok" reply with
          | Some (Json.Bool b) -> b
          | _ -> false
        in
        (* a well-formed reply to verify / verify-trace carries a
           verdict; an invalid one exits 1 like a server error, so
           scripts need no JSON parsing to gate on it.  A batch reply
           gates on every item: one failed or invalid item fails the
           whole command (the per-item replies are still printed). *)
        let reply_clean reply =
          let ok =
            match Json.member "ok" reply with
            | Some (Json.Bool b) -> b
            | _ -> false
          in
          let valid =
            match Json.member "result" reply with
            | Some r -> (
                match Json.member "valid" r with
                | Some (Json.Bool false) -> false
                | _ -> true)
            | None -> true
          in
          ok && valid
        in
        let batch_clean =
          match Json.member "result" reply with
          | Some r -> (
              match Json.member "replies" r with
              | Some (Json.List items) -> List.for_all reply_clean items
              | _ -> true)
          | None -> true
        in
        if not (ok && reply_clean reply && batch_clean) then exit 1
  in
  let connect_arg =
    Arg.(
      value
      & opt endpoint_conv
          (Result.get_ok (Protocol.endpoint_of_string default_endpoint))
      & info [ "c"; "connect" ] ~docv:"ENDPOINT"
          ~doc:
            "Endpoint to connect to: $(b,unix:<path>), $(b,tcp:<port>) or \
             $(b,tcp:<host>:<port>).")
  in
  let connect_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "connect-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Bound each connection attempt to SECONDS (fractional values \
             allowed) instead of the kernel's SYN-retry horizon — a \
             black-holed TCP host then fails fast with a timeout error.")
  in
  let connect_retries_arg =
    Arg.(
      value & opt int 0
      & info [ "connect-retries" ] ~docv:"N"
          ~doc:
            "Retry a failed $(b,tcp:) connect up to N more times with \
             exponential backoff (50ms doubling, capped at 1s) — for \
             racing a daemon that is still binding its port.  Unix-socket \
             connects never retry.")
  in
  let op_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:
            "One of $(b,advise), $(b,elect), $(b,verify), $(b,verify-trace), \
             $(b,stats), $(b,batch), $(b,shutdown).")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "g"; "graph" ] ~docv:"SPEC"
          ~doc:"Graph spec (same grammar as every other subcommand).")
  in
  let task_arg =
    Arg.(
      value & opt string "s"
      & info [ "t"; "task" ] ~docv:"TASK" ~doc:"Task: s, pe, ppe or cppe.")
  in
  let engine_arg =
    Arg.(
      value & opt string "sync"
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Election engine for $(b,elect): sync, sharded (vertex-sharded \
             parallel execution, identical results) or async.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Adversary schedule seed for $(b,--engine async) (the daemon \
             defaults it to 0).")
  in
  let client_domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains for $(b,--engine sharded).")
  in
  let outputs_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "outputs" ] ~docv:"JSON"
          ~doc:
            "Claimed per-node outputs for $(b,verify): a JSON list (the \
             $(b,elect) reply's \"outputs\" field), or $(b,@FILE) to read \
             it from FILE.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"SHTR trace file to upload for $(b,verify-trace).")
  in
  let requests_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "requests" ] ~docv:"JSON"
          ~doc:
            "Request objects for $(b,batch): a JSON list of ordinary \
             request payloads (each with its own \"op\"), or $(b,@FILE) to \
             read it from FILE.  The daemon answers them in one frame, in \
             order.")
  in
  Cmd.v
    (Cmd.info "client" ~exits:server_exits
       ~doc:
         "Send one request to a running $(b,serve) daemon and print the \
          JSON reply.  Exits 0 on an ok reply, 1 on a server error, an \
          invalid verdict, or any failed item in a $(b,batch) reply, 2 \
          when the endpoint is unreachable.")
    Term.(
      const run $ connect_arg $ connect_timeout_arg $ connect_retries_arg
      $ op_arg $ spec_arg $ task_arg $ engine_arg $ seed_arg
      $ client_domains_arg $ outputs_arg $ trace_arg $ requests_arg)

(* --- adversary --- *)

(* Same contract family as the trace gates: 0 = the adversary lost (or
   a gate is clean), 1 = the adversary won (a crash plan defeated the
   scheme, a mutant fooled a shade, a campaign verdict or baseline
   gate failed), 2 = an instance or baseline could not be used. *)
let adversary_exits =
  [
    Cmdliner.Cmd.Exit.info 0
      ~doc:"on success (scheme resilient / campaign verdict and gate clean).";
    Cmdliner.Cmd.Exit.info 1
      ~doc:
        "when the adversary wins: a crash plan aborts or stalls the scheme, \
         a corruption fools a shade, or a campaign fails its verdict or \
         drifts from the blessed baseline.";
    Cmdliner.Cmd.Exit.info 2
      ~doc:"when an instance is infeasible or a baseline cannot be read.";
    Cmdliner.Cmd.Exit.info 124 ~doc:"on command line parsing errors.";
    Cmdliner.Cmd.Exit.info 125 ~doc:"on unexpected internal errors (bugs).";
  ]

let adversary_cmd =
  let open Shades_adversary in
  let schedule_search_cmd =
    let run spec task seeds beam passes =
      let g = parse_graph spec in
      let (Shade.Shade { scheme; _ }) = Shade.map_advice task in
      let sweeps = Schedule.sweep_seeds scheme g ~seeds in
      Printf.printf "seeded delay plans on %s (task %s):\n" spec
        (Task.kind_to_string task);
      List.iter
        (fun (seed, m) ->
          Printf.printf "  seed %4d  makespan %8.3f\n" seed m)
        sweeps;
      let best_seed =
        List.fold_left (fun acc (_, m) -> Float.max acc m) 0. sweeps
      in
      let r =
        Schedule.search ~beam ~passes scheme g
          ~init:(Schedule.uniform g 0.05)
      in
      Printf.printf
        "search (beam=%d, passes=%d): makespan %.3f after %d evaluations\n"
        beam passes r.Schedule.makespan r.Schedule.evaluations;
      Printf.printf "adversarial gain over the best swept seed: %+.3f\n"
        (r.Schedule.makespan -. best_seed)
    in
    let seeds_arg =
      Arg.(
        value
        & opt (list int) [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        & info [ "seeds" ] ~docv:"S,..."
            ~doc:"Seeds of the swept per-edge delay distribution.")
    in
    let beam_arg =
      Arg.(
        value & opt int 2
        & info [ "beam" ] ~docv:"N" ~doc:"Beam width (1 = greedy ascent).")
    in
    let passes_arg =
      Arg.(
        value & opt int 2
        & info [ "passes" ] ~docv:"N"
            ~doc:
              "Full coordinate-ascent sweeps over the directed edges \
               (early exit when a pass stops improving).")
    in
    Cmd.v
      (Cmd.info "schedule-search" ~exits:adversary_exits
         ~doc:
           "Sweep seeded \xce\xb1-synchronizer delay plans, then \
            beam-search the per-edge delay space for the plan maximizing \
            the virtual completion time (makespan).  Outputs and round \
            counts are plan-invariant — asynchrony only surrenders \
            completion time to the adversary — so this prints makespans, \
            never election results.")
      Term.(
        const run $ graph_arg $ task_arg $ seeds_arg $ beam_arg $ passes_arg)
  in
  let crash_cmd =
    let run spec task crashes max_rounds =
      let g = parse_graph spec in
      let faults =
        List.map
          (fun (victim, at_round) ->
            { Shades_localsim.Engine.victim; at_round })
          crashes
      in
      let (Shade.Shade { scheme; _ }) = Shade.map_advice task in
      let plan = Fault.normalize ~n:(Port_graph.order g) faults in
      Printf.printf "plan: %s\n"
        (if plan = [] then "(no faults)"
         else
           String.concat ", "
             (List.map
                (fun { Shades_localsim.Engine.victim; at_round } ->
                  Printf.sprintf "%d@%d" victim at_round)
                plan));
      let outcome = Fault.run ?max_rounds scheme g ~faults in
      print_endline (Fault.describe outcome);
      (match outcome with
      | Fault.Survived _ -> ()
      | Fault.Stalled _ | Fault.Aborted _ -> exit 1)
    in
    let crash_arg =
      Arg.(
        value
        & opt_all (pair ~sep:'@' int int) []
        & info [ "crash" ] ~docv:"V@R"
            ~doc:
              "Crash vertex V at the start of round R (repeatable; the \
               earliest round wins per victim).  A node crashing at round \
               0 never acts; one crashing at round r sends nothing from \
               round r on.")
    in
    let max_rounds_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-rounds" ] ~docv:"N"
            ~doc:
              "Round budget: live nodes still undecided at N classify the \
               run as stalled.")
    in
    Cmd.v
      (Cmd.info "crash" ~exits:adversary_exits
         ~doc:
           "Run an election scheme under a crash-stop fault plan and \
            classify the outcome: survived (every live node decided), \
            stalled (round budget), or aborted (the paper's protocols \
            are not fault-tolerant — a crashed neighbour starves a live \
            node's view exchange).  Exits 1 unless the scheme survived.")
      Term.(const run $ graph_arg $ task_arg $ crash_arg $ max_rounds_arg)
  in
  let corrupt_cmd =
    let run spec task flips burst_len bursts truncations no_swap slack =
      let g = parse_graph spec in
      let shade = Shade.map_advice task in
      let prepared =
        try Corrupt.prepare ~slack shade g
        with Invalid_argument msg ->
          Printf.eprintf "shades adversary corrupt: %s\n" msg;
          exit 2
      in
      let bits = prepared.Corrupt.advice_bits in
      let n = Port_graph.order g in
      let ops =
        Corrupt.flips ~bits ~count:flips
        @ Corrupt.bursts ~bits ~len:burst_len ~count:bursts
        @ Corrupt.truncations ~bits ~count:truncations
        @
        if no_swap then []
        else
          [
            Corrupt.renumber_swap ~label:"reversal" g (Corrupt.reversal n);
          ]
      in
      Printf.printf
        "reference: leader %d in %d round%s, %d advice bits; %d mutants\n"
        prepared.Corrupt.reference_leader prepared.Corrupt.reference_rounds
        (plural prepared.Corrupt.reference_rounds)
        bits (List.length ops);
      let fooled = ref 0 in
      List.iter
        (fun op ->
          let c = prepared.Corrupt.classify op in
          let detail =
            match c with
            | Corrupt.Detected { reason } -> reason
            | Corrupt.Harmless { leader; rounds } ->
                Printf.sprintf "leader %d in %d rounds" leader rounds
            | Corrupt.Fooling { leader; reference; rounds } ->
                incr fooled;
                Printf.sprintf "leader %d instead of %d in %d rounds"
                  leader reference rounds
          in
          Printf.printf "  %-16s %-9s %s\n" (Corrupt.op_label op)
            (Corrupt.class_label c) detail)
        ops;
      if !fooled > 0 then begin
        Printf.printf "%d fooling corruption%s — the adversary wins\n"
          !fooled (plural !fooled);
        exit 1
      end
    in
    let flips_arg =
      Arg.(
        value & opt int 8
        & info [ "flips" ] ~docv:"N" ~doc:"Evenly spaced single-bit flips.")
    in
    let burst_len_arg =
      Arg.(
        value & opt int 8
        & info [ "burst-len" ] ~docv:"L" ~doc:"Length of each burst flip.")
    in
    let bursts_arg =
      Arg.(
        value & opt int 3
        & info [ "bursts" ] ~docv:"N" ~doc:"Evenly spaced burst flips.")
    in
    let truncations_arg =
      Arg.(
        value & opt int 3
        & info [ "truncations" ] ~docv:"N"
            ~doc:"Evenly spaced truncations (including empty advice).")
    in
    let no_swap_arg =
      Arg.(
        value & flag
        & info [ "no-swap" ]
            ~doc:
              "Skip the cross-instance reversal swap — the guaranteed \
               fooling channel.")
    in
    let slack_arg =
      Arg.(
        value & opt int 2
        & info [ "slack" ] ~docv:"N"
            ~doc:
              "Extra rounds granted to a mutant over the honest reference \
               before the budget detects it.")
    in
    Cmd.v
      (Cmd.info "corrupt" ~exits:adversary_exits
         ~doc:
           "Mutate a scheme's advice (bit flips, bursts, truncations, and \
            a cross-instance renumber swap) and classify every mutant: \
            detected, harmless, or fooling (valid outputs, wrong leader).  \
            Exits 1 if any mutant fools the shade.")
      Term.(
        const run $ graph_arg $ task_arg $ flips_arg $ burst_len_arg
        $ bursts_arg $ truncations_arg $ no_swap_arg $ slack_arg)
  in
  let campaign_cmd =
    let run smoke wide out compare domains =
      if smoke && wide then begin
        Printf.eprintf "shades adversary campaign: --smoke and --wide are \
                        mutually exclusive\n";
        exit 124
      end;
      if wide && compare <> None then begin
        Printf.eprintf "shades adversary campaign: --compare gates the \
                        smoke campaign only\n";
        exit 124
      end;
      let scenarios =
        if wide then Campaign.wide () else [ Campaign.smoke () ]
      in
      let failed = ref false in
      let unreadable = ref false in
      List.iter
        (fun scenario ->
          let report = Campaign.run ?domains scenario in
          Printf.printf "campaign %s on %s: %d classified mutants\n"
            report.Campaign.label report.Campaign.graph_label
            (List.length report.Campaign.cells);
          List.iter
            (fun (s : Campaign.shade_summary) ->
              if not s.Campaign.feasible then
                Printf.printf "  %-4s infeasible on this instance\n"
                  (Task.kind_to_string s.Campaign.task)
              else
                Printf.printf
                  "  %-4s ref leader %d (%d round%s, %d bits): %d detected, \
                   %d harmless, %d fooling\n"
                  (Task.kind_to_string s.Campaign.task)
                  s.Campaign.reference_leader s.Campaign.reference_rounds
                  (plural s.Campaign.reference_rounds)
                  s.Campaign.advice_bits s.Campaign.detected
                  s.Campaign.harmless s.Campaign.fooling)
            report.Campaign.summaries;
          (match out with
          | None -> ()
          | Some dir ->
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              let base = Filename.concat dir report.Campaign.label in
              Out_channel.with_open_bin (base ^ ".md") (fun oc ->
                  Out_channel.output_string oc
                    (Campaign.markdown_of_report report));
              Out_channel.with_open_bin (base ^ ".json") (fun oc ->
                  Out_channel.output_string oc
                    (Json.to_string (Campaign.json_of_report report) ^ "\n"));
              Campaign.save ~dir:(base ^ ".store") report;
              Printf.printf "  wrote %s.{md,json,store/}\n" base);
          let outcome, what =
            match compare with
            | Some baseline_dir ->
                (Campaign.gate ~baseline_dir report, "gate")
            | None -> (Campaign.verdict report, "verdict")
          in
          match outcome with
          | Ok () -> Printf.printf "  %s: clean\n" what
          | Error problems ->
              failed := true;
              List.iter
                (fun p ->
                  if String.length p >= 9 && String.sub p 0 9 = "baseline:"
                  then unreadable := true;
                  Printf.eprintf "  %s %s: %s\n" report.Campaign.label what p)
                problems)
        scenarios;
      if !unreadable then exit 2;
      if !failed then begin
        Printf.eprintf "adversary campaign: FAILED\n";
        exit 1
      end
    in
    let smoke_arg =
      Arg.(
        value & flag
        & info [ "smoke" ]
            ~doc:
              "The committed CI campaign (the default): all four shades \
               on path:4 under the default mutation grid.")
    in
    let wide_arg =
      Arg.(
        value & flag
        & info [ "wide" ]
            ~doc:
              "The nightly extension: the same hypothesis over more \
               instances and a denser mutation grid; never gated.")
    in
    let out_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "out" ] ~docv:"DIR"
            ~doc:
              "Write each campaign's markdown report, JSON report, and \
               blessable sharded store under DIR (created if missing) as \
               <label>.md, <label>.json, <label>.store/.")
    in
    let compare_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "compare" ] ~docv:"STOREDIR"
            ~doc:
              "Gate against a blessed campaign store: the verdict must \
               pass and the classifications must match STOREDIR exactly \
               (any drift exits 1).  Smoke campaign only.")
    in
    let domains_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "domains" ] ~docv:"N"
            ~doc:
              "Worker domains for classifying mutants (default: \
               recommended count minus one).  Results are identical at \
               every domain count.")
    in
    Cmd.v
      (Cmd.info "campaign" ~exits:adversary_exits
         ~doc:
           "Run a hypothesis-driven corruption campaign: honest reference \
            runs per shade, then the whole mutation grid fanned onto the \
            domain pool, classified, tallied, and persisted (markdown + \
            JSON + sharded store).  The verdict demands at least one \
            fooling corruption per feasible shade and zero undetected \
            corruptions; $(b,--compare) additionally pins every \
            classification to a blessed baseline.")
      Term.(
        const run $ smoke_arg $ wide_arg $ out_arg $ compare_arg
        $ domains_arg)
  in
  Cmd.group
    (Cmd.info "adversary" ~exits:adversary_exits
       ~doc:
         "Adversarial campaigns against the election schemes: slow \
          \xce\xb1-synchronizer delay plans, crash-stop fault plans, and \
          advice-corruption campaigns with a gated classification \
          baseline.")
    [ schedule_search_cmd; crash_cmd; corrupt_cmd; campaign_cmd ]

let () =
  let doc =
    "Four shades of deterministic leader election in anonymous networks"
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "shades_cli" ~doc)
          [
            index_cmd; views_cmd; elect_cmd; dot_cmd; quotient_cmd;
            tradeoff_cmd; labelings_cmd; family_g_cmd; family_u_cmd;
            family_j_cmd; sweep_cmd; trace_cmd; lint_cmd; serve_cmd;
            client_cmd; adversary_cmd;
          ]))
