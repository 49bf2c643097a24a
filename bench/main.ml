(* Benchmark harness: one Bechamel test per experiment in EXPERIMENTS.md,
   plus the speed-gate plumbing around it.

   The paper is a theory paper, so its "tables and figures" are
   constructions and bounds; each bench regenerates one of them —
   building the lower-bound families, computing view refinements and
   election indexes, producing oracle advice, and running the
   minimum-time algorithms through the LOCAL simulator (sequential and
   vertex-sharded).

   Beyond the classic table (dune exec bench/main.exe), the harness
   reads and writes BENCH_micro baselines: per-kernel median wall time
   and mean allocation words, blessed with --out (make bless) and gated with
   --compare (make check / CI), with tolerance bands wide enough to
   survive machine noise — time medians travel badly across hosts, so
   the time band is generous and the nearly machine-independent
   allocation bands carry most of the regression-catching weight. *)

open Bechamel
open Toolkit
open Shades_graph
open Shades_views
open Shades_election
open Shades_families
module Json = Shades_json.Json

let stage = Staged.stage

(* --- E1: index hierarchy on random graphs --- *)

(* The two route-search kernels: one of the slowest CPPE graphs of the
   end-to-end cold-advise stream (spec random:9000839,40,13, ψ_CPPE = 2,
   where the joint route search meets many dead ends), and path:60,
   where ψ_PPE = 29 is far above ψ_S = 1 and the depth search matters. *)
let bench_index =
  let g = Gen.random (Random.State.make [| 7 |]) 7 ~extra_edges:3 in
  let cold = Gen.random (Random.State.make [| 9000839 |]) 40 ~extra_edges:13 in
  let path60 = Gen.path 60 in
  Test.make_grouped ~name:"index"
    [
      Test.make ~name:"hierarchy_n7" (stage (fun () -> Index.all g));
      Test.make ~name:"psi_s_n7" (stage (fun () -> Index.psi_s g));
      Test.make ~name:"psi_cppe_random_n40"
        (stage (fun () -> Index.psi_cppe cold));
      Test.make ~name:"psi_ppe_path60" (stage (fun () -> Index.psi_ppe path60));
    ]

(* --- views and refinement (machinery behind every experiment) --- *)

let bench_views =
  let g = Gen.random (Random.State.make [| 11 |]) 200 ~extra_edges:100 in
  let u41 =
    let p = { Uclass.delta = 4; k = 1 } in
    (Uclass.build p ~sigma:(Uclass.uniform_sigma p 1)).Uclass.graph
  in
  Test.make_grouped ~name:"views"
    [
      Test.make ~name:"refine_fixpoint_n200"
        (stage (fun () -> Refinement.fixpoint g));
      Test.make ~name:"refine_fixpoint_u41"
        (stage (fun () -> Refinement.fixpoint u41));
      Test.make ~name:"tree_depth3_n200"
        (stage (fun () -> View_tree.of_graph g 0 ~depth:3));
      Test.make ~name:"canonical_key_depth3"
        (let t = View_tree.of_graph g 0 ~depth:3 in
         stage (fun () -> View_tree.canonical_key t));
    ]

(* --- E4/E6: class G constructions and Thm 2.2 advice --- *)

let bench_gclass =
  let g42 = (Gclass.build { Gclass.delta = 4; k = 2 } ~i:3).Gclass.graph in
  Test.make_grouped ~name:"g_class"
    [
      Test.make ~name:"build_d4k2_i3"
        (stage (fun () -> Gclass.build { Gclass.delta = 4; k = 2 } ~i:3));
      Test.make ~name:"build_d5k1_i7"
        (stage (fun () -> Gclass.build { Gclass.delta = 5; k = 1 } ~i:7));
      Test.make ~name:"thm22_oracle_d4k2"
        (stage (fun () -> Select_by_view.scheme.Scheme.oracle g42));
      Test.make ~name:"thm22_full_run_d4k2"
        (stage (fun () -> Scheme.run Select_by_view.scheme g42));
    ]

(* --- E11/E14: class U constructions and Lemma 3.9 PE runs --- *)

let bench_uclass =
  let p = { Uclass.delta = 4; k = 1 } in
  let u = Uclass.build p ~sigma:(Uclass.uniform_sigma p 2) in
  let advice = Uclass.pe_scheme.Scheme.oracle u.Uclass.graph in
  Test.make_grouped ~name:"u_class"
    [
      Test.make ~name:"build_d4k1"
        (stage (fun () -> Uclass.build p ~sigma:(Uclass.uniform_sigma p 2)));
      Test.make ~name:"pe_oracle_d4k1"
        (stage (fun () -> Uclass.pe_scheme.Scheme.oracle u.Uclass.graph));
      Test.make ~name:"pe_run_d4k1"
        (stage (fun () ->
             Scheme.run_with_advice Uclass.pe_scheme u.Uclass.graph ~advice));
      Test.make ~name:"pe_verify_d4k1"
        (let r =
           Scheme.run_with_advice Uclass.pe_scheme u.Uclass.graph ~advice
         in
         stage (fun () -> Verify.port_election u.Uclass.graph r.Scheme.outputs));
    ]

(* --- E16-E22: layers, component H, class J --- *)

let bench_jclass =
  let p = { Jclass.mu = 3; k = 4; z_eff = 3 } in
  let j = Jclass.build p ~y:(Jclass.y_zero p) in
  Test.make_grouped ~name:"j_class"
    [
      Test.make ~name:"layer_l5_mu3"
        (stage (fun () ->
             let proto = Proto.create () in
             let _ = Layers.add proto ~mu:3 ~m:5 in
             Proto.build proto));
      Test.make ~name:"component_h_mu3_k4"
        (stage (fun () -> Component.standalone ~mu:3 ~k:4));
      Test.make ~name:"build_j_mu3_k4_z3"
        (stage (fun () -> Jclass.build p ~y:(Jclass.y_zero p)));
      Test.make ~name:"cppe_assignment"
        (stage (fun () -> Jclass.cppe_assignment j));
      Test.make ~name:"cppe_verify"
        (let answers = Jclass.cppe_assignment j in
         stage (fun () ->
             Verify.complete_port_path_election j.Jclass.graph answers));
    ]

(* --- minimum-time election with the map as advice --- *)

(* ψ_PPE = 14 on path:30, where one node's explicit depth-14 view has
   2^15 - 1 nodes: a node that rebuilt the map's views to find itself
   would pay that per map vertex, so this kernel sees ψ-scaling. *)
let bench_map_advice =
  let g = Gen.path 30 in
  Test.make_grouped ~name:"map_advice"
    [
      Test.make ~name:"ppe_elect_path30"
        (stage (fun () -> Scheme.run Map_advice.port_path_election g));
    ]

(* --- E10/E15: fooling runs --- *)

let bench_fooling =
  let ga = Gclass.build { Gclass.delta = 4; k = 1 } ~i:2 in
  let gb = Gclass.build { Gclass.delta = 4; k = 1 } ~i:7 in
  let advice_g = Select_by_view.scheme.Scheme.oracle ga.Gclass.graph in
  Test.make_grouped ~name:"fooling"
    [
      Test.make ~name:"selection_fooled_run"
        (stage (fun () ->
             Scheme.run_with_advice Select_by_view.scheme gb.Gclass.graph
               ~advice:advice_g));
    ]

(* --- simulator throughput --- *)

let bench_sim =
  let g = Gen.random (Random.State.make [| 13 |]) 500 ~extra_edges:250 in
  Test.make_grouped ~name:"sim"
    [
      Test.make ~name:"full_info_3rounds_n500"
        (stage (fun () ->
             Shades_localsim.Full_info.run g ~rounds:3
               ~advice:Shades_bits.Bitstring.empty
               ~decide:(fun ~advice:_ v -> v.View_tree.degree)));
    ]

(* --- engine hot path: CSR adjacency and the sharded executor --- *)

(* A cheap constant-size-message algorithm, so these kernels time the
   engines themselves (adjacency walks, inbox plumbing, barriers), not
   view-tree construction. *)
let countdown r =
  {
    Shades_localsim.Engine.init = (fun ~degree ~advice:_ -> (degree, r));
    send = (fun (_, left) ~port:_ -> if left > 0 then Some () else None);
    step = (fun (d, left) _ -> (d, left - 1));
    output = (fun (d, left) -> if left <= 0 then Some d else None);
  }

let bench_engine =
  let g = Gen.random (Random.State.make [| 31 |]) 2_000 ~extra_edges:1_000 in
  let csr = Port_graph.Csr.of_graph g in
  let no_advice = Shades_bits.Bitstring.empty in
  Test.make_grouped ~name:"engine"
    [
      Test.make ~name:"csr_build_n2000"
        (stage (fun () -> Port_graph.Csr.of_graph g));
      (* the same every-port sweep the engines run each round, on the
         two adjacency representations the repo has *)
      Test.make ~name:"csr_walk_n2000"
        (stage (fun () ->
             let acc = ref 0 in
             for v = 0 to Port_graph.Csr.order csr - 1 do
               for p = 0 to Port_graph.Csr.degree csr v - 1 do
                 acc :=
                   !acc
                   + Port_graph.Csr.neighbor_vertex csr v p
                   + Port_graph.Csr.neighbor_port csr v p
               done
             done;
             !acc));
      Test.make ~name:"adj_walk_n2000"
        (stage (fun () ->
             let acc = ref 0 in
             for v = 0 to Port_graph.order g - 1 do
               for p = 0 to Port_graph.degree g v - 1 do
                 let u, q = Port_graph.neighbor g v p in
                 acc := !acc + u + q
               done
             done;
             !acc));
      Test.make ~name:"seq_countdown_n2000"
        (stage (fun () ->
             Shades_localsim.Exec.(run default) g ~advice:no_advice
               (countdown 3)));
      Test.make ~name:"sharded_countdown_d2_n2000"
        (stage (fun () ->
             Shades_localsim.Exec.(run { default with timing = Sharded (Some 2) })
               g ~advice:no_advice (countdown 3)));
    ]

(* --- E25-E29 extensions: reconstruction, tradeoff, exact advice --- *)

let bench_extensions =
  let g = Gen.random (Random.State.make [| 21 |]) 40 ~extra_edges:20 in
  let n = Port_graph.order g in
  let ctx = Cview.create_ctx () in
  let deep = Cview.of_graph ctx g 0 ~depth:(Reconstruct.rounds_needed ~n) in
  let g_small = Gen.random (Random.State.make [| 22 |]) 10 ~extra_edges:5 in
  let p = { Uclass.delta = 4; k = 1 } in
  let ua = (Uclass.build p ~sigma:(Uclass.uniform_sigma p 1)).Uclass.graph in
  let ub = (Uclass.build p ~sigma:(Uclass.uniform_sigma p 2)).Uclass.graph in
  Test.make_grouped ~name:"extensions"
    [
      Test.make ~name:"cview_deep_n40"
        (stage (fun () ->
             let ctx = Cview.create_ctx () in
             Cview.of_graph ctx g 0 ~depth:(Reconstruct.rounds_needed ~n)));
      Test.make ~name:"reconstruct_n40"
        (stage (fun () -> Reconstruct.graph_of_cview ctx deep ~n));
      Test.make ~name:"canonical_order_n40"
        (stage (fun () -> Refinement.canonical_order g));
      Test.make ~name:"canonical_bfs_n40"
        (stage (fun () -> Port_graph.canonical g));
      Test.make ~name:"size_advice_cppe_n10"
        (stage (fun () ->
             Size_advice.run Size_advice.complete_port_path_election g_small));
      Test.make ~name:"async_flooding_n40"
        (stage (fun () ->
             Shades_localsim.Exec.(run { default with timing = Async (Seeded 0) })
               g ~advice:Shades_bits.Bitstring.empty (countdown 3)));
      Test.make ~name:"pe_sharable_u41"
        (stage (fun () -> Min_advice.pe_sharable ~depth:1 ua ub));
      Test.make ~name:"labelings_path5"
        (stage (fun () ->
             Gen.all_labelings 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ]));
    ]

(* --- the daemon's disk tier: one budgeted write --- *)

(* A budgeted tier held at its budget by 750 files of 64 bytes, so every
   put of a fresh key writes one file and evicts the oldest.  The tier is
   built before the measurement starts and removed after it. *)
let bench_server =
  let module Cache = Shades_server.Cache in
  let files = 750 and value = String.make 64 'x' in
  let key i = Printf.sprintf "k%09d" i in
  let allocate () =
    let dir = Filename.temp_dir "shades-bench-cache" "" in
    let persist =
      {
        Cache.dir;
        encode = Fun.id;
        decode = Result.ok;
        max_bytes = Some (files * String.length value);
      }
    in
    let c =
      Cache.create ~persist ~capacity:1
        ~metrics:(Shades_runtime.Metrics.create ()) ()
    in
    for i = 0 to files - 1 do
      Cache.put c (key i) value
    done;
    (dir, c, ref files)
  in
  let free (dir, _, _) =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Test.make_grouped ~name:"server"
    [
      Test.make_with_resource ~name:"cache_budgeted_put_n750" Test.uniq
        ~allocate ~free
        (stage (fun (_, c, next) ->
             Cache.put c (key !next) value;
             incr next));
    ]

(* --- E30: labeled baselines --- *)

let bench_labeled =
  let module L = Shades_labeled.Model in
  let g = Gen.oriented_ring 64 in
  let desc = Array.init 64 (fun i -> 64 - i) in
  Test.make_grouped ~name:"labeled"
    [
      Test.make ~name:"lcr_worst_n64"
        (stage (fun () ->
             L.run g ~labels:desc Shades_labeled.Chang_roberts.algorithm));
      Test.make ~name:"hs_n64"
        (stage (fun () ->
             L.run g ~labels:desc
               Shades_labeled.Hirschberg_sinclair.algorithm));
      Test.make ~name:"peterson_n64"
        (stage (fun () ->
             L.run g ~labels:desc Shades_labeled.Peterson.algorithm));
    ]

let all_tests =
  Test.make_grouped ~name:"shades"
    [
      bench_index; bench_views; bench_gclass; bench_uclass; bench_jclass;
      bench_map_advice; bench_fooling; bench_sim; bench_engine;
      bench_extensions; bench_labeled; bench_server;
    ]

(* --- measurement: per-kernel figures over the raw samples ---

   OLS slopes are great locally but fold sampling noise into the
   estimate in ways that vary across machines; for a gate we want a
   robust location statistic, so wall time is the median of the
   per-run values over all raw samples.

   Allocation needs its own measures: bechamel's stock instances read
   [Gc.quick_stat], whose allocation fields on the OCaml 5 runtime
   only advance when the GC merges a stats sample — between merges the
   counter is frozen, so a whole benchmark can read 0 words no matter
   what it allocates, and the gate flaps with prior heap state.
   [Gc.minor_words] and [Gc.counters] compute from the live allocation
   pointer instead, so the custom instances below are exact.  The
   per-run figure is total-words-over-total-runs, which also amortizes
   the boxing overhead of the counter reads themselves. *)

module Live_minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "live-minor-words"
  let unit () = "mnw"
end

module Live_major_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()

  let get () =
    let _minor, _promoted, major = Gc.counters () in
    major

  let label () = "live-major-words"
  let unit () = "mjw"
end

let live_minor_ext = Measure.register (module Live_minor_words)
let live_major_ext = Measure.register (module Live_major_words)

let live_minor_instance =
  Measure.instance (module Live_minor_words) live_minor_ext

let live_major_instance =
  Measure.instance (module Live_major_words) live_major_ext

type figures = {
  time_ns : float;  (** median wall time per run *)
  minor_words : float;  (** mean minor-heap words allocated per run *)
  major_words : float;  (** mean major-heap words allocated per run *)
}

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let label_clock = Measure.label Instance.monotonic_clock
let label_minor = Measure.label live_minor_instance
let label_major = Measure.label live_major_instance

let figures_of_benchmark (b : Benchmark.t) =
  let median_per_run label =
    median
      (Array.map
         (fun m -> Measurement_raw.get ~label m /. Measurement_raw.run m)
         b.Benchmark.lr)
  in
  let mean_per_run label =
    let words, runs =
      Array.fold_left
        (fun (words, runs) m ->
          (words +. Measurement_raw.get ~label m,
           runs +. Measurement_raw.run m))
        (0.0, 0.0) b.Benchmark.lr
    in
    if runs = 0.0 then nan else words /. runs
  in
  {
    time_ns = median_per_run label_clock;
    minor_words = mean_per_run label_minor;
    major_words = mean_per_run label_major;
  }

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  nl = 0
  ||
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let measure ~quota ~filter () =
  let instances =
    [ Instance.monotonic_clock; live_minor_instance; live_major_instance ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  Test.elements all_tests
  |> List.filter (fun elt ->
         match filter with
         | None -> true
         | Some needle -> contains ~needle (Test.Elt.name elt))
  |> List.map (fun elt ->
         (Test.Elt.name elt, figures_of_benchmark (Benchmark.run cfg instances elt)))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- baseline file I/O (BENCH_micro/baseline.json) --- *)

let baseline_version = 1

let figures_to_json f =
  Json.Obj
    [
      ("time_ns", Json.Float f.time_ns);
      ("minor_words", Json.Float f.minor_words);
      ("major_words", Json.Float f.major_words);
    ]

let number name j =
  match Json.member name j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> failwith ("baseline: kernel entry needs a numeric " ^ name)

let baseline_to_json ~quota results =
  Json.Obj
    [
      ("version", Json.Int baseline_version);
      ("quota_s", Json.Float quota);
      ( "kernels",
        Json.Obj (List.map (fun (n, f) -> (n, figures_to_json f)) results) );
    ]

let baseline_of_json j =
  (match Json.member "version" j with
  | Some (Json.Int v) when v = baseline_version -> ()
  | Some (Json.Int v) ->
      failwith (Printf.sprintf "baseline: format v%d, expected v%d" v
                  baseline_version)
  | _ -> failwith "baseline: missing version");
  match Json.member "kernels" j with
  | Some (Json.Obj kernels) ->
      List.map
        (fun (name, entry) ->
          ( name,
            {
              time_ns = number "time_ns" entry;
              minor_words = number "minor_words" entry;
              major_words = number "major_words" entry;
            } ))
        kernels
  | _ -> failwith "baseline: missing kernels object"

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents; output_char oc '\n')

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> failwith e
  | text -> (
      match Json.of_string text with
      | Ok j -> j
      | Error e -> failwith (path ^ ": " ^ e))

(* --- comparison with tolerance bands ---

   A kernel regresses when the current median exceeds baseline *
   tolerance AND the absolute excess clears a floor — the floor keeps
   nanosecond-scale kernels and allocation-free loops from flapping on
   scheduler or GC jitter.  Improvements never fail the gate (they are
   reported, with a nudge to re-bless). *)

let time_floor_ns = 1_000.0
let alloc_floor_words = 256.0

type verdict = {
  kernel : string;
  metric : string;
  base_v : float;
  cur_v : float;
  tolerance : float;
}

let compare_results ~time_tolerance ~alloc_tolerance ~baseline ~current =
  let regressions = ref [] in
  let missing = ref [] in
  let improved = ref 0 in
  List.iter
    (fun (name, cur) ->
      match List.assoc_opt name baseline with
      | None -> missing := name :: !missing
      | Some base ->
          let check metric base_v cur_v tolerance floor =
            if cur_v > (base_v *. tolerance) +. epsilon_float
               && cur_v -. base_v > floor
            then
              regressions :=
                { kernel = name; metric; base_v; cur_v; tolerance }
                :: !regressions
            else if cur_v *. tolerance < base_v && base_v -. cur_v > floor
            then incr improved
          in
          check "time_ns" base.time_ns cur.time_ns time_tolerance
            time_floor_ns;
          check "minor_words" base.minor_words cur.minor_words
            alloc_tolerance alloc_floor_words;
          check "major_words" base.major_words cur.major_words
            alloc_tolerance alloc_floor_words)
    current;
  (List.rev !regressions, List.rev !missing, !improved)

(* --- reporting --- *)

let pretty_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let print_table results =
  Printf.printf "%-48s %12s %14s %14s\n" "benchmark" "time/run"
    "minor w/run" "major w/run";
  Printf.printf "%s\n" (String.make 92 '-');
  List.iter
    (fun (name, f) ->
      Printf.printf "%-48s %12s %14.0f %14.0f\n" name (pretty_ns f.time_ns)
        f.minor_words f.major_words)
    results

(* --- CLI --- *)

let run out compare_with time_tolerance alloc_tolerance json_out quota filter
    =
  let results = measure ~quota ~filter () in
  if results = [] then failwith "bench: no kernels match the filter";
  print_table results;
  Option.iter
    (fun path ->
      write_file path (Json.to_string (baseline_to_json ~quota results));
      Printf.printf "wrote %d kernel baseline%s to %s\n" (List.length results)
        (if List.length results = 1 then "" else "s")
        path)
    json_out;
  Option.iter
    (fun path ->
      write_file path (Json.to_string (baseline_to_json ~quota results));
      Printf.printf "blessed %d kernel%s into %s\n" (List.length results)
        (if List.length results = 1 then "" else "s")
        path)
    out;
  match compare_with with
  | None -> ()
  | Some path ->
      let baseline = baseline_of_json (read_json path) in
      let regressions, missing, improved =
        compare_results ~time_tolerance ~alloc_tolerance ~baseline
          ~current:results
      in
      List.iter
        (fun name ->
          Printf.printf "note: %s has no blessed baseline (new kernel — run \
                         'make bless')\n"
            name)
        missing;
      if improved > 0 then
        Printf.printf
          "note: %d metric%s improved beyond the tolerance band — consider \
           're-blessing' to tighten the gate\n"
          improved
          (if improved = 1 then "" else "s");
      if regressions = [] then
        Printf.printf
          "bench gate: %d kernel%s within tolerance of %s (time x%.1f, \
           alloc x%.1f)\n"
          (List.length results)
          (if List.length results = 1 then "" else "s")
          path time_tolerance alloc_tolerance
      else begin
        List.iter
          (fun v ->
            Printf.eprintf
              "bench gate: %s %s regressed: %.0f -> %.0f (x%.2f, tolerance \
               x%.1f)\n"
              v.kernel v.metric v.base_v v.cur_v (v.cur_v /. v.base_v)
              v.tolerance)
          regressions;
        Printf.eprintf "bench gate: FAILED, %d regression%s against %s\n"
          (List.length regressions)
          (if List.length regressions = 1 then "" else "s")
          path;
        exit 1
      end

let () =
  let open Cmdliner in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Bless: write the measured per-kernel medians as the new \
             baseline FILE (the BENCH_micro store 'make bless' commits).")
  in
  let compare_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"FILE"
          ~doc:
            "Gate: compare the measured medians against the blessed \
             baseline FILE and exit 1 on any metric outside its tolerance \
             band.")
  in
  let time_tol_arg =
    Arg.(
      value & opt float 3.0
      & info [ "time-tolerance" ] ~docv:"X"
          ~doc:
            "Time band for $(b,--compare): fail when a kernel's median wall \
             time exceeds X times its baseline.  Generous by design — \
             medians travel badly across machines; CI uses a wider band \
             than local runs.")
  in
  let alloc_tol_arg =
    Arg.(
      value & opt float 1.5
      & info [ "alloc-tolerance" ] ~docv:"X"
          ~doc:
            "Allocation band for $(b,--compare): fail when a kernel's \
             median minor- or major-heap words exceed X times the \
             baseline.  Tight by design — allocation counts are nearly \
             machine-independent, so this band catches real hot-path \
             regressions the time band would forgive.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also dump the measured medians as JSON to FILE (the CI \
             artifact uploaded when the gate fails).")
  in
  let quota_arg =
    Arg.(
      value & opt float 0.5
      & info [ "quota" ] ~docv:"SECS"
          ~doc:"Bechamel time quota per kernel, in seconds.")
  in
  let filter_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter" ] ~docv:"SUBSTR"
          ~doc:"Only run kernels whose full name contains SUBSTR.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "shades_bench"
         ~doc:
           "Micro-benchmarks over the paper's kernels, with a blessable \
            speed baseline (median ns and allocation words per kernel).")
      Term.(
        const run $ out_arg $ compare_arg $ time_tol_arg $ alloc_tol_arg
        $ json_arg $ quota_arg $ filter_arg)
  in
  exit (Cmd.eval cmd)
