(* sweep-all: the batch face of the system.  One grid is the G (∆ 4–6,
   k 1–2, i 2–3), U (∆ 4–6, k 1–2) and J (µ 3, k 4, z_eff 1–3) sweeps run
   together by [Sweep.run ~domains:2], then written as a [Store]. *)

module Json = Shades_json.Json
module Sweep = Shades_runtime.Sweep
module Store = Shades_runtime.Store
module Metrics = Shades_runtime.Metrics

let now_ns = Loadgen.now_ns

(* The grid is the paper's; the seed only permutes the job list, which
   the largest-cost-first scheduler uses to break ties. *)
let jobs ~seed =
  let delta = Sweep.range "delta" ~lo:4 ~hi:6 in
  let k = Sweep.range "k" ~lo:1 ~hi:2 in
  let j_axes =
    [ Sweep.axis "mu" [ 3 ]; Sweep.axis "k" [ 4 ]; Sweep.axis "z_eff" [ 1; 2; 3 ] ]
  in
  let all =
    Array.of_list
      (Sweep.gclass_jobs (Sweep.cross [ delta; k; Sweep.axis "i" [ 2; 3 ] ])
      @ Sweep.uclass_jobs (Sweep.cross [ delta; k; Sweep.axis "sigma" [ 1 ] ])
      @ Sweep.jclass_jobs ~metrics:(Metrics.create ()) (Sweep.cross j_axes))
  in
  let perm =
    Shades_e2e.Workload.permutation (Random.State.make [| seed; 6 |]) (Array.length all)
  in
  Array.to_list (Array.map (fun i -> all.(i)) perm)

let family (r : Store.record) =
  match List.assoc_opt "family" r.Store.params with
  | Some (Json.String f) -> f
  | _ -> "?"

let verified (r : Store.record) =
  Store.metric r "verified" = Some (Metrics.Counter 1)

(* the committed sharded baseline of the G and U grids *)
let baseline () =
  match Store.Sharded.load ~dir:"BENCH_sweep" with
  | Ok store -> store
  | Error e -> failwith ("cannot load BENCH_sweep: " ^ e)

(* What the CLI's sweep set-up does before a grid runs, plus one tiny
   grid so domains, heap and code are warm before timing. *)
let setup ~seed =
  let base = baseline () in
  let jobs = jobs ~seed in
  ignore (Sweep.run ~domains:2 (Sweep.tiny_jobs ()));
  (base, jobs)

type job_span = { label : string; fam : string; start_ns : int; stop_ns : int }

type grid = {
  records : Store.record list;
  start_ns : int;
  grid_ns : int;  (** start of the sweep until the store is written *)
  store_ns : int;
  spans : job_span list;  (** one per job, stamped on its worker domain *)
}

(* One grid, each job wrapped to stamp when it ran: the completion
   stamps are a sweep's per-request latencies, the spans its trace. *)
let run_grid ~jobs ~path =
  let lock = Mutex.create () in
  let spans = ref [] in
  let jobs =
    List.map
      (fun (j : Sweep.job) ->
        let label = Sweep.label_of_job j in
        {
          j with
          Sweep.exec =
            (fun ~tracer m ->
              let start_ns = now_ns () in
              let outcome = j.Sweep.exec ~tracer m in
              let s = { label; fam = j.Sweep.family; start_ns; stop_ns = now_ns () } in
              Mutex.protect lock (fun () -> spans := s :: !spans);
              outcome);
        })
      jobs
  in
  let t0 = now_ns () in
  let records = Sweep.run ~domains:2 jobs in
  let t1 = now_ns () in
  Store.save ~path (Store.make ~label:"sweep-all" records);
  let t2 = now_ns () in
  { records; start_ns = t0; grid_ns = t2 - t0; store_ns = t2 - t1; spans = !spans }

let job_s s = float_of_int (s.stop_ns - s.start_ns) /. 1e9

(* when each job's record was ready, in ms since its grid started *)
let completions_ms g =
  List.map (fun s -> float_of_int (s.stop_ns - g.start_ns) /. 1e6) g.spans

let write_spans grids path =
  Out_channel.with_open_text path (fun oc ->
      List.iteri
        (fun i g ->
          List.iter
            (fun s ->
              output_string oc
                (Json.to_string
                   (Json.Obj
                      [ ("grid", Json.Int i);
                        ("name", Json.String ("sweep.job." ^ s.fam));
                        ("label", Json.String s.label);
                        ("start_ns", Json.Int (s.start_ns - g.start_ns));
                        ("dur_ns", Json.Int (s.stop_ns - s.start_ns)) ]));
              output_char oc '\n')
            g.spans)
        grids)

(* Failures of one grid: unverified records, records that differ from
   the first grid (timing aside), and G/U records that differ from the
   committed baseline. *)
let check ~base ~first g =
  let canonical records = Store.encode (Store.strip_timing (Store.make records)) in
  let unverified = List.length (List.filter (fun r -> not (verified r)) g.records) in
  let drift = if canonical g.records = canonical first then 0 else 1 in
  let gu = List.filter (fun r -> family r = "g" || family r = "u") g.records in
  let changes = Store.diff_changes ~baseline:base ~current:(Store.make gu) in
  List.iter (fun c -> prerr_endline ("sweep-all: " ^ Store.pp_change c)) changes;
  unverified + drift + List.length changes
