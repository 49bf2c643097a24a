(* Wall-clock shootout: sequential vs vertex-sharded LOCAL engine.

   The micro-benchmark gate (main.ml) answers "did a kernel get
   slower"; this harness answers the ISSUE's scaling question: on a
   graph big enough to amortise the barriers (n >= 50k), does the
   sharded engine beat the sequential one when real cores are
   available?

   With --assert the answer is enforced: exit 1 if sharded fails to
   win.  The assertion is honest about hardware — parallel speedup on
   a single-core box is not a thing, so with fewer than 4 recommended
   domains it prints SKIP and exits 0.  Nightly CI runs on multi-core
   runners where the assertion is live. *)

open Shades_graph
module Engine = Shades_localsim.Engine
module Exec = Shades_localsim.Exec

(* Constant-size messages: times the executor (adjacency walk, inbox
   plumbing, barriers), not view construction. *)
let countdown r =
  {
    Engine.init = (fun ~degree ~advice:_ -> (degree, r));
    send = (fun (_, left) ~port:_ -> if left > 0 then Some () else None);
    step = (fun (d, left) _ -> (d, left - 1));
    output = (fun (d, left) -> if left <= 0 then Some d else None);
  }

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  (r, t1 -. t0)

let best_of reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let r, dt = wall f in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let run n rounds domains reps enforce =
  let g = Gen.random (Random.State.make [| 97 |]) n ~extra_edges:(n / 2) in
  let advice = Shades_bits.Bitstring.empty in
  let alg = countdown rounds in
  let domains =
    match domains with Some d -> d | None -> Shades_pool.default_domains ()
  in
  Printf.printf
    "engine shootout: n=%d rounds=%d domains=%d reps=%d (recommended \
     domains on this machine: %d)\n%!"
    n rounds domains reps
    (Domain.recommended_domain_count ());
  let seq, t_seq = best_of reps (fun () -> Exec.run Exec.default g ~advice alg) in
  Printf.printf "  sequential: %8.1f ms\n%!" (t_seq *. 1e3);
  let shd, t_shd =
    let exec = { Exec.default with timing = Sharded (Some domains) } in
    best_of reps (fun () -> Exec.run exec g ~advice alg)
  in
  Printf.printf "  sharded:    %8.1f ms  (x%.2f vs sequential)\n%!"
    (t_shd *. 1e3) (t_seq /. t_shd);
  if seq <> shd then begin
    prerr_endline "engine shootout: FAILED — sharded result diverges from \
                   sequential";
    exit 1
  end;
  if enforce then
    if Domain.recommended_domain_count () < 4 then
      Printf.printf
        "engine shootout: SKIP — only %d recommended domain(s) on this \
         machine; the speedup assertion needs >= 4 real cores\n"
        (Domain.recommended_domain_count ())
    else if t_shd < t_seq then
      Printf.printf "engine shootout: PASS — sharded wins by x%.2f\n"
        (t_seq /. t_shd)
    else begin
      Printf.eprintf
        "engine shootout: FAILED — sharded (%.1f ms) did not beat \
         sequential (%.1f ms) with %d domains on a %d-core-class machine\n"
        (t_shd *. 1e3) (t_seq *. 1e3) domains
        (Domain.recommended_domain_count ());
      exit 1
    end

let () =
  let open Cmdliner in
  let n_arg =
    Arg.(
      value & opt int 50_000
      & info [ "n" ] ~docv:"N" ~doc:"Number of vertices in the random graph.")
  in
  let rounds_arg =
    Arg.(
      value & opt int 8
      & info [ "rounds" ] ~docv:"R" ~doc:"Synchronous rounds to simulate.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains for the sharded engine (default: the \
             machine's recommended domain count).")
  in
  let reps_arg =
    Arg.(
      value & opt int 3
      & info [ "reps" ] ~docv:"K"
          ~doc:"Repetitions per engine; the best wall time is reported.")
  in
  let assert_arg =
    Arg.(
      value & flag
      & info [ "assert" ]
          ~doc:
            "Enforce the scaling claim: exit 1 unless the sharded engine \
             beats the sequential one.  On machines with fewer than 4 \
             recommended domains the assertion is skipped (exit 0) — \
             there is no parallelism to measure.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "engine_bench"
         ~doc:
           "Wall-clock comparison of the sequential and vertex-sharded \
            LOCAL engines on a large random graph.")
      Term.(
        const run $ n_arg $ rounds_arg $ domains_arg $ reps_arg $ assert_arg)
  in
  exit (Cmd.eval cmd)
