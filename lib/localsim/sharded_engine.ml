module Port_graph = Shades_graph.Port_graph
module Event = Shades_trace.Event
module Crew = Shades_pool.Crew

(* One growable event buffer per shard, drained by the coordinator.
   Events are consed (reverse order) and flushed with a reversing
   iteration, so a flush replays them in emission order. *)
let flush_buffer emit buf =
  List.iter emit (List.rev !buf);
  buf := []

(* [crash_at] is written before the crew exists and only read
   afterwards — worker domains see a frozen schedule. *)
let run ~domains ~max_rounds ~on_round ~emit ~tracing ~msg_size ~crash_at g
    ~advice (alg : (_, _, _) Engine.algorithm) =
  let { Kernel.csr; states; outputs; undecided; faulty } =
    Kernel.prologue ~emit ~tracing ~crash_at g ~advice alg
  in
  let n = Array.length states in
  let shards = min (max 1 domains) n in
  (* Contiguous balanced ranges: shard [s] owns [start.(s) ..
     start.(s+1) - 1].  Contiguity is what makes shard-major event
     flushing reproduce the sequential kernel's vertex-ascending event
     order exactly. *)
  let start = Array.init (shards + 1) (fun s -> s * n / shards) in
  let owner = Array.make n 0 in
  for s = 0 to shards - 1 do
    for v = start.(s) to start.(s + 1) - 1 do
      owner.(v) <- s
    done
  done;
  let undecided = ref undecided in
  let rounds = ref 0 in
  let messages = ref 0 in
  if !undecided > 0 && max_rounds > 0 then begin
    (* Per-round scratch, all shard-disjoint:
       - [outbox.(src).(dst)]: messages shard [src] produced for
         vertices of shard [dst], written only by [src] in the send
         phase, drained only by [dst] in the deliver phase (the barrier
         between the phases orders the two);
       - [inboxes.(v)]: written only by [owner.(v)];
       - [events.(s)], [sent.(s)], [decided.(s)]: per-shard telemetry,
         read by the coordinator between barriers. *)
    let outbox = Array.init shards (fun _ -> Array.init shards (fun _ -> ref [])) in
    let inboxes = Array.make n [] in
    let events = Array.init shards (fun _ -> ref []) in
    let sent = Array.make shards 0 in
    let decided = Array.make shards 0 in
    let send_phase ~round s () =
      let buf = events.(s) in
      let count = ref 0 in
      for v = start.(s) to start.(s + 1) - 1 do
        if Option.is_none outputs.(v) && crash_at.(v) > round then
          for p = 0 to Port_graph.Csr.degree csr v - 1 do
            match alg.send states.(v) ~port:p with
            | None -> ()
            | Some m ->
                incr count;
                if tracing then
                  buf :=
                    Event.Send { round; v; port = p; size = msg_size m }
                    :: !buf;
                let u = Port_graph.Csr.neighbor_vertex csr v p in
                let q = Port_graph.Csr.neighbor_port csr v p in
                let cell = outbox.(s).(owner.(u)) in
                cell := (u, q, m) :: !cell
          done
      done;
      sent.(s) <- !count
    in
    let deliver_phase ~round s () =
      let buf = events.(s) in
      let count = ref 0 in
      for src = 0 to shards - 1 do
        let cell = outbox.(src).(s) in
        List.iter (fun (u, q, m) -> inboxes.(u) <- (q, m) :: inboxes.(u)) !cell;
        cell := []
      done;
      for v = start.(s) to start.(s + 1) - 1 do
        if Option.is_none outputs.(v) && crash_at.(v) > round then begin
          let inbox =
            List.sort (fun (p, _) (q, _) -> Int.compare p q) inboxes.(v)
          in
          if tracing then
            List.iter
              (fun (p, m) ->
                buf :=
                  Event.Deliver { round; v; port = p; size = msg_size m }
                  :: !buf)
              inbox;
          states.(v) <- alg.step states.(v) inbox;
          outputs.(v) <- alg.output states.(v);
          if Option.is_some outputs.(v) then begin
            incr count;
            if tracing then begin
              buf := Event.Decide { v; round } :: !buf;
              buf := Event.Halt { v; round } :: !buf
            end
          end
        end;
        (* messages addressed to a decided (halted) or crashed node are
           discarded *)
        inboxes.(v) <- []
      done;
      decided.(s) <- !count
    in
    let crew = Crew.create ~domains:shards () in
    Fun.protect
      ~finally:(fun () -> Crew.shutdown crew)
      (fun () ->
        while !undecided > 0 && !rounds < max_rounds do
          incr rounds;
          let round = !rounds in
          emit (Event.Round_start { round });
          (* applied by the coordinator before the send barrier: same
             event position and vertex order as the sequential kernel *)
          if faulty then
            undecided :=
              !undecided - Kernel.crash_round ~emit ~crash_at outputs round;
          Crew.run_all crew
            (Array.init shards (fun s -> send_phase ~round s));
          for s = 0 to shards - 1 do
            messages := !messages + sent.(s);
            if tracing then flush_buffer emit events.(s)
          done;
          Crew.run_all crew
            (Array.init shards (fun s -> deliver_phase ~round s));
          for s = 0 to shards - 1 do
            undecided := !undecided - decided.(s);
            if tracing then flush_buffer emit events.(s)
          done;
          on_round ~round ~messages:!messages
        done)
  end;
  if !undecided > 0 then raise (Engine.Did_not_terminate !rounds);
  (outputs, !rounds, !messages)
