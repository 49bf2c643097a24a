module Port_graph = Shades_graph.Port_graph
module Event = Shades_trace.Event

type ('state, 'output) start = {
  csr : Port_graph.Csr.t;
  states : 'state array;
  outputs : 'output option array;
  undecided : int;
  faulty : bool;
}

let prologue ~emit ~tracing ~crash_at g ~advice (alg : (_, _, _) Engine.algorithm)
    =
  let n = Port_graph.order g in
  (* flat int-array adjacency: the per-round loops touch no per-vertex
     tuple rows *)
  let csr = Port_graph.Csr.of_graph g in
  let faulty = Array.exists (fun r -> r < max_int) crash_at in
  (* Init runs in the calling domain for every kernel: [init] (and the
     round-0 [output] probes) may close over state that is not
     domain-safe, e.g. Full_info's common-round-count guard. *)
  let states =
    Array.init n (fun v -> alg.init ~degree:(Port_graph.Csr.degree csr v) ~advice)
  in
  let outputs = Array.map alg.output states in
  (* A node crashed at round 0 never acted: its init-time decision, if
     any, is void. *)
  if faulty then
    for v = 0 to n - 1 do
      if crash_at.(v) = 0 then outputs.(v) <- None
    done;
  if tracing then begin
    let bits = Shades_bits.Bitstring.length advice in
    for v = 0 to n - 1 do
      emit (Event.Advice_read { v; bits })
    done;
    for v = 0 to n - 1 do
      if crash_at.(v) = 0 then emit (Event.Crash { v; round = 0 })
    done;
    for v = 0 to n - 1 do
      if Option.is_some outputs.(v) then begin
        emit (Event.Decide { v; round = 0 });
        emit (Event.Halt { v; round = 0 })
      end
    done
  end;
  (* Live undecided nodes: what the kernel must still resolve.  Crashed
     nodes are out of the count — they will never decide, and must not
     keep a run going. *)
  let undecided = ref 0 in
  for v = 0 to n - 1 do
    if Option.is_none outputs.(v) && crash_at.(v) > 0 then incr undecided
  done;
  { csr; states; outputs; undecided = !undecided; faulty }

let crash_round ~emit ~crash_at outputs round =
  let down = ref 0 in
  for v = 0 to Array.length outputs - 1 do
    if crash_at.(v) = round && Option.is_none outputs.(v) then begin
      emit (Event.Crash { v; round });
      incr down
    end
  done;
  !down

let sequential ~max_rounds ~on_round ~emit ~tracing ~msg_size ~crash_at g
    ~advice (alg : (_, _, _) Engine.algorithm) =
  let { csr; states; outputs; undecided; faulty } =
    prologue ~emit ~tracing ~crash_at g ~advice alg
  in
  let n = Array.length states in
  let undecided = ref undecided in
  let rounds = ref 0 in
  let messages = ref 0 in
  while !undecided > 0 && !rounds < max_rounds do
    incr rounds;
    let round = !rounds in
    emit (Event.Round_start { round });
    if faulty then
      undecided := !undecided - crash_round ~emit ~crash_at outputs round;
    (* Collect this round's messages from every node, then deliver: the
       two phases are separated so that delivery is truly synchronous.
       Decided nodes have halted and crashed nodes are dead — neither
       sends, and anything addressed to them is discarded. *)
    let inboxes = Array.make n [] in
    for v = 0 to n - 1 do
      if Option.is_none outputs.(v) && crash_at.(v) > round then
        for p = 0 to Port_graph.Csr.degree csr v - 1 do
          match alg.send states.(v) ~port:p with
          | None -> ()
          | Some m ->
              incr messages;
              if tracing then
                emit (Event.Send { round; v; port = p; size = msg_size m });
              let u = Port_graph.Csr.neighbor_vertex csr v p in
              let q = Port_graph.Csr.neighbor_port csr v p in
              inboxes.(u) <- (q, m) :: inboxes.(u)
        done
    done;
    for v = 0 to n - 1 do
      if Option.is_none outputs.(v) && crash_at.(v) > round then begin
        let inbox =
          List.sort (fun (p, _) (q, _) -> Int.compare p q) inboxes.(v)
        in
        if tracing then
          List.iter
            (fun (p, m) ->
              emit (Event.Deliver { round; v; port = p; size = msg_size m }))
            inbox;
        states.(v) <- alg.step states.(v) inbox;
        outputs.(v) <- alg.output states.(v);
        if Option.is_some outputs.(v) then begin
          decr undecided;
          emit (Event.Decide { v; round });
          emit (Event.Halt { v; round })
        end
      end
    done;
    on_round ~round ~messages:!messages
  done;
  if !undecided > 0 then raise (Engine.Did_not_terminate !rounds);
  (outputs, !rounds, !messages)
