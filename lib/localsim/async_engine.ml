module Port_graph = Shades_graph.Port_graph
module Csr = Port_graph.Csr
module Event = Shades_trace.Event

(* A wire message: the sender's round plus the payload the algorithm
   chose to send.  A [None] payload still travels — it is the
   end-of-round marker the synchronizer needs on every port.  The
   payload carries the receiver's port so delivery needs no lookup. *)
type 'msg wire = { round : int; payload : (int * 'msg) option }

let run ~delay ~max_rounds ~on_round ~emit ~tracing ~msg_size ~crash_at g
    ~advice (alg : (_, _, _) Engine.algorithm) =
  let { Kernel.csr; states; outputs; undecided; _ } =
    Kernel.prologue ~emit ~tracing ~crash_at g ~advice alg
  in
  let n = Array.length states in
  let undecided = ref undecided in
  (* Delivery queue ordered by (time, sequence); the sequence number
     makes simultaneous deliveries deterministic. *)
  let module M = Map.Make (struct
    type t = float * int

    let compare = compare
  end) in
  let queue = ref M.empty in
  let seq = ref 0 in
  let clock = ref 0.0 in
  let push_event ~round ~v ~port dest wire_msg =
    (* Non-positive plan delays are clamped: virtual time must advance
       for the (time, seq) queue order to stay causal. *)
    let d = Float.max 1e-6 (delay ~round ~v ~port) in
    incr seq;
    queue := M.add (!clock +. d, !seq) (dest, wire_msg) !queue
  in
  let messages = ref 0 in
  let rounds = Array.make n 0 in
  (* The synchronous round count is the latest first-decision round. *)
  let last_decision = ref 0 in
  (* inboxes.(v) buffers received wires per pending round. *)
  let inboxes : (int, 'a wire list) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 4)
  in
  (* A decided node has halted: it emits only the bare end-of-round
     markers its neighbours' synchronizers are waiting for — never a
     payload — mirroring the synchronous kernel's short-circuit.
     Markers are traced as [Sync_marker], never [Send]: they are
     synchronizer scaffolding with no synchronous counterpart. *)
  let send_round v =
    let halted = Option.is_some outputs.(v) in
    for p = 0 to Csr.degree csr v - 1 do
      let round = rounds.(v) + 1 in
      let payload =
        if halted then None
        else
          match alg.send states.(v) ~port:p with
          | Some m ->
              incr messages;
              if tracing then
                emit (Event.Send { round; v; port = p; size = msg_size m });
              Some (Csr.neighbor_port csr v p, m)
          | None -> None
      in
      if payload = None then emit (Event.Sync_marker { round; v; port = p });
      push_event ~round ~v ~port:p (Csr.neighbor_vertex csr v p)
        { round; payload }
    done
  in
  (* Telemetry: a synchronizer round counts as executed the first time
     an {e undecided} node steps it — exactly the rounds the synchronous
     kernel executes.  Decided nodes keep completing marker-only rounds
     to feed their neighbours' synchronizers; those never fire the hook
     (and never emit [Round_start]). *)
  let reported = ref 0 in
  let stepped_round r =
    if r > !reported then begin
      reported := r;
      emit (Event.Round_start { round = r });
      on_round ~round:r ~messages:!messages
    end
  in
  if !undecided > 0 then
    for v = 0 to n - 1 do
      send_round v
    done;
  while !undecided > 0 && not (M.is_empty !queue) do
    let ((t, _) as key), (v, wire) = M.min_binding !queue in
    queue := M.remove key !queue;
    clock := t;
    Hashtbl.replace inboxes.(v) wire.round
      (wire
      :: Option.value ~default:[] (Hashtbl.find_opt inboxes.(v) wire.round));
    (* Advance v while its next round is fully delivered and within the
       budget: a node never steps past [max_rounds], so a run that needs
       more drains its queue and ends undecided. *)
    let progressing = ref true in
    while !progressing do
      let next = rounds.(v) + 1 in
      match Hashtbl.find_opt inboxes.(v) next with
      | Some wires
        when next <= max_rounds && List.length wires = Csr.degree csr v ->
          Hashtbl.remove inboxes.(v) next;
          if Option.is_none outputs.(v) then begin
            stepped_round next;
            let inbox =
              List.filter_map (fun w -> w.payload) wires
              |> List.sort (fun (p, _) (q, _) -> Int.compare p q)
            in
            if tracing then
              List.iter
                (fun (p, m) ->
                  emit
                    (Event.Deliver
                       { round = next; v; port = p; size = msg_size m }))
                inbox;
            states.(v) <- alg.step states.(v) inbox;
            outputs.(v) <- alg.output states.(v);
            if Option.is_some outputs.(v) then begin
              decr undecided;
              last_decision := max !last_decision next;
              emit (Event.Decide { v; round = next });
              emit (Event.Halt { v; round = next })
            end
          end;
          rounds.(v) <- next;
          if !undecided = 0 then progressing := false else send_round v
      | _ -> progressing := false
    done
  done;
  if !undecided > 0 then
    raise (Engine.Did_not_terminate (Array.fold_left max 0 rounds));
  (* Makespan: the virtual time of the last delivery processed — how
     long the delay assignment stretched the execution. *)
  (outputs, !last_decision, !messages, !clock)
