(* The load generator: one domain, one [Unix.select] loop, a couple of
   connections.  Sockets are non-blocking with per-connection output
   queues, so a daemon that is slow to read never stalls the loop's own
   reads (which would deadlock once both socket buffers filled). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;  (** received bytes [lo, hi) not yet framed *)
  mutable lo : int;
  mutable hi : int;
  out : string Queue.t;  (** frames not yet fully written *)
  mutable out_off : int;  (** bytes of the queue head already written *)
  inflight : (int * int) Queue.t;  (** request index, start time (ns) *)
}

type reply = { idx : int; payload : string; start_ns : int; end_ns : int }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.set_nonblock fd;
      {
        fd;
        buf = Bytes.create 65536;
        lo = 0;
        hi = 0;
        out = Queue.create ();
        out_off = 0;
        inflight = Queue.create ();
      }
  | exception e ->
      Unix.close fd;
      raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c ~idx ~start_ns payload =
  Queue.push (Printf.sprintf "%d\n%s\n" (String.length payload) payload) c.out;
  Queue.push (idx, start_ns) c.inflight

let rec flush c =
  match Queue.peek_opt c.out with
  | None -> ()
  | Some s -> (
      let len = String.length s - c.out_off in
      match Unix.single_write_substring c.fd s c.out_off len with
      | n when n = len ->
          ignore (Queue.pop c.out);
          c.out_off <- 0;
          flush c
      | n -> c.out_off <- c.out_off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())

(* Read what the socket holds; a closed connection with replies still
   owed is the daemon failing, not the end of a stream. *)
let fill c =
  if Bytes.length c.buf - c.hi < 16384 then begin
    let live = c.hi - c.lo in
    let cap = max (Bytes.length c.buf) (2 * (live + 16384)) in
    let b = if cap > Bytes.length c.buf then Bytes.create cap else c.buf in
    Bytes.blit c.buf c.lo b 0 live;
    c.buf <- b;
    c.lo <- 0;
    c.hi <- live
  end;
  match Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) with
  | 0 -> failwith "daemon closed the connection"
  | n -> c.hi <- c.hi + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* the next complete [length "\n" payload "\n"] frame, if buffered *)
let next_frame c =
  let rec newline i =
    if i >= c.hi then None
    else if Bytes.get c.buf i = '\n' then Some i
    else newline (i + 1)
  in
  match newline c.lo with
  | None -> None
  | Some nl ->
      let len =
        match int_of_string_opt (Bytes.sub_string c.buf c.lo (nl - c.lo)) with
        | Some n when n >= 0 -> n
        | _ -> failwith "malformed reply frame"
      in
      if c.hi - (nl + 1) < len + 1 then None
      else begin
        let payload = Bytes.sub_string c.buf (nl + 1) len in
        c.lo <- nl + 2 + len;
        Some payload
      end

(* One select round: flush pending output, wait up to [timeout_s] for
   replies, and return every reply completed with its connection,
   stamped with the time its last byte was read. *)
let poll conns ~timeout_s =
  List.iter flush conns;
  let readers = List.filter (fun c -> not (Queue.is_empty c.inflight)) conns in
  let writers = List.filter (fun c -> not (Queue.is_empty c.out)) conns in
  let fds l = List.map (fun c -> c.fd) l in
  match Unix.select (fds readers) (fds writers) [] timeout_s with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | readable, _, _ ->
      List.concat_map
        (fun c ->
          if not (List.memq c.fd readable) then []
          else begin
            fill c;
            let end_ns = now_ns () in
            let rec frames acc =
              match next_frame c with
              | None -> List.rev acc
              | Some payload -> (
                  match Queue.take_opt c.inflight with
                  | None -> failwith "reply without a request"
                  | Some (idx, start_ns) ->
                      frames ((c, { idx; payload; start_ns; end_ns }) :: acc))
            in
            frames []
          end)
        readers

let busy conns = List.exists (fun c -> not (Queue.is_empty c.inflight)) conns

(* A daemon that owes replies but sends none for this long has hung;
   failing beats running into the caller's own time limit. *)
let stall_ns = 60_000_000_000

let watchdog conns =
  let last = ref (now_ns ()) in
  fun replies ->
    if replies <> [] || not (busy conns) then last := now_ns ()
    else if now_ns () - !last > stall_ns then failwith "daemon stalled: no reply in 60 s";
    replies

(* Closed loop: [depth] requests in flight per connection; [next ()]
   yields the next [(idx, payload)] or [None] when the stream (or the
   window) is over.  The next request goes out before [on_reply] checks
   the previous reply, so checking costs no think time. *)
let closed ?(depth = 1) conns ~next ~on_reply =
  let send_next c =
    match next () with
    | Some (idx, payload) -> send c ~idx ~start_ns:(now_ns ()) payload
    | None -> ()
  in
  List.iter (fun c -> for _ = 1 to depth do send_next c done) conns;
  let progress = watchdog conns in
  while busy conns do
    let replies = progress (poll conns ~timeout_s:0.5) in
    List.iter (fun (c, _) -> send_next c) replies;
    List.iter (fun (_, r) -> on_reply r) replies
  done

(* Open loop: [schedule.(i)] is [(due_ns, conn, payload)], sent at its
   due time whatever the replies are doing; latency counts from the due
   time, and [on_late] receives how late each send actually was. *)
let open_loop conns ~schedule ~on_reply ~on_late =
  let conns = Array.of_list conns in
  let n = Array.length schedule in
  let next = ref 0 in
  let progress = watchdog (Array.to_list conns) in
  while !next < n || busy (Array.to_list conns) do
    let now = now_ns () in
    while !next < n && (let due, _, _ = schedule.(!next) in due <= now) do
      let due, ci, payload = schedule.(!next) in
      send conns.(ci) ~idx:!next ~start_ns:due payload;
      on_late (now - due);
      incr next
    done;
    let timeout_s =
      if !next < n then
        let due, _, _ = schedule.(!next) in
        Float.max 0. (float_of_int (due - now_ns ()) /. 1e9)
      else 0.5
    in
    let replies = poll (Array.to_list conns) ~timeout_s in
    List.iter (fun (_, r) -> on_reply r) (progress replies)
  done

(* One request, one reply, nothing else in flight: set-up traffic. *)
let call c payload =
  send c ~idx:0 ~start_ns:(now_ns ()) payload;
  let progress = watchdog [ c ] in
  let rec wait () =
    match progress (poll [ c ] ~timeout_s:1.) with
    | [ (_, r) ] -> r.payload
    | [] -> wait ()
    | _ -> failwith "unexpected extra reply"
  in
  wait ()
