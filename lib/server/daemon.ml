
module Pool = Shades_pool
module Metrics = Shades_runtime.Metrics

let socket_of_endpoint = function
  | Protocol.Unix_path path ->
      if Sys.file_exists path then Sys.remove path;
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      sock
  | Protocol.Tcp { host; port } ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ -> failwith ("cannot resolve host " ^ host))
      in
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (addr, port));
      sock

let cleanup_endpoint = function
  | Protocol.Unix_path path -> if Sys.file_exists path then Sys.remove path
  | Protocol.Tcp _ -> ()

(* One connection: frames in, frames out, until EOF, a framing error,
   or a shutdown request.  Runs on a crew domain; [service] is shared
   and mutex-guarded throughout. *)
let serve_connection ~max_frame ~log ~stop service fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match Protocol.read_frame ~max_frame ic with
    | Protocol.Eof -> ()
    | Protocol.Malformed reason ->
        (* the byte stream cannot be resynchronized: answer and close *)
        log ("closing connection: " ^ reason);
        Protocol.write_frame oc (Protocol.error_response ~code:"bad-frame" reason)
    | Protocol.Payload (Error reason) ->
        Protocol.write_frame oc (Protocol.error_response ~code:"bad-json" reason);
        loop ()
    | Protocol.Payload (Ok request) -> (
        match Service.handle service request with
        | Service.Reply reply ->
            Protocol.write_frame oc reply;
            loop ()
        | Service.Reply_and_stop reply ->
            Protocol.write_frame oc reply;
            Atomic.set stop true)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try loop () with
      | Unix.Unix_error (e, _, _) ->
          log ("connection error: " ^ Unix.error_message e)
      | Sys_error e -> log ("connection error: " ^ e))

let run ?domains ?(max_frame = Protocol.default_max_frame) ?(log = fun _ -> ())
    ?http endpoint service =
  let sock = socket_of_endpoint endpoint in
  Unix.listen sock 64;
  let http_sock =
    Option.map
      (fun e ->
        let s = socket_of_endpoint e in
        Unix.listen s 64;
        s)
      http
  in
  let stop = Atomic.make false in
  let crew =
    Pool.Crew.create ?domains
      ~on_error:(fun e -> log ("handler error: " ^ Printexc.to_string e))
      ()
  in
  (* Batch items fan out on their own crew, never the connection crew:
     a connection handler blocking in [run_all] on the crew that is
     supposed to run its thunks would deadlock at low domain counts. *)
  let batch_crew =
    Pool.Crew.create ?domains
      ~on_error:(fun e -> log ("batch error: " ^ Printexc.to_string e))
      ()
  in
  Service.set_parallel service (Some (Pool.Crew.run_all batch_crew));
  log
    (Printf.sprintf "listening on %s (%d worker domain%s)"
       (Protocol.endpoint_to_string endpoint)
       (Pool.Crew.size crew)
       (if Pool.Crew.size crew = 1 then "" else "s"));
  Option.iter
    (fun e ->
      log
        (Printf.sprintf "http metrics on %s (GET /metrics, /healthz)"
           (Protocol.endpoint_to_string e)))
    http;
  let listeners = sock :: Option.to_list http_sock in
  let accept_on fd =
    match Unix.accept fd with
    | conn, _ ->
        if fd == sock then begin
          Metrics.incr (Service.metrics service) "connections";
          Pool.Crew.submit crew (fun () ->
              serve_connection ~max_frame ~log ~stop service conn)
        end
        else begin
          Metrics.incr (Service.metrics service) "http_connections";
          Pool.Crew.submit crew (fun () -> Http.handle ~log service conn)
        end
    | exception Unix.Unix_error (e, _, _) ->
        log ("accept error: " ^ Unix.error_message e)
  in
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      (* poll so a shutdown request (flagged by a crew domain) is
         noticed without tricks like self-connection *)
      match Unix.select listeners [] [] 0.1 with
      | [], _, _ -> accept_loop ()
      | ready, _, _ ->
          List.iter accept_on ready;
          accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Option.iter
        (fun s -> try Unix.close s with Unix.Unix_error _ -> ())
        http_sock;
      cleanup_endpoint endpoint;
      Option.iter cleanup_endpoint http;
      Pool.Crew.shutdown crew;
      Service.set_parallel service None;
      Pool.Crew.shutdown batch_crew;
      log "stopped")
    accept_loop
