(** The socket front half of the daemon: listen, accept, frame, reply.

    All request semantics live in {!Service}; this module only moves
    frames between sockets and [Service.handle].  Connections are
    served on a persistent {!Shades_pool.Crew}, one submitted
    task per accepted connection, so [domains] concurrent clients make
    progress independently while the advice cache (mutex-guarded inside
    the service) is shared between them.

    Error discipline per connection, mirroring {!Protocol.frame}:
    a malformed {e frame} gets a [bad-frame] error reply and the
    connection is closed (the byte stream cannot be resynchronized);
    a well-framed but unparsable {e payload} gets [bad-json] and the
    connection survives; everything else is [Service.handle]'s problem
    and always produces a reply. *)

val socket_of_endpoint : Protocol.endpoint -> Unix.file_descr
(** A bound (not yet listening) socket.  For [Unix_path] a stale socket
    file is removed first; for [Tcp] the address is resolved and
    [SO_REUSEADDR] set.  Raises [Unix.Unix_error] on bind failure and
    [Failure] on resolution failure. *)

val serve_connection :
  max_frame:int ->
  log:(string -> unit) ->
  stop:bool Atomic.t ->
  Service.t ->
  Unix.file_descr ->
  unit
(** Serve one accepted connection to completion (EOF, framing error, or
    a [shutdown] request — which also sets [stop]).  Always closes the
    descriptor; transport errors are logged, never raised.  Exposed for
    tests that want the frame loop without a listener. *)

val run :
  ?domains:int ->
  ?max_frame:int ->
  ?log:(string -> unit) ->
  ?http:Protocol.endpoint ->
  Protocol.endpoint ->
  Service.t ->
  unit
(** Bind, listen and serve until a [shutdown] request arrives.  Blocks
    the calling domain.  [domains] sizes the connection crew (default:
    the machine's recommended domain count), [max_frame] bounds request
    frames (default {!Protocol.default_max_frame}), [log] receives
    one-line operational messages (default: silence — the library never
    writes to stdout).

    [http] opens a second listener — the observability plane — on the
    same select loop: connections accepted there are served by
    {!Http.handle} ([GET /metrics], [GET /healthz]) on the same
    connection crew.  The JSONL endpoint and the HTTP endpoint must
    differ.

    [run] also installs a dedicated batch crew as the service's
    fan-out hook ({!Service.set_parallel}), so one [batch] frame's
    items execute concurrently.  The batch crew is separate from the
    connection crew on purpose: a connection handler blocking in the
    fan-out on its own crew would deadlock at low domain counts.

    On exit both listening sockets are closed, Unix socket files are
    unlinked, the fan-out hook is removed, and both crews are
    joined. *)
