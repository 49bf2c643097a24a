(** The daemon's wire protocol: length-prefixed JSONL frames.

    One frame per message, in both directions:

    {v
    frame    ::= length "\n" payload "\n"
    length   ::= ASCII decimal byte length of payload
    payload  ::= one JSON value (compact, no embedded newlines)
    v}

    Requests are JSON objects with an ["op"] member (["advise"],
    ["elect"], ["verify"], ["verify-trace"], ["stats"], ["batch"],
    ["shutdown"]);
    responses are [{"ok": true, "op": ..., "result": ...}] or
    [{"ok": false, "error": {"code": ..., "message": ...}}].  A frame
    whose {e framing} is broken (bad length line, truncation,
    over-limit size) cannot be resynchronized: the server replies with
    a [bad-frame] error and closes the connection.  A well-framed
    payload that fails to parse as JSON only costs that request
    ([bad-json]); the connection stays open. *)

val version : int
(** Protocol version, [1] — stamped into [stats] responses; the cache
    key derivation ([Service.cache_key]) carries its own versions. *)

val default_max_frame : int
(** 16 MiB — the largest payload either side accepts by default. *)

(** {1 Framing} *)

(** Outcome of reading one frame.  [Eof] is a clean end between frames;
    [Malformed] means the byte stream is unrecoverable (close the
    connection); [Payload (Error _)] is a well-framed but unparsable
    JSON payload (the connection survives). *)
type frame =
  | Eof
  | Malformed of string
  | Payload of (Shades_json.Json.t, string) result

val write_frame : out_channel -> Shades_json.Json.t -> unit
(** Encode, frame, and flush one message. *)

val read_frame : ?max_frame:int -> in_channel -> frame
(** Read one frame (blocking); [max_frame] defaults to
    {!default_max_frame}. *)

(** {1 Endpoints} *)

type endpoint = Unix_path of string | Tcp of { host : string; port : int }

val endpoint_to_string : endpoint -> string
(** [unix:<path>] or [tcp:<host>:<port>]. *)

val endpoint_of_string : string -> (endpoint, string) result
(** Inverse of {!endpoint_to_string}; [tcp:<port>] defaults the host to
    [127.0.0.1]. *)

(** {1 Payload helpers} *)

val ok_response : op:string -> Shades_json.Json.t -> Shades_json.Json.t
val error_response : code:string -> string -> Shades_json.Json.t

val task_of_string : string -> (Shades_election.Task.kind, string) result
(** {!Spec.task_of_string}: ["s"], ["pe"], ["ppe"] or ["cppe"]
    (case-insensitive). *)

val graph_to_json : Shades_graph.Port_graph.t -> Shades_json.Json.t
(** Explicit port-graph form: [{"n": n, "edges": [[v, p, u, q], ...]}]. *)

val graph_of_json :
  Shades_json.Json.t -> (Shades_graph.Port_graph.t, string) result
(** Accepts a {!Spec} string or the explicit form of {!graph_to_json};
    every structural error (bad ports, duplicate edges, ...) is an
    [Error], never an exception. *)

val hex_encode : string -> string
(** Lowercase hex of a byte string — how binary SHTR trace blobs ride
    inside JSON payloads. *)

val hex_decode : string -> (string, string) result
(** Inverse of {!hex_encode} (case-insensitive). *)
