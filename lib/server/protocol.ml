module Json = Shades_json.Json
module Port_graph = Shades_graph.Port_graph

let version = Shades_versions.Versions.wire_protocol

let default_max_frame = 16 * 1024 * 1024

(* --- framing --- *)

type frame =
  | Eof
  | Malformed of string
  | Payload of (Json.t, string) result

let write_frame oc json =
  let payload = Json.to_string json in
  output_string oc (string_of_int (String.length payload));
  output_char oc '\n';
  output_string oc payload;
  output_char oc '\n';
  flush oc

let read_frame ?(max_frame = default_max_frame) ic =
  match input_line ic with
  | exception End_of_file -> Eof
  | header -> (
      let header =
        (* tolerate CRLF clients *)
        if String.length header > 0 && header.[String.length header - 1] = '\r'
        then String.sub header 0 (String.length header - 1)
        else header
      in
      match int_of_string_opt header with
      | None -> Malformed ("frame header is not a decimal length: " ^ header)
      | Some len when len < 0 -> Malformed "negative frame length"
      | Some len when len > max_frame ->
          Malformed
            (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
               max_frame)
      | Some len -> (
          let buf = Bytes.create len in
          match really_input ic buf 0 len with
          | exception End_of_file -> Malformed "truncated frame payload"
          | () -> (
              match input_char ic with
              | exception End_of_file -> Malformed "missing frame terminator"
              | '\n' -> Payload (Json.of_string (Bytes.unsafe_to_string buf))
              | c ->
                  Malformed
                    (Printf.sprintf "frame terminator is %C, expected newline" c)
              )))

(* --- endpoints --- *)

type endpoint = Unix_path of string | Tcp of { host : string; port : int }

let endpoint_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

let endpoint_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if path = "" then Error "unix:<path> needs a path" else Ok (Unix_path path)
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | None -> (
          match int_of_string_opt rest with
          | Some port -> Ok (Tcp { host = "127.0.0.1"; port })
          | None -> Error "tcp:<port> or tcp:<host>:<port>")
      | Some j -> (
          let host = String.sub rest 0 j in
          match int_of_string_opt (String.sub rest (j + 1) (String.length rest - j - 1)) with
          | Some port when host <> "" -> Ok (Tcp { host; port })
          | _ -> Error "tcp:<host>:<port>"))
  | _ -> Error ("endpoint: unix:<path> or tcp:[<host>:]<port>, got " ^ s)

(* --- hex (for uploaded binary trace blobs) --- *)

let hex_encode s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "hex string has odd length"
  else
    let nibble c =
      match c with
      | '0' .. '9' -> Ok (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Ok (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Ok (Char.code c - Char.code 'A' + 10)
      | c -> Error (Printf.sprintf "non-hex character %C" c)
    in
    let buf = Bytes.create (n / 2) in
    let rec go i =
      if i = n / 2 then Ok (Bytes.unsafe_to_string buf)
      else
        match (nibble s.[2 * i], nibble s.[(2 * i) + 1]) with
        | Ok hi, Ok lo ->
            Bytes.set buf i (Char.chr ((hi lsl 4) lor lo));
            go (i + 1)
        | Error e, _ | _, Error e -> Error e
    in
    go 0

(* --- requests and responses --- *)

let ok_response ~op result =
  Json.Obj [ ("ok", Json.Bool true); ("op", Json.String op); ("result", result) ]

let error_response ~code message =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("error",
       Json.Obj [ ("code", Json.String code); ("message", Json.String message) ]);
    ]

(* --- tasks --- *)

let task_of_string = Spec.task_of_string

(* --- graphs --- *)

let graph_to_json g =
  Json.Obj
    [
      ("n", Json.Int (Port_graph.order g));
      ("edges",
       Json.List
         (List.map
            (fun ((v, p), (u, q)) ->
              Json.List [ Json.Int v; Json.Int p; Json.Int u; Json.Int q ])
            (Port_graph.edges g)));
    ]

let graph_of_json j =
  match j with
  | Json.String spec -> Spec.parse spec
  | Json.Obj _ -> (
      match (Json.member "n" j, Json.member "edges" j) with
      | Some (Json.Int n), Some (Json.List edges) -> (
          let edge = function
            | Json.List [ Json.Int v; Json.Int p; Json.Int u; Json.Int q ] ->
                Ok ((v, p), (u, q))
            | _ -> Error "edge must be [v, p, u, q] (all integers)"
          in
          let rec collect acc = function
            | [] -> Ok (List.rev acc)
            | e :: rest -> (
                match edge e with
                | Ok e -> collect (e :: acc) rest
                | Error _ as err -> err)
          in
          match collect [] edges with
          | Error _ as err -> err
          | Ok edges -> (
              match Port_graph.of_edges n edges with
              | g -> Ok g
              | exception Invalid_argument msg -> Error msg))
      | _ -> Error "explicit graph needs integer \"n\" and list \"edges\"")
  | _ -> Error "graph must be a spec string or {\"n\": ..., \"edges\": [...]}"
