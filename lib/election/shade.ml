module Json = Shades_json.Json
module Port_graph = Shades_graph.Port_graph

type t =
  | Shade : {
      task : Task.kind;
      scheme : 'p Task.answer Scheme.t;
      verify :
        Port_graph.t -> 'p Task.answer array -> (Port_graph.vertex, string) result;
      to_json : 'p Task.answer -> Json.t;
      of_json : Json.t -> ('p Task.answer, string) result;
    }
      -> t

(* Every shade spells the leader the same way; only the non-leader
   payload codec differs. *)
let make task verify payload_to_json payload_of_json scheme =
  Shade
    {
      task;
      scheme;
      verify;
      to_json =
        (function
        | Task.Leader -> Json.String "leader" | Task.Follower p -> payload_to_json p);
      of_json =
        (function
        | Json.String "leader" -> Ok Task.Leader
        | j -> Result.map (fun p -> Task.Follower p) (payload_of_json j));
    }

let int = function Json.Int i -> Some i | _ -> None

(* a JSON list decoded element-wise, or [Error what] *)
let list what decode = function
  | Json.List l ->
      List.fold_right
        (fun j acc ->
          match (decode j, acc) with
          | Some x, Ok xs -> Ok (x :: xs)
          | _ -> Error what)
        l (Ok [])
  | _ -> Error what

let selection =
  make Task.S Verify.selection
    (fun () -> Json.String "follower")
    (function
      | Json.String "follower" -> Ok ()
      | _ -> Error "S output must be \"leader\" or \"follower\"")

let port_election =
  make Task.PE Verify.port_election
    (fun p -> Json.Int p)
    (fun j -> Option.to_result ~none:"PE output must be \"leader\" or a port number" (int j))

let port_path_election =
  make Task.PPE Verify.port_path_election
    (fun ps -> Json.List (List.map (fun p -> Json.Int p) ps))
    (list "PPE output must be \"leader\" or a port list" int)

let complete_port_path_election =
  make Task.CPPE Verify.complete_port_path_election
    (fun pairs ->
      Json.List (List.map (fun (p, q) -> Json.List [ Json.Int p; Json.Int q ]) pairs))
    (list "CPPE output must be \"leader\" or a [p, q] pair list" (function
      | Json.List [ Json.Int p; Json.Int q ] -> Some (p, q)
      | _ -> None))

let map_advice = function
  | Task.S -> selection Map_advice.selection
  | Task.PE -> port_election Map_advice.port_election
  | Task.PPE -> port_path_election Map_advice.port_path_election
  | Task.CPPE -> complete_port_path_election Map_advice.complete_port_path_election

let min_time = function
  | Task.S -> selection Select_by_view.scheme
  | (Task.PE | Task.PPE | Task.CPPE) as task -> map_advice task

let task (Shade { task; _ }) = task

let trace_exec task ~engine g emit =
  let (Shade { scheme; _ }) = min_time task in
  let exec = Shades_localsim.Exec.of_trace_engine engine in
  ignore (Scheme.run ~exec ~tracer:emit scheme g)
