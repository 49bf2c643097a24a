module Port_graph = Shades_graph.Port_graph
module Gen = Shades_graph.Gen
module Gclass = Shades_families.Gclass
module Uclass = Shades_families.Uclass
module Jclass = Shades_families.Jclass
module Task = Shades_election.Task
module Exec = Shades_localsim.Exec
module Trace = Shades_trace.Trace

let grammar =
  "ring:<n> | path:<n> | star:<n> | clique:<n> | \
   random:<seed>,<n>,<extra> | line-ports:<p1>,<q1>,... | \
   gclass:<delta>,<k>,<i> | uclass:<delta>,<k>,<sigma> | \
   jclass:<mu>,<k>,<zeff>"

let parse spec =
  let ints args = String.split_on_char ',' args |> List.map int_of_string in
  try
    match String.split_on_char ':' spec with
    | [ "ring"; n ] -> Ok (Gen.oriented_ring (int_of_string n))
    | [ "path"; n ] -> Ok (Gen.path (int_of_string n))
    | [ "star"; n ] -> Ok (Gen.star (int_of_string n))
    | [ "clique"; n ] -> Ok (Gen.clique (int_of_string n))
    | [ "random"; args ] -> (
        match ints args with
        | [ seed; n; extra ] ->
            Ok (Gen.random (Random.State.make [| seed |]) n ~extra_edges:extra)
        | _ -> Error "random:<seed>,<n>,<extra-edges>")
    | [ "line-ports"; ports ] ->
        let rec pair = function
          | [] -> []
          | p :: q :: rest -> (p, q) :: pair rest
          | [ _ ] -> failwith "line-ports needs an even number of ports"
        in
        Ok (Gen.path_with_ports (pair (ints ports)))
    | [ "gclass"; args ] -> (
        match ints args with
        | [ delta; k; i ] -> Ok (Gclass.build { Gclass.delta; k } ~i).Gclass.graph
        | _ -> Error "gclass:<delta>,<k>,<i>")
    | [ "uclass"; args ] -> (
        match ints args with
        | [ delta; k; sigma ] ->
            let p = { Uclass.delta; k } in
            Ok (Uclass.build p ~sigma:(Uclass.uniform_sigma p sigma)).Uclass.graph
        | _ -> Error "uclass:<delta>,<k>,<sigma>")
    | [ "jclass"; args ] -> (
        match ints args with
        | [ mu; k; z_eff ] ->
            let p = { Jclass.mu; k; z_eff } in
            Ok (Jclass.build p ~y:(Jclass.y_zero p)).Jclass.graph
        | _ -> Error "jclass:<mu>,<k>,<zeff>")
    | _ -> Error ("graph spec: " ^ grammar)
  with
  | Failure msg -> Error msg
  | Invalid_argument msg -> Error msg

let parse_exn spec =
  match parse spec with Ok g -> g | Error e -> failwith e

(* --- task names --- *)

let task_of_string s =
  match String.lowercase_ascii s with
  | "s" -> Ok Task.S
  | "pe" -> Ok Task.PE
  | "ppe" -> Ok Task.PPE
  | "cppe" -> Ok Task.CPPE
  | t -> Error ("unknown task: " ^ t ^ " (expected s, pe, ppe, cppe)")

(* --- engine names --- *)

type engine = { exec : Exec.t; name : string; key : string }

let engine ?domains ?seed name =
  let timing (timing : Exec.timing) ~name ~key =
    Ok { exec = { Exec.default with timing }; name; key }
  in
  match (name, domains, seed) with
  | ("sync" | "sequential" | "seq"), _, _ ->
      timing Sequential ~name:"sync" ~key:"sync"
  | "sharded", Some d, _ when d < 1 ->
      Error "\"domains\" must be a positive integer"
  | "sharded", _, _ -> timing (Sharded domains) ~name:"sharded" ~key:"sharded"
  | "async", _, Some seed ->
      timing
        (Async (Seeded seed))
        ~name:(Trace.engine_to_string (Trace.Async { seed }))
        ~key:(Printf.sprintf "async-s%d" seed)
  | "async", _, None -> Error "engine async needs a seed"
  | _ -> Error "\"engine\" must be \"sync\", \"sharded\" or \"async\""

(* --- trace labels --- *)

let trace_label ~task spec =
  String.lowercase_ascii (Task.kind_to_string task) ^ " " ^ spec

let parse_trace_label label =
  match String.index_opt label ' ' with
  | None ->
      Error
        ("trace label is not \"task graph-spec\" (was it recorded by `trace \
          record`?): " ^ label)
  | Some i ->
      Result.map
        (fun task -> (task, String.sub label (i + 1) (String.length label - i - 1)))
        (task_of_string (String.sub label 0 i))
