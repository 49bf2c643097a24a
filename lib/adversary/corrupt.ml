module Bitstring = Shades_bits.Bitstring
module Port_graph = Shades_graph.Port_graph
module Engine = Shades_localsim.Engine
module Exec = Shades_localsim.Exec
module Scheme = Shades_election.Scheme
module Shade = Shades_election.Shade

type op =
  | Flip of int
  | Burst of { pos : int; len : int }
  | Truncate of int
  | Swap of { label : string; donor : Port_graph.t }

let op_label = function
  | Flip i -> Printf.sprintf "flip:%d" i
  | Burst { pos; len } -> Printf.sprintf "burst:%d+%d" pos len
  | Truncate keep -> Printf.sprintf "truncate:%d" keep
  | Swap { label; _ } -> Printf.sprintf "swap:%s" label

let flip_range advice ~pos ~len =
  Bitstring.of_bools
    (List.mapi
       (fun j b -> if j >= pos && j < pos + len then not b else b)
       (Bitstring.to_bools advice))

let mutate ~oracle g op =
  let advice = oracle g in
  let bits = Bitstring.length advice in
  match op with
  | Flip i ->
      if i < 0 || i >= bits then invalid_arg "Corrupt.mutate: flip out of range";
      flip_range advice ~pos:i ~len:1
  | Burst { pos; len } ->
      if pos < 0 || len < 1 || pos + len > bits then
        invalid_arg "Corrupt.mutate: burst out of range";
      flip_range advice ~pos ~len
  | Truncate keep ->
      if keep < 0 || keep > bits then
        invalid_arg "Corrupt.mutate: truncation out of range";
      Bitstring.sub advice 0 keep
  | Swap { donor; _ } -> oracle donor

type classification =
  | Detected of { reason : string }
  | Harmless of { leader : int; rounds : int }
  | Fooling of { leader : int; reference : int; rounds : int }

let class_label = function
  | Detected _ -> "detected"
  | Harmless _ -> "harmless"
  | Fooling _ -> "fooling"

type prepared = {
  classify : op -> classification;
  reference_leader : int;
  reference_rounds : int;
  advice_bits : int;
}

let prepare ?(slack = 2) (Shade.Shade { scheme; verify; _ }) g =
  let reference = Scheme.run scheme g in
  let reference_leader =
    match verify g reference.Scheme.outputs with
    | Ok l -> l
    | Error e -> invalid_arg ("Corrupt.prepare: reference run invalid: " ^ e)
  in
  (* Cap the mutant's round budget just above the reference: corrupted
     advice can decode to a map demanding an absurd view depth, and
     views grow exponentially with rounds — over-budget is Detected,
     not a stuck process. *)
  let exec =
    { Exec.default with max_rounds = Some (reference.Scheme.rounds + slack) }
  in
  let classify op =
    let advice = mutate ~oracle:scheme.Scheme.oracle g op in
    match Scheme.run_with_advice ~exec scheme g ~advice with
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception Engine.Did_not_terminate r ->
        Detected
          { reason = Printf.sprintf "round budget exhausted after %d rounds" r }
    | exception e -> Detected { reason = Printexc.to_string e }
    | run -> (
        match verify g run.Scheme.outputs with
        | Error reason -> Detected { reason = "verifier: " ^ reason }
        | Ok leader when leader = reference_leader ->
            Harmless { leader; rounds = run.Scheme.rounds }
        | Ok leader ->
            Fooling
              { leader; reference = reference_leader; rounds = run.Scheme.rounds })
  in
  {
    classify;
    reference_leader;
    reference_rounds = reference.Scheme.rounds;
    advice_bits = reference.Scheme.advice_bits;
  }

let reversal n = Array.init n (fun i -> n - 1 - i)

let renumber_swap ?(label = "renumber") g perm =
  Swap { label; donor = Port_graph.renumber g perm }

(* [count] evenly spaced distinct positions in [0 .. bits-1]. *)
let spread ~bits ~count =
  if bits <= 0 || count <= 0 then []
  else
    List.init count (fun i -> i * bits / count)
    |> List.sort_uniq Int.compare

let flips ~bits ~count = List.map (fun i -> Flip i) (spread ~bits ~count)

let bursts ~bits ~len ~count =
  if len < 1 then invalid_arg "Corrupt.bursts: len must be >= 1";
  List.map
    (fun pos -> Burst { pos; len = min len (bits - pos) })
    (spread ~bits ~count)

let truncations ~bits ~count =
  List.map (fun keep -> Truncate keep) (spread ~bits ~count)
