module Port_graph = Shades_graph.Port_graph
module Engine = Shades_localsim.Engine
module Exec = Shades_localsim.Exec
module Full_info = Shades_localsim.Full_info
module Scheme = Shades_election.Scheme

type outcome =
  | Survived of { rounds : int; decided : int; crashed : int }
  | Stalled of { rounds : int }
  | Aborted of { reason : string }

let normalize ~n faults =
  let crash_at = Engine.crash_schedule ~n faults in
  let plan = ref [] in
  for v = n - 1 downto 0 do
    if crash_at.(v) < max_int then
      plan := { Engine.victim = v; at_round = crash_at.(v) } :: !plan
  done;
  !plan

let run ?max_rounds (scheme : _ Scheme.t) g ~faults =
  let n = Port_graph.order g in
  let faults = normalize ~n faults in
  let advice = scheme.Scheme.oracle g in
  match
    Full_info.run_adaptive
      ~exec:{ Exec.default with faults; max_rounds }
      g ~advice ~rounds_of:scheme.Scheme.rounds_of
      ~decide:scheme.Scheme.decide
  with
  | { Exec.outputs; rounds; _ } ->
      let decided =
        Array.fold_left
          (fun acc o -> if Option.is_some o then acc + 1 else acc)
          0 outputs
      in
      (* a victim scheduled after its own decision never goes down, so
         count the nodes that actually ended without an output *)
      Survived { rounds; decided; crashed = n - decided }
  | exception Engine.Did_not_terminate rounds -> Stalled { rounds }
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception Assert_failure _ ->
      (* the view-exchange step's inbox-completeness assertion: a live
         node missed a crashed neighbour's message — the honest failure
         mode of the paper's non-fault-tolerant protocol *)
      Aborted { reason = "view exchange incomplete: neighbour crashed" }
  | exception e -> Aborted { reason = Printexc.to_string e }

let describe = function
  | Survived { rounds; decided; crashed } ->
      Printf.sprintf "survived: %d live nodes decided in %d rounds (%d crashed)"
        decided rounds crashed
  | Stalled { rounds } ->
      Printf.sprintf "stalled: live nodes undecided at round budget %d" rounds
  | Aborted { reason } -> Printf.sprintf "aborted: %s" reason
