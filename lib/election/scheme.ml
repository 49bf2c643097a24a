module Exec = Shades_localsim.Exec

type 'o t = {
  name : string;
  oracle : Shades_graph.Port_graph.t -> Shades_bits.Bitstring.t;
  rounds_of : advice:Shades_bits.Bitstring.t -> degree:int -> int;
  decide : advice:Shades_bits.Bitstring.t -> Shades_views.View_tree.t -> 'o;
}

let plan f =
  let slot = Domain.DLS.new_key (fun () -> None) in
  fun advice ->
    match Domain.DLS.get slot with
    | Some (a, p) when a == advice -> p
    | _ ->
        let p = f advice in
        Domain.DLS.set slot (Some (advice, p));
        p

type 'o run = {
  outputs : 'o array;
  rounds : int;
  messages : int;
  makespan : float;
  advice_bits : int;
}

let run_with_advice ?(exec = Exec.default) ?on_round ?tracer scheme g ~advice =
  (* Outputs are total only without crashes; fault plans go through the
     option-valued Full_info.run_adaptive. *)
  if exec.faults <> [] then
    invalid_arg "Scheme.run: a fault plan leaves outputs partial";
  let r =
    Shades_localsim.Full_info.run_adaptive ~exec ?on_round ?tracer g ~advice
      ~rounds_of:scheme.rounds_of ~decide:scheme.decide
  in
  {
    outputs = Array.map Option.get r.outputs;
    rounds = r.rounds;
    messages = r.messages;
    makespan = r.makespan;
    advice_bits = Shades_bits.Bitstring.length advice;
  }

let run ?exec ?on_round ?tracer scheme g =
  run_with_advice ?exec ?on_round ?tracer scheme g ~advice:(scheme.oracle g)
