(** Algorithms with advice (the paper's framework).

    A scheme pairs an oracle — which sees the whole port-labeled graph
    and emits one binary string — with a distributed algorithm that every
    node runs on (degree, advice, gathered view).  The same advice string
    goes to every node: it cannot add asymmetry, only expose it.

    Running a scheme reports the advice size in bits (the paper's
    complexity measure) and the number of communication rounds used. *)

type 'o t = {
  name : string;
  oracle : Shades_graph.Port_graph.t -> Shades_bits.Bitstring.t;
      (** Computes the advice for a given network. *)
  rounds_of : advice:Shades_bits.Bitstring.t -> degree:int -> int;
      (** How many rounds the node algorithm runs, derived from local
          knowledge only (advice + own degree). *)
  decide : advice:Shades_bits.Bitstring.t -> Shades_views.View_tree.t -> 'o;
      (** The node's output as a function of its gathered view. *)
}

(** [plan f] is [f] cached in one slot per domain, keyed on the physical
    advice value, so per-advice work runs once per run, not per node.
    [f] must be pure in the advice: a hit may return an earlier run's
    plan.  Exceptions are never cached: the next call reruns [f]. *)
val plan : (Shades_bits.Bitstring.t -> 'p) -> Shades_bits.Bitstring.t -> 'p

type 'o run = {
  outputs : 'o array;  (** vertex-indexed (oracle-side bookkeeping) *)
  rounds : int;  (** communication rounds used *)
  messages : int;  (** payload messages sent ({!Shades_localsim.Exec.result}) *)
  makespan : float;
      (** virtual completion time ({!Shades_localsim.Exec.result}): the
          round count for synchronous timings, the delay schedule's
          completion time under [Async] *)
  advice_bits : int;  (** length of the advice string *)
}

(** Execute the scheme on [g] through the LOCAL simulator (the node
    algorithm really exchanges messages; nothing is shortcut) under
    [exec] (default {!Shades_localsim.Exec.default}).  The timing is an
    execution choice: [Sharded] is invisible in results and traces,
    and [Async] keeps outputs and rounds (the paper's remark that the
    synchronous LOCAL process survives asynchrony via time-stamps) while
    the makespan and event interleaving follow the delay schedule.
    [on_round] and [tracer] are forwarded to
    {!Shades_localsim.Exec.run} — attach a
    {!Shades_trace.Trace.recorder} to capture a replayable trace.
    @raise Invalid_argument on a non-empty fault plan: outputs here are
    total, so crash-stop runs go through
    {!Shades_localsim.Full_info.run_adaptive} (or
    {!Shades_adversary.Fault.run}). *)
val run :
  ?exec:Shades_localsim.Exec.t ->
  ?on_round:(round:int -> messages:int -> unit) ->
  ?tracer:(Shades_trace.Event.t -> unit) ->
  'o t ->
  Shades_graph.Port_graph.t ->
  'o run

(** [run_with_advice scheme g ~advice] runs the distributed part under a
    forced advice string — the primitive for fooling experiments, where
    the pigeonhole forces one string to serve two graphs, and what the
    election daemon uses to serve requests against its advice cache.
    A small [exec.max_rounds] caps the round budget: corruption
    campaigns set it near the reference round count so corrupted advice
    demanding an absurd view depth aborts with
    {!Shades_localsim.Engine.Did_not_terminate} instead of exchanging
    exponentially growing views.
    @raise Invalid_argument on a non-empty fault plan, as {!run}. *)
val run_with_advice :
  ?exec:Shades_localsim.Exec.t ->
  ?on_round:(round:int -> messages:int -> unit) ->
  ?tracer:(Shades_trace.Event.t -> unit) ->
  'o t ->
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  'o run
