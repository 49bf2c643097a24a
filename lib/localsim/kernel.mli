(** What the execution kernels behind [Exec.run] share: the run
    prologue, the per-round crash block, and the sequential round loop
    itself (the reference the sharded kernel must reproduce).

    Every kernel takes the same resolved arguments from [Exec.run]:
    an integer round budget, an [on_round] hook, an [emit] sink with
    its [tracing] flag (events whose construction costs work are built
    only when [tracing]), a [msg_size] measure, and the normalized
    [crash_at] schedule of [Engine.crash_schedule]. *)

type ('state, 'output) start = {
  csr : Shades_graph.Port_graph.Csr.t;
  states : 'state array;  (** after [init] *)
  outputs : 'output option array;
      (** round-0 decisions, voided for nodes crashed at round 0 *)
  undecided : int;  (** live undecided nodes *)
  faulty : bool;  (** some node has a finite crash round *)
}

val prologue :
  emit:(Shades_trace.Event.t -> unit) ->
  tracing:bool ->
  crash_at:int array ->
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  ('state, 'msg, 'output) Engine.algorithm ->
  ('state, 'output) start
(** Initialize every node in the calling domain, void round-0 decisions
    of nodes crashed at round 0, and (when [tracing]) emit the init
    block: every [Advice_read], then every round-0 [Crash], then
    [Decide] + [Halt] per round-0 decider, each in vertex order. *)

val crash_round :
  emit:(Shades_trace.Event.t -> unit) ->
  crash_at:int array ->
  'output option array ->
  int ->
  int
(** [crash_round ~emit ~crash_at outputs round] emits [Crash] for every
    undecided node whose crash round is [round], in vertex order, and
    returns how many went down. *)

val sequential :
  max_rounds:int ->
  on_round:(round:int -> messages:int -> unit) ->
  emit:(Shades_trace.Event.t -> unit) ->
  tracing:bool ->
  msg_size:('msg -> int) ->
  crash_at:int array ->
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  ('state, 'msg, 'output) Engine.algorithm ->
  'output option array * int * int
(** The sequential round loop: outputs, rounds, messages.
    @raise Engine.Did_not_terminate when live nodes remain undecided
    after [max_rounds] rounds. *)
