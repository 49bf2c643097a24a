(** The α-synchronizer kernel behind [Exec.Async].

    The paper notes that "the synchronous process of the LOCAL model can
    be simulated in an asynchronous network using time-stamps"
    (Section 1).  This kernel realizes that remark: every wire suffers
    the virtual-time delay [delay ~round ~v ~port] (non-positive values
    clamp to a small epsilon), every node tags its traffic with its
    round number and emits an explicit end-of-round marker on every port
    it sends nothing on, and a node advances to round [r+1] only after
    collecting the round-[r] traffic of all its neighbours.  Outputs and
    round count therefore equal the synchronous kernels' under every
    delay assignment; only the makespan and the event interleaving
    depend on it.

    Decided nodes halt as in the synchronous kernels: they keep emitting
    the bare markers the synchronizer requires of every port, but never
    a payload, and their state is frozen.  No node steps past
    [max_rounds].  [crash_at] must schedule no crash (the kernel
    implements no fault semantics); it only feeds the shared
    [Kernel.prologue]. *)

val run :
  delay:(round:int -> v:int -> port:int -> float) ->
  max_rounds:int ->
  on_round:(round:int -> messages:int -> unit) ->
  emit:(Shades_trace.Event.t -> unit) ->
  tracing:bool ->
  msg_size:('msg -> int) ->
  crash_at:int array ->
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  ('state, 'msg, 'output) Engine.algorithm ->
  'output option array * int * int * float
(** Outputs, rounds, messages and makespan (the virtual time of the
    last delivery processed).
    @raise Engine.Did_not_terminate with the highest round any node
    completed when live nodes remain undecided. *)
