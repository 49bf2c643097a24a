(** The vertex-sharded kernel behind [Exec.Sharded].

    Partitions the vertices into contiguous shards assigned to a fixed
    crew of domains ([Shades_pool.Crew]).  Each round is a fork-join
    pipeline: every shard computes its nodes' sends into per-destination
    outboxes, a barrier, every shard drains the outboxes addressed to it
    and steps its nodes, a barrier.  Because message delivery in the
    LOCAL model is synchronous anyway — all round-[r] messages arrive
    before any round-[r+1] computation — the sharded execution is
    {e exact}: outputs, round count, message count and the event stream
    equal [Kernel.sequential]'s for every algorithm, graph, advice,
    fault plan and domain count.  Each shard buffers its events and the
    coordinator flushes the buffers in shard order after each phase,
    which — shards being contiguous ascending vertex ranges — reproduces
    the sequential vertex-ascending order.

    [send]/[step]/[output] during rounds run on worker domains and must
    be safe for {e disjoint-vertex} parallelism; [on_round] and [emit]
    are invoked only from the calling domain, between barriers. *)

val run :
  domains:int ->
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
(** Outputs, rounds, messages on [min domains (order g)] worker domains
    ([domains] clamped to at least 1, which still exercises the sharded
    path).
    @raise Engine.Did_not_terminate as [Kernel.sequential]. *)
