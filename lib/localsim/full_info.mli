(** The full-information protocol on top of {!Exec}.

    In the LOCAL model with unbounded messages, the optimal strategy is
    for every node to forward everything it knows each round; after [r]
    rounds a node's knowledge is exactly its augmented truncated view
    [B^r] (paper, Section 1).  This module implements that protocol
    honestly — nodes exchange view trees over the simulated network —
    so every minimum-time algorithm can be phrased as
    "gather [B^r], then decide". *)

(** [run g ~rounds ~advice ~decide] executes the view-exchange protocol
    for exactly [rounds] rounds at every node and applies
    [decide ~advice view] to each node's [B^rounds].  Returns the
    decisions (vertex-indexed) — the engine guarantees [rounds] rounds
    were used (0 allowed). *)
val run :
  Shades_graph.Port_graph.t ->
  rounds:int ->
  advice:Shades_bits.Bitstring.t ->
  decide:(advice:Shades_bits.Bitstring.t -> Shades_views.View_tree.t -> 'o) ->
  'o array

(** Like {!run} but the number of rounds is computed per-node from the
    advice and the node's degree before communication starts (all paper
    algorithms derive a common round count from the advice, so the
    values coincide across nodes; {!common_rounds} asserts it), and the
    protocol runs under [exec] (default {!Exec.default}) — any timing,
    fault plan and round budget, with {!Exec.run}'s contracts.
    [on_round] and [tracer] are forwarded to {!Exec.run}; traced
    message sizes are view-tree node counts.

    Under sharding, [decide] runs on worker domains and must tolerate
    concurrent calls on distinct views (all decision procedures in this
    repository only read immutable oracle-built tables).  Under a fault
    plan the protocol's honest limit shows: it {e assumes} a message on
    every port each round (the paper's algorithms are not
    fault-tolerant), so a live neighbour of a crashed node raises
    [Assert_failure] at its first post-crash step — callers classify
    that abort rather than hide it ([Shades_adversary.Fault]).  A
    small [max_rounds] makes corrupted advice demanding an absurd view
    depth abort cheaply with {!Engine.Did_not_terminate} instead of
    exchanging exponentially growing views. *)
val run_adaptive :
  ?exec:Exec.t ->
  ?on_round:(round:int -> messages:int -> unit) ->
  ?tracer:(Shades_trace.Event.t -> unit) ->
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  rounds_of:(advice:Shades_bits.Bitstring.t -> degree:int -> int) ->
  decide:(advice:Shades_bits.Bitstring.t -> Shades_views.View_tree.t -> 'o) ->
  'o Exec.result

(** [common_rounds rounds_of] is [rounds_of] guarded for one run: every
    call must return the value of the first (asserted) — the
    rounds-agreement guard of {!run_adaptive} and
    {!Compact_info.run_adaptive}.  Use a fresh guard per run. *)
val common_rounds :
  (advice:Shades_bits.Bitstring.t -> degree:int -> int) ->
  advice:Shades_bits.Bitstring.t ->
  degree:int ->
  int
