(** The one execution entry point of the LOCAL simulator.

    A run is described by one {!t} value — how time advances, which
    nodes crash, how many rounds are allowed — and executed by {!run},
    which dispatches to one of three kernels: the sequential round loop,
    the vertex-sharded round loop on a crew of domains, or the
    α-synchronizer over a delay schedule.  A run is a pure function of
    (config, graph, advice, algorithm): the seeded delay PRNG is created
    inside {!run}, so one config value can be reused freely. *)

type delay_fn = round:int -> v:int -> port:int -> float
(** An explicit delay assignment: each wire pushed on [port] of sender
    [v] during synchronizer round [round] (payload or end-of-round
    marker alike) is delayed by [delay_fn ~round ~v ~port] virtual time
    units; non-positive values clamp to a small epsilon. *)

type schedule =
  | Seeded of int
      (** every pushed wire draws its delay from a PRNG seeded with the
          given seed — a "jittery link" adversary *)
  | Plan of delay_fn
      (** an explicit assignment — the adversary's interface,
          searched by [Shades_adversary.Schedule] *)

type timing =
  | Sequential  (** the sequential round loop — the reference kernel *)
  | Sharded of int option
      (** the round loop on [min d (order g)] worker domains ([None]:
          {!Shades_pool.default_domains}); [Some 1] still exercises the
          sharded path *)
  | Async of schedule
      (** the α-synchronizer under the given delay schedule *)

type t = {
  timing : timing;
  faults : Engine.crash list;  (** crash-stop plan; [[]] = fault-free *)
  max_rounds : int option;
      (** round budget; [None] = [4 * order g + 16], linear in the order
          with slack — a budget no minimum-time scheme in this
          repository approaches *)
}

val default : t
(** [Sequential], no faults, the default budget. *)

val of_trace_engine : Shades_trace.Trace.engine -> t
(** The config that re-executes a trace recorded under the given engine
    metadata: [Sync] is {!default}, [Async {seed}] is
    [Async (Seeded seed)]. *)

type 'o result = {
  outputs : 'o option array;
      (** vertex-indexed decisions; [None] only for nodes that crashed
          before deciding *)
  rounds : int;  (** rounds executed until every live node had decided *)
  messages : int;
      (** payload messages sent (one per port per round where [send]
          returned [Some]) — the classical message-complexity measure;
          synchronizer markers are not counted *)
  makespan : float;
      (** virtual completion time: for [Async], the time of the last
          delivery processed; for the synchronous timings, [rounds]
          (every round takes unit time) *)
}

val run :
  ?on_round:(round:int -> messages:int -> unit) ->
  ?tracer:(Shades_trace.Event.t -> unit) ->
  ?msg_size:('msg -> int) ->
  t ->
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  ('state, 'msg, 'output) Engine.algorithm ->
  'output result
(** [run config g ~advice alg] executes [alg] at every node of [g] with
    the same [advice] and ends at the first round where every live node
    has decided.

    {b Equivalence.}  [Sharded d] reproduces [Sequential] exactly for
    every [d]: outputs, rounds, messages, every [on_round] call and the
    whole event stream.  [Async s] reproduces the synchronous outputs
    and round count under every schedule [s]; its makespan and event
    interleaving depend on [s].

    {b Round budget.}  No kernel executes a round beyond the budget:
    when live nodes remain undecided after it, {!Engine.Did_not_terminate}
    is raised with the rounds executed (for [Async], the highest round
    any node completed — never more than the budget).

    {b Crash-stop faults} (see {!Engine.crash}).  At the start of round
    [at_round] the victim goes permanently silent; crashed nodes never
    decide and do not block termination.  A crash scheduled for a node
    that already decided is a no-op.  With [faults = []] the event
    stream and results are exactly the fault-free run's.

    {b Tracing.}  [tracer] receives one {!Shades_trace.Event.t} per
    observable action, in a deterministic order: every [Advice_read] in
    vertex order; then every round-0 [Crash]; then [Decide] + [Halt]
    per round-0 decider.  Then per round [Round_start]; the round's
    [Crash]es, victims in vertex order, before any [Send]; every [Send]
    (vertex- then port-ascending); and per live undecided node its
    [Deliver]s in arrival-port order followed by [Decide]/[Halt] when
    its output appears.  Under [Async], every end-of-round marker — a
    port where the algorithm sent nothing, or any port of a halted node
    — is traced as [Sync_marker], never [Send], and delivery timing
    permutes the order; modulo markers and order the events coincide
    with the synchronous run's ({!Shades_trace.Diff.normalize}).
    Re-running the same config reproduces the stream exactly — the
    contract {!Shades_trace.Replay} checks.  [msg_size] measures
    messages for the [Send]/[Deliver] events' [size] field (default
    [fun _ -> 0]; it must be a pure function of the message).

    {b Telemetry.}  [on_round] fires once per executed round with the
    (1-based) round number and the cumulative message count — after
    delivery for the synchronous timings; for [Async], the first time
    an undecided node steps the round (so rounds are still reported
    1..R, once each, in order, with monotone counts).

    {b Domains.}  [init] and the round-0 [output] probes run in the
    calling domain for every timing; under [Sharded], [send]/[step]/
    [output] run on worker domains and must be safe for disjoint-vertex
    parallelism, while [on_round] and [tracer] are only invoked from
    the calling domain.

    @raise Invalid_argument on [Async] timing with a non-empty fault
    plan (no kernel implements that combination), or on a crash victim
    outside the graph. *)
