(** Grid sweeps: compose the paper's graph families with their election
    schemes into job lists for {!Shades_pool}, producing {!Store}
    records.

    A sweep point is a named integer assignment (e.g.
    [delta=4 k=1 i=2]); {!range} and {!cross} build grids of points;
    the [*_jobs] builders turn points into runnable jobs — each job
    builds its family instance, runs the minimum-time scheme through
    the LOCAL simulator (with {!Metrics} telemetry fed by the engine's
    [on_round] hook), and verifies the outputs with the referee-grade
    checker.  {!run} fans the jobs across domains (scheduling the
    largest projected instances first) and returns records in grid
    order, independent of the domain count. *)

type point = (string * int) list
(** One sweep point: parameter name → value, in axis order. *)

type axis

val axis : string -> int list -> axis
(** An explicit list of values. *)

val range : ?step:int -> string -> lo:int -> hi:int -> axis
(** Inclusive integer range, [step] (default 1) must be positive. *)

val cross : axis list -> point list
(** Cartesian product, row-major: the last axis varies fastest.  The
    result order is the record order of {!run}. *)

type outcome = {
  rounds : int;
  messages : int;  (** from the engine's [on_round] telemetry *)
  advice_bits : int;
  graph_order : int;
  verified : bool;  (** the task verifier accepted the outputs *)
}

type job = {
  family : string;
      (** "g", "g-async", "u" or "j" — recorded as the [family] param *)
  params : point;
  cost : int;
      (** projected node count of the instance — the scheduling weight
          {!run} sorts by (largest first); a cheap deterministic
          estimate, not a promise *)
  engine : Shades_trace.Trace.engine;
      (** which simulator drives [exec] — [Sync] for the round-driven
          engine, [Async {seed}] for the α-synchronizer; stamped into
          the captured trace's metadata by {!run_traced} *)
  exec : tracer:(Shades_trace.Event.t -> unit) option -> Metrics.t -> outcome;
      (** runs the job; [tracer] (if any) receives the engine's event
          stream and must not change the metrics the job records —
          {!run} passes [None], {!run_traced} a recorder *)
}

(** The synchronous job builders below take an [?exec] config
    (default {!Shades_localsim.Exec.default}) and run the scheme
    through {!Shades_election.Scheme.run} under it.  Pass a synchronous
    timing — [Sequential] or [Sharded _]: sharding is an execution
    detail, not a model change, invisible in results, metrics, job
    params, labels, and trace metadata (the trace [engine] stays
    [Sync]), so records and blessed baselines are identical across
    timings and domain counts.  Contrast with the ["g-async"] family,
    which is a {e semantic} variant (different event stream) and
    therefore a separate family with its own baselines and its own
    [Async (Seeded seed)] timing. *)

val gclass_job : ?exec:Shades_localsim.Exec.t -> point -> job option
(** Selection (Theorem 2.2 scheme) on [G_i] of [G_{∆,k}].  Point keys:
    [delta] (≥ 3), [k] (≥ 1), optional [i] (default 2 — the smallest
    index with all lemma guarantees).  [None] if the point is outside
    the class (e.g. [i] exceeds the class size). *)

val uclass_job : ?exec:Shades_localsim.Exec.t -> point -> job option
(** Port Election (Lemma 3.9 scheme) on [G_σ] of [U_{∆,k}] with
    uniform σ.  Point keys: [delta] (≥ 4), [k] (≥ 1), optional [sigma]
    (default 1, must be in [1..∆−1]).  [None] outside the class, and
    also for instances with more than 50 000 trees (|U| grows doubly
    exponentially; those graphs cannot be built in memory). *)

val default_max_order : int
(** Node budget for {!jclass_job} when [max_order] is omitted
    (20 000 — J(3,4) fits up to [z_eff = 4]). *)

val jclass_job :
  ?exec:Shades_localsim.Exec.t -> ?max_order:int -> metrics:Metrics.t ->
  point -> job option
(** Complete Port-Position Election (Lemma 4.8 scheme) on the scaled
    template [J_{Y=0}] of [J_{µ,k}].  Point keys: [mu] (≥ 3), [k]
    (≥ 4), optional [z_eff] (default 1, must be in [1..z(µ,k)]).
    [None] outside the class — and also when the exact instance order
    [2^{z_eff}·(4(|H|−1)+1)] exceeds [max_order], because the chain
    doubles per [z_eff]; that skip is never silent: it bumps the
    [jclass_skipped_max_order] counter of [metrics] (a
    {e sweep-level} registry, distinct from the per-job registries
    {!run} creates). *)

val gclass_async_job : point -> job option
(** The {!gclass_job} instance driven through the α-synchronizer
    ([Async (Seeded seed)], {!Shades_localsim.Exec.of_trace_engine})
    instead of the synchronous engine: family ["g-async"], extra point
    key [seed] (default 0) feeding the delay PRNG.  Outputs, rounds and
    verification must match the synchronous run (the scheme is
    timing-oblivious);
    what this family pins down in blessed baselines is the seeded
    schedule itself — delay draws, [Sync_marker]s and message
    interleaving as a function of [(point, seed)]. *)

val gclass_jobs : ?exec:Shades_localsim.Exec.t -> point list -> job list
val gclass_async_jobs : point list -> job list
val uclass_jobs : ?exec:Shades_localsim.Exec.t -> point list -> job list
(** Valid jobs for every point of a grid, in grid order (invalid
    points are dropped). *)

val jclass_jobs :
  ?exec:Shades_localsim.Exec.t -> ?max_order:int -> metrics:Metrics.t ->
  point list -> job list
(** {!jclass_job} over a grid; over-budget skips are tallied in
    [metrics] as for {!jclass_job}. *)

val tiny_points : point list
(** The smallest honest grid (Selection on G, ∆ ∈ 3..4, k = 1, i = 2)
    — the smoke grid behind [sweep --tiny], the [make check] regression
    gate, and the committed [BENCH_tiny/] baseline. *)

val tiny_async_points : point list
(** The async rider on the tiny grid: the ∆ = 3 point with [seed = 0],
    run as a ["g-async"] job so both gates also pin the seeded
    α-synchronizer schedule. *)

val tiny_jclass_points : point list
(** The CPPE rider on the tiny grid: the smallest legal J-class corner
    (μ = 3, k = 4) at [z_eff = 1] (402 nodes), so the gates pin all
    four shades rather than Selection alone. *)

val tiny_jobs : ?exec:Shades_localsim.Exec.t -> unit -> job list
(** The G-class grid, the async rider, and the J-class rider, in that
    order — exactly what [sweep --tiny], [make check] and the committed
    [BENCH_tiny/] baseline run.  [exec] applies to the synchronous
    jobs; the async rider keeps its seeded α-synchronizer timing. *)

val schedule_order : job list -> int list
(** The pickup order {!run} hands jobs to the pool: indexes into the
    job list, largest projected [cost] first, ties by list position
    (the longest-processing-time heuristic).  Exposed so [sweep
    --dry-run] can print exactly the schedule a real run would use. *)

val run : ?domains:int -> job list -> Store.record list
(** Execute the jobs on a domain pool ([domains] as in
    {!Shades_pool.map}) and
    return one record per job, in job-list order.  Jobs are handed to
    the pool largest-[cost]-first (longest-processing-time heuristic)
    so a big instance never trails as the last pickup; the returned
    order and every record are unchanged by the scheduling.  Each job
    gets a fresh {!Metrics} registry; its snapshot, the measured
    rounds/messages/advice bits, [graph_order] and [verified] counters,
    and the job wall-time land in the record.  Records are identical
    across domain counts except for timing fields
    ({!Store.strip_timing}). *)

val label_of_job : job -> string
(** Human-readable job identity, e.g. ["g,delta=3,k=1,i=2"] — the
    family followed by the point's parameters in axis order.  Stored as
    each captured trace's [label]. *)

val key_of_job : job -> string
(** {!label_of_job} passed through
    {!Shades_trace.Baseline.key_of_label}: the stable key under which
    the job's blessed baseline trace is filed.  [trace bless], [trace
    gate] and {!run_traced}'s [~baseline] mode all derive keys through
    this one function, so they agree across processes and PRs. *)

val run_traced :
  ?domains:int ->
  ?capacity:int ->
  ?baseline:string ->
  job list ->
  (Store.record * Shades_trace.Trace.t) list
  * (Shades_trace.Baseline.report, string) result option
(** Like {!run}, but each job additionally records its event stream
    through a {!Shades_trace.Trace.recorder} of [capacity] (default
    {!Shades_trace.Trace.default_capacity}) and returns the captured
    trace next to its record.  Tracing is metrics-neutral: the records
    are byte-identical to {!run}'s (timing aside), so the regression
    gate can trace its runs without forking the baseline.

    @param baseline compare mode: a blessed-trace store directory (see
    {!Shades_trace.Baseline}).  When given, every captured trace is
    gated against it under the job's {!key_of_job} and the second
    component carries the outcome: [Some (Ok report)] with the per-job
    verdicts (first divergent [(round, vertex, event)] for each
    drifted job), or [Some (Error _)] when the baseline manifest
    itself is unreadable.  Without [~baseline] it is [None]. *)
