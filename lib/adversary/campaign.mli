(** Hypothesis-driven corruption campaigns.

    A {!scenario} names a hypothesis, an instance, the shades under
    attack, and a deterministic mutation grid; {!run} fans the mutants
    onto the domain pool and produces a {!report}; the report persists
    three ways — a sharded results store for the regression gate
    ({!save} / {!gate}), a JSON document, and a markdown write-up in the
    experiment-log discipline (hypothesis, exact command, full
    classification table, continue/stop decision) for committing under
    [experiments/].

    Determinism contract: scenarios draw no ambient randomness and
    record no wall-clock, so two runs of the same scenario produce
    byte-identical stores and reports — which is what lets {!gate}
    fail on {e any} classification drift from the blessed baseline. *)

type scenario = {
  label : string;
  hypothesis : string;
  command : string;  (** how to reproduce, for the markdown log *)
  graph_label : string;
  graph : Shades_graph.Port_graph.t;
  shades : Shades_election.Shade.t list;
  ops : bits:int -> n:int -> Corrupt.op list;
      (** mutation grid, given the honest advice length and the order *)
  require_fooling : bool;
      (** whether the verdict demands at least one fooling corruption
          per feasible shade — the smoke gate's acceptance criterion;
          the wide campaign drops it because its hypothesis predicts
          fooling only where the renumbering moves the leader *)
}

type cell = {
  task : Shades_election.Task.kind;
  graph : string;
  op : string;
  classification : Corrupt.classification;
}

type shade_summary = {
  task : Shades_election.Task.kind;
  feasible : bool;
      (** the honest oracle accepted the instance; infeasible shades
          are reported with zero tallies, not silently dropped *)
  reference_leader : int;
  reference_rounds : int;
  advice_bits : int;
  detected : int;
  harmless : int;
  fooling : int;
}

type report = {
  label : string;
  hypothesis : string;
  command : string;
  graph_label : string;
  require_fooling : bool;  (** copied from the scenario *)
  cells : cell list;
  summaries : shade_summary list;
}

val smoke : unit -> scenario
(** The committed CI gate: all four map-advice shades on [path:4] —
    the smallest instance where every shade is feasible with at least
    two candidate leaders — under evenly spaced flips, bursts,
    truncations, and the reversal renumber-swap. *)

val wide : unit -> scenario list
(** The nightly, non-gating extension: the same hypothesis over more
    instances and a denser mutation grid. *)

val run : ?domains:int -> scenario -> report
(** Reference runs per shade (sequential), then every mutant classified
    on the domain pool ([domains] as {!Shades_pool.map}).  Results are
    input-ordered, hence deterministic at every domain count. *)

val verdict : ?require_fooling:bool -> report -> (unit, string list) result
(** The acceptance contract: every feasible shade shows at least one
    fooling corruption (when demanded — see below), and every accepted
    mutant agrees with its own classification (a "harmless" cell whose
    leader moved, or a "fooling" cell whose leader did not, would be an
    undetected corruption).  [require_fooling] overrides the report's
    own flag; by default the report decides — the smoke campaign
    demands fooling, the wide one only consistency, because its
    hypothesis predicts the renumber swap fools {e exactly} the shades
    whose leader is not fixed by the renumbering (on a star, the
    degree-unique center survives any renumbering for S/PE/PPE). *)

val to_store : report -> Shades_runtime.Store.t
(** One record per reference run and per mutant; params
    [family/task/graph/op/class/reason/leader] key the regression
    diff. *)

val slice : Shades_runtime.Store.record -> (string * Shades_runtime.Store.Json.t) list
(** Shard key: (family, task) — one shard per shade. *)

val save : dir:string -> report -> unit
(** {!to_store} written as a sharded store under [dir] ({!slice}
    sharding) — the blessable baseline. *)

val gate : baseline_dir:string -> report -> (unit, string list) result
(** The [make check] gate: {!verdict} must pass and the report's store
    must match the blessed baseline exactly (streamed shard-by-shard
    via manifest digests).  [Error] lists every problem. *)

val json_of_report : report -> Shades_runtime.Store.Json.t
val markdown_of_report : report -> string
