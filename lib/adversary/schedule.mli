(** Adversarial α-synchronizer schedules: explicit delay plans and a
    deterministic search for slow ones.

    The paper's asynchrony remark (Section 1) is unconditional: {e any}
    delay assignment yields the synchronous outputs and round count,
    because a node advances only on a full set of round-[r] wires.  The
    adversary therefore cannot change {e what} is computed — only
    {e when}.  This module makes that concrete: a {!plan} assigns a
    fixed positive delay to every directed edge, and {!search} looks for
    the plan maximizing the {e makespan} (virtual completion time,
    {!Shades_localsim.Exec.result}) — the quantity asynchrony
    does surrender to the adversary.  Everything here is deterministic;
    randomness enters only through explicit seeds ({!of_seed},
    {!sweep_seeds}). *)

type plan = { delays : float array array }
(** [delays.(v).(p)]: virtual-time delay of every wire sent on port [p]
    of vertex [v].  Per directed edge, constant across rounds — a "slow
    link" adversary.  All entries are finite and positive. *)

val make :
  Shades_graph.Port_graph.t -> (v:int -> port:int -> float) -> plan
(** Build a plan from a per-directed-edge assignment.
    @raise Invalid_argument on a non-finite or non-positive delay. *)

val uniform : Shades_graph.Port_graph.t -> float -> plan
(** Every directed edge delayed by the same amount. *)

val of_seed : Shades_graph.Port_graph.t -> seed:int -> plan
(** Per-edge delays drawn in deterministic (vertex, port) order from a
    PRNG seeded with [seed] — the plan-space counterpart of the seeded
    async engine (which redraws per wire; this draws once per edge). *)

val delay_fn : plan -> round:int -> v:int -> port:int -> float
(** The plan as an [Exec.Async (Plan _)] delay assignment
    ({!Shades_localsim.Exec.delay_fn}; the [round] argument is ignored
    — plans are round-independent). *)

val set : plan -> v:int -> port:int -> float -> plan
(** Functional single-edge update (the search's move operator).
    @raise Invalid_argument on a non-finite or non-positive delay. *)

val makespan :
  'o Shades_election.Scheme.t -> Shades_graph.Port_graph.t -> plan -> float
(** Run the scheme asynchronously under the plan and report the virtual
    completion time ({!Shades_election.Scheme.run} under
    [Async (Plan (delay_fn plan))]). *)

val sweep_seeds :
  'o Shades_election.Scheme.t ->
  Shades_graph.Port_graph.t ->
  seeds:int list ->
  (int * float) list
(** Per-seed makespans of {!of_seed} plans — the delay {e distribution}
    over swept seeds, for campaign baselines. *)

type search_result = {
  plan : plan;
  makespan : float;
  evaluations : int;  (** scheme executions spent by the search *)
}

val default_menu : float list
(** Candidate delays the search branches over: [0.05; 0.25; 0.5; 1.0]. *)

val search :
  ?beam:int ->
  ?menu:float list ->
  ?passes:int ->
  'o Shades_election.Scheme.t ->
  Shades_graph.Port_graph.t ->
  init:plan ->
  search_result
(** Beam-searched coordinate ascent maximizing {!makespan}: directed
    edges in deterministic (vertex, port) order, each beam member
    branching over [menu] (default {!default_menu}), the [beam]
    (default 1 = greedy) best plans surviving under a stable ranking;
    up to [passes] (default 2) full sweeps with early exit when a pass
    stops improving.  Fully deterministic for fixed arguments.  Each
    move costs one full scheme execution, so keep graphs small.
    @raise Invalid_argument on [beam < 1], an empty menu, or a
    non-positive menu entry. *)
