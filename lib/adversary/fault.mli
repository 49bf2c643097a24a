(** Crash-stop fault campaigns against election schemes.

    The simulator executes any fault plan exactly
    ({!Shades_localsim.Exec.run}, byte-identical under sharding); this
    module runs a {e scheme} under a plan and names what
    happened.  The paper's algorithms are full-information protocols
    with no fault tolerance whatsoever — a crashed neighbour starves a
    live node's view exchange — so the expected outcome on any
    crash-during-execution plan is an honest {!Aborted}, not a wrong
    answer.  Plans whose victims crash after every live node decided
    (or on nodes that decide at round 0) can still {!Survived}. *)

type outcome =
  | Survived of { rounds : int; decided : int; crashed : int }
      (** every live node decided; [decided] counts them, [crashed] the
          nodes that actually went down before deciding (a victim whose
          crash round falls after its decision never does) *)
  | Stalled of { rounds : int }
      (** {!Shades_localsim.Engine.Did_not_terminate}: live nodes still
          undecided at the round budget *)
  | Aborted of { reason : string }
      (** the algorithm itself failed — for view-exchange schemes, the
          inbox-completeness assertion of a starved live node *)

val normalize :
  n:int -> Shades_localsim.Engine.crash list -> Shades_localsim.Engine.crash list
(** Canonical plan: one entry per victim (earliest crash wins, rounds
    clamped to [>= 0]), victims ascending — what
    {!Shades_localsim.Engine.crash_schedule} effectively executes.
    @raise Invalid_argument on a victim outside [0 .. n-1]. *)

val run :
  ?max_rounds:int ->
  'o Shades_election.Scheme.t ->
  Shades_graph.Port_graph.t ->
  faults:Shades_localsim.Engine.crash list ->
  outcome
(** Execute the scheme sequentially under the plan (and the round
    budget [max_rounds], {!Shades_localsim.Exec.t}) and classify.
    [Out_of_memory] and [Stack_overflow] are never swallowed. *)

val describe : outcome -> string
(** One human-readable line. *)
