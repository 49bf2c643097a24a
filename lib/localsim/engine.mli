(** The LOCAL model's vocabulary: node algorithms, crash-stop faults,
    and the round-budget exception.  Executing an algorithm is
    {!Exec.run}'s job.

    All nodes start simultaneously and proceed in synchronous rounds.  In
    each round every node may send one (arbitrary) message per port; all
    messages are delivered before the next round.  Nodes are anonymous:
    an algorithm sees only its degree, the common advice string, its
    ports, and the arrival ports of incoming messages — never a vertex
    index. *)

type ('state, 'msg, 'output) algorithm = {
  init : degree:int -> advice:Shades_bits.Bitstring.t -> 'state;
      (** Initial state; a node initially knows only its own degree and
          the advice (the same string at every node). *)
  send : 'state -> port:int -> 'msg option;
      (** Message to emit on [port] this round, if any. *)
  step : 'state -> (int * 'msg) list -> 'state;
      (** Advance one round. The inbox lists [(p, m)] for each message
          [m] that arrived on the node's own port [p], in increasing
          port order. *)
  output : 'state -> 'output option;
      (** [Some o] once the node has decided; polled after [init]
          (round 0) and after every [step].  A decided node has halted:
          from the next round on it sends nothing, its [step] is never
          called again (its state is frozen), and messages addressed to
          it are discarded.  In particular a node decided at round 0
          never communicates at all — the same short-circuit whether
          some or all nodes decide at initialization. *)
}

type crash = { victim : int; at_round : int }
(** One crash-stop fault: [victim] halts at the start of round
    [at_round] — from that round on it sends nothing, its [step] is
    never called, it never decides, and messages addressed to it are
    discarded; peers observe only silence (they are never told).
    [at_round <= 0] means the node is dead from initialization: it
    never sends and its init-time decision, if any, is void —
    equivalent, for every other node, to deleting the victim's outgoing
    messages entirely. *)

exception Did_not_terminate of int
(** Raised by {!Exec.run} when some {e live} node is still undecided
    once the round budget is spent; carries the rounds executed. *)

val crash_schedule : n:int -> crash list -> int array
(** The normalized per-vertex crash round ([max_int] = never): duplicate
    victims collapse to their earliest crash, negative rounds clamp
    to 0.  {!Exec.run} applies it to the config's fault plan.
    @raise Invalid_argument on a victim outside [0 .. n-1]. *)
