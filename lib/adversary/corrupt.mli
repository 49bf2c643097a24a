(** Advice-corruption campaigns: mutate an oracle's output, run the
    scheme on the corrupted string, and classify what happened.

    Advice is the trusted channel of the paper's framework — the oracle
    is honest by definition.  This module asks the systems question
    instead: what does a scheme do on a string the oracle did {e not}
    produce?  Three answers are possible, and the taxonomy is the point:

    - {!Detected}: the run failed (decode error, view not found in the
      map, round budget exhausted) or the verifier rejected the outputs.
      The corruption was caught — by the algorithm or by the referee.
    - {!Harmless}: valid outputs, same leader as the honest run.
    - {!Fooling}: valid outputs, {e different} leader — every node's
      answer passes the referee, yet the corrupted string moved the
      election.  This is the pigeonhole mechanism of Theorems 2.9 /
      3.11 / 4.11 made executable.

    The guaranteed fooling channel is the {e cross-instance swap}
    ({!renumber_swap}): map advice honestly computed for an
    isomorphically renumbered copy of the same network.  Every view
    still matches the map — anonymity means no node can tell the two
    numberings apart — but the decision procedure elects the first
    feasible singleton class {e in map vertex order}
    ({!Shades_election.Index}), so re-numbering moves the leader while
    keeping every path valid.  Bit-level damage (flips, bursts,
    truncations), by contrast, almost always lands in {!Detected}: the
    map codec and the view-lookup are fragile by construction. *)

type op =
  | Flip of int  (** flip one bit *)
  | Burst of { pos : int; len : int }  (** flip [len] bits from [pos] *)
  | Truncate of int  (** keep only the first [i] bits *)
  | Swap of { label : string; donor : Shades_graph.Port_graph.t }
      (** replace the advice by the same oracle's honest output on
          [donor] — a cross-instance swap *)

val op_label : op -> string
(** Stable label, e.g. ["flip:17"], ["swap:renumber-reversal"] — the
    campaign store key. *)

val mutate :
  oracle:(Shades_graph.Port_graph.t -> Shades_bits.Bitstring.t) ->
  Shades_graph.Port_graph.t ->
  op ->
  Shades_bits.Bitstring.t
(** The corrupted advice for [g].
    @raise Invalid_argument on an out-of-range position. *)

type classification =
  | Detected of { reason : string }
  | Harmless of { leader : int; rounds : int }
  | Fooling of { leader : int; reference : int; rounds : int }

val class_label : classification -> string
(** ["detected"] / ["harmless"] / ["fooling"]. *)

type prepared = {
  classify : op -> classification;
  reference_leader : int;
  reference_rounds : int;
  advice_bits : int;  (** honest advice length *)
}

val prepare :
  ?slack:int -> Shades_election.Shade.t -> Shades_graph.Port_graph.t -> prepared
(** Run the honest reference once (its leader and round count anchor
    every classification), then classify mutants against it.  Mutant
    runs are capped at [reference_rounds + slack] (default 2) rounds —
    corrupted advice demanding a huge view depth is {!Detected} by
    budget, never allowed to exchange exponentially growing views.
    [Out_of_memory] and [Stack_overflow] are never swallowed.
    @raise Invalid_argument if the {e honest} run fails its own
    verifier (an infeasible instance). *)

(** {1 Mutation generators}

    Deterministic op lists — campaigns never draw ambient randomness. *)

val reversal : int -> int array
(** The order-reversing permutation of [0 .. n-1] — the canonical
    nontrivial renumbering. *)

val renumber_swap :
  ?label:string -> Shades_graph.Port_graph.t -> int array -> op
(** [Swap] whose donor is [Port_graph.renumber g perm] (label default
    ["renumber"]). *)

val flips : bits:int -> count:int -> op list
(** [count] single-bit flips at evenly spaced distinct positions. *)

val bursts : bits:int -> len:int -> count:int -> op list
(** Bursts of [len] (clipped at the end) at evenly spaced positions.
    @raise Invalid_argument if [len < 1]. *)

val truncations : bits:int -> count:int -> op list
(** Truncations to evenly spaced keep-lengths (including 0 — empty
    advice — when [count > 0]). *)
