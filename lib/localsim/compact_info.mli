(** The full-information protocol with hash-consed views.

    Identical semantics to {!Full_info} — after [r] rounds each node
    holds exactly [B^r] — but views are interned in one shared
    {!Shades_views.Cview.ctx}, so deep exchanges (e.g. the
    [2(n-1)]-round runs of the time-vs-advice tradeoff) stay polynomial.
    Sharing the interning table across nodes is an implementation
    optimization only: message {e content} is unchanged. *)

(** [run g ~rounds ~advice ~decide] gathers [B^rounds] at every node and
    applies [decide ~advice ctx view]. *)
val run :
  Shades_graph.Port_graph.t ->
  rounds:int ->
  advice:Shades_bits.Bitstring.t ->
  decide:
    (advice:Shades_bits.Bitstring.t -> Shades_views.Cview.ctx ->
     Shades_views.Cview.t -> 'o) ->
  'o array

(** Like {!run} with the round count derived from the advice (asserted
    equal across nodes by {!Full_info.common_rounds}); returns decisions
    and the round count. *)
val run_adaptive :
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  rounds_of:(advice:Shades_bits.Bitstring.t -> degree:int -> int) ->
  decide:
    (advice:Shades_bits.Bitstring.t -> Shades_views.Cview.ctx ->
     Shades_views.Cview.t -> 'o) ->
  'o array * int
