(** Minimum-time schemes whose advice is the full map of the network.

    These realize the "knowing the map" algorithms that define the
    election indexes: the oracle encodes the whole port-labeled graph;
    each node recomputes, from the map alone, the depth k = ψ_Z and the
    same deterministic class-to-output assignment as {!Index.solve_s}
    (etc.), gathers [B^k], finds it among the map's depth-k views (interned
    once per advice, {!Scheme.plan}; looked up exactly, in time polynomial
    in k, by {!Shades_views.Cview.find_tree}) and outputs its answer.

    Advice is Θ(m log n) bits — the expensive but task-agnostic
    baseline, against which Theorem 2.2's tiny Selection advice and the
    families' exponential lower bounds are contrasted. *)

(** @raise Invalid_argument (inside the oracle or decide) on infeasible
    graphs. *)
val selection : unit Task.answer Scheme.t

val port_election : int Task.answer Scheme.t
val port_path_election : int list Task.answer Scheme.t
val complete_port_path_election : (int * int) list Task.answer Scheme.t
