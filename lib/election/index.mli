(** Exact election indexes ψ_Z(G) (Section 1 of the paper).

    For a feasible graph [G] and task [Z], ψ_Z(G) is the minimum number
    of rounds in which [Z] can be solved when nodes know the map of [G].
    After [k] rounds a node's knowledge is exactly [B^k], so a [k]-round
    algorithm is precisely a function from view classes to outputs; a
    task is [k]-solvable iff some node with a unique [B^k] can be chosen
    as leader and every other class admits a single output valid for
    {e all} of its members simultaneously.  The [solve_*] functions
    search for such an assignment (deterministically, smallest-first) and
    the [psi_*] functions search depths for the least solvable one.

    {b Monotonicity.}  If [Z] is [k]-solvable it is [(k+1)]-solvable:
    every class at depth [k+1] is a subset of a class at depth [k], and
    the leader's class stays a singleton, so the depth-[k] assignment
    remains a valid common output for every depth-[(k+1)] class.  So
    the [psi_*] functions gallop over one {!Shades_views.Refinement.fixpoint}:
    they try depths ψ_S, ψ_S+1, ψ_S+3, ψ_S+7, … (capped at the fixpoint
    depth, past which nothing changes) and bisect the last gap, making
    O(log ψ) solver calls.

    {b The joint route search} (PPE and CPPE) looks for one port
    sequence that traces a simple path from every member of a class to
    the leader at once, trying sequences in lexicographic order and
    returning the first.  Each member's route is an array-backed
    visited set, undone on backtrack.  Before a joint state is expanded
    it is cut if some member cannot reach the leader in [G] minus the
    vertices its own route has used (one stamped BFS per member): every
    completion of that member's route would be such a path, so a cut
    subtree holds no solution and the first route found is the one the
    uncut search finds.  A class whose search fails for one candidate
    leader is tried first for the next: classes are disjoint and each
    gets its own first route, so the order changes only how soon a
    failing leader is rejected.  The worst case is still exponential
    in the route length: the cut prunes dead ends, not the branching
    among live ones.  Use these on small graphs (the paper's families have
    dedicated algorithms in [Shades_families]). *)

type vertex = Shades_graph.Port_graph.vertex

(** {1 Fixed-depth solvers}

    Each returns per-vertex answers of a correct [depth]-round algorithm
    (constant on view classes at that depth), or [None] if the task is
    not [depth]-solvable. *)

val solve_s :
  Shades_graph.Port_graph.t -> depth:int -> unit Task.answer array option

val solve_pe :
  Shades_graph.Port_graph.t -> depth:int -> int Task.answer array option

val solve_ppe :
  Shades_graph.Port_graph.t -> depth:int -> int list Task.answer array option

val solve_cppe :
  Shades_graph.Port_graph.t -> depth:int ->
  (int * int) list Task.answer array option

(** {1 Election indexes}

    [None] when the graph is infeasible (some views coincide forever). *)

val psi_s : Shades_graph.Port_graph.t -> int option
val psi_pe : Shades_graph.Port_graph.t -> int option
val psi_ppe : Shades_graph.Port_graph.t -> int option
val psi_cppe : Shades_graph.Port_graph.t -> int option

val psi : Task.kind -> Shades_graph.Port_graph.t -> int option

(** All four indexes at once: one fixpoint refinement, four searches
    over it. *)
val all : Shades_graph.Port_graph.t -> (Task.kind * int option) list
