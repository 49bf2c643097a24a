(** Scalable view-equivalence classes via port-aware color refinement.

    [B^h(u) = B^h(v)] iff iterated refinement assigns [u] and [v] the
    same color at round [h], where the round-0 color is the degree and
    the round-[d] color is determined by
    [(deg v, [(q_p, color_{d-1}(neighbor_p v))]_p)] — the children of a
    view node are totally ordered by out-port, so the unfolding is
    determined by this signature.  Computing all classes at all depths up
    to [h] costs [O(h * edges)] with hash-consing, against the
    exponential cost of explicit view trees.

    Colors refine monotonically with depth (equality of [B^{d+1}] implies
    equality of [B^d]), so once two consecutive depths induce the same
    number of classes the partition is stable forever. *)

type t

(** [compute g ~depth] computes classes at depths [0 .. depth]. *)
val compute : Shades_graph.Port_graph.t -> depth:int -> t

(** [fixpoint g] refines until the partition stabilizes.  {!depth} of the
    result is the first depth whose partition equals the next one (so
    every depth [>= depth t] has the same partition). *)
val fixpoint : Shades_graph.Port_graph.t -> t

(** Largest depth stored. *)
val depth : t -> int

(** [class_of t ~depth v] is the class id of [v]; ids are dense in
    [0 .. class_count - 1] per depth but not comparable across depths.
    @raise Invalid_argument if [depth] exceeds {!depth}. *)
val class_of : t -> depth:int -> Shades_graph.Port_graph.vertex -> int

(** Number of classes at [depth]. *)
val class_count : t -> depth:int -> int

(** Vertices grouped by class at [depth]; index by class id. *)
val classes : t -> depth:int -> Shades_graph.Port_graph.vertex list array

(** Vertices whose class at [depth] is a singleton, i.e. nodes whose
    [B^depth] is unique in the graph — the candidates of Prop 2.1. *)
val singletons : t -> depth:int -> Shades_graph.Port_graph.vertex list

(** [equal_views t ~depth u v]: [B^depth(u) = B^depth(v)]. *)
val equal_views :
  t -> depth:int -> Shades_graph.Port_graph.vertex ->
  Shades_graph.Port_graph.vertex -> bool

(** [equal_views_cross ga va gb vb ~depth]: compare views across two
    graphs by refining their disjoint union. *)
val equal_views_cross :
  Shades_graph.Port_graph.t -> Shades_graph.Port_graph.vertex ->
  Shades_graph.Port_graph.t -> Shades_graph.Port_graph.vertex ->
  depth:int -> bool

(** [first_singleton_depth t] is the least depth [<= depth t] with a
    singleton class, or [None] if [t] has none. *)
val first_singleton_depth : t -> int option

(** Minimum depth (≤ the stabilization depth) at which some vertex has a
    unique view, or [None] if none exists even at the fixpoint.  By
    Proposition 2.1 this is exactly the Selection index ψ_S when the
    graph is feasible. *)
val min_unique_depth : Shades_graph.Port_graph.t -> int option

(** A graph is feasible for leader election iff all views are distinct
    (Yamashita–Kameda); equivalently the fixpoint partition is discrete. *)
val feasible : Shades_graph.Port_graph.t -> bool

(** [canonical_order g] is a canonical total order of the vertices of a
    feasible graph: round-0 colors are degree {e ranks}, and each
    round's new colors are the {e sorted} ranks of the refinement
    signatures, so color values are isomorphism-invariant (unlike
    {!class_of} ids, which depend on scan order).  When the fixpoint is
    discrete the final colors are a bijection; returns
    [Some perm] with [perm.(v)] the canonical rank of [v], or [None]
    for infeasible graphs.  Two port-preserving-isomorphic graphs get
    compatible orders: the isomorphism maps rank i to rank i. *)
val canonical_order : Shades_graph.Port_graph.t -> int array option
