(** Explicit augmented truncated views.

    The view [V(v)] from node [v] is the infinite tree of all finite
    paths of [G] starting at [v], coded by port-number pairs.  The
    augmented truncated view [B^h(v)] is its truncation to depth [h] with
    every node labeled by its degree in [G] (the paper labels only the
    leaves, but every internal node's degree is already forced by its
    child count, so the two conventions carry the same information).

    [B^h(v)] is exactly what a deterministic node can know after [h]
    rounds of the LOCAL model, so every minimum-time algorithm in this
    library is a function of it.

    Explicit trees grow like [degree^h]; use them for small depths,
    codecs and lexicographic choices, and {!Refinement} for bulk
    equivalence queries. *)

type t = {
  degree : int;  (** degree of this node in the underlying graph *)
  children : (int * t) array;
      (** [children.(p) = (q, sub)]: following out-port [p] arrives on
          port [q] of the subtree root.  Empty at truncation depth. *)
}

(** [of_graph g v ~depth] computes [B^depth(v)].
    @raise Invalid_argument if [depth < 0]. *)
val of_graph : Shades_graph.Port_graph.t -> Shades_graph.Port_graph.vertex ->
  depth:int -> t

(** Depth at which the tree was truncated (length of the longest
    root-to-leaf path). *)
val height : t -> int

(** Number of tree nodes. *)
val node_count : t -> int

(** [fold_shared f t] folds bottom-up, [f node children] seeing each
    child's result beside its arrival port, and calls [f] once per
    physically distinct node: a gathered view shares its subtrees. *)
val fold_shared : (t -> (int * 'a) array -> 'a) -> t -> 'a

val equal : t -> t -> bool

(** Total order: degree, then child count, then children pairwise by
    (arrival port, subtree), in port order.  Used wherever the paper
    breaks ties by "lexicographically smallest view". *)
val compare : t -> t -> int

(** [truncate t ~depth] forgets everything below [depth]. *)
val truncate : t -> depth:int -> t

(** [contains_degree t d] holds iff some node of the tree has degree [d]
    (used by algorithms that look for "a node of degree X in my view"). *)
val contains_degree : t -> int -> bool

(** [depth_of_degree t d] is the least depth of a node of degree [d] in
    the tree, if any.  Because a view is the unfolding of the graph, the
    least depth equals the graph distance to the nearest such node, and
    the minimal root-to-it path in the view is a shortest — hence simple
    — path in the graph. *)
val depth_of_degree : t -> int -> int option

(** [port_towards_degree t d] is the root port of the subtree containing
    a degree-[d] node at minimal depth (smallest port on ties): "the
    first port on a simple path towards the closest degree-[d] node", as
    used by the Port Election algorithm of Lemma 3.9. *)
val port_towards_degree : t -> int -> int option

(** Fast canonical string key: equal trees produce equal keys and
    vice versa.  Not bit-optimal (unlike {!encode}); meant for hash
    tables matching a gathered view against map views on large graphs. *)
val canonical_key : t -> string

(** Self-delimiting binary code, the advice format of Theorem 2.2. *)
val encode : t -> Shades_bits.Bitstring.t

(** Inverse of {!encode}. *)
val decode : Shades_bits.Bitstring.t -> t

(** Decode from a reader positioned at a view code (allows embedding). *)
val read : Shades_bits.Reader.t -> t

(** Append the code of [t] to a writer (allows embedding). *)
val write : Shades_bits.Writer.t -> t -> unit

val pp : Format.formatter -> t -> unit
