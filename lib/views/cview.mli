(** Hash-consed views: the scalable representation of deep views.

    An explicit {!View_tree} of depth [h] has up to [deg^h] nodes, but
    as a labeled tree it has few distinct subtrees — at most one per
    (vertex, depth) pair of the underlying graph.  Hash-consing shares
    equal subtrees, so a depth-[2n] view occupies O(n²) cells and
    equality is a constant-time id comparison.  This is what makes the
    time-vs-advice tradeoff experiments (gather [B^{2(n-1)}], rebuild
    the whole map) feasible.

    All values must be created through the same {!ctx} to compare. *)

type t = private {
  id : int;  (** unique per structure within a context *)
  degree : int;
  children : (int * t) array;  (** [(arrival port, subtree)] per port *)
  height : int;
}

type ctx

val create_ctx : unit -> ctx

(** [make ctx ~degree ~children] interns a view node.
    @raise Invalid_argument if [children] is non-empty and its length
    differs from [degree]. *)
val make : ctx -> degree:int -> children:(int * t) array -> t

(** [of_graph ctx g v ~depth] is [B^depth(v)], shared: cost O(n·depth)
    new cells regardless of the explicit tree's size. *)
val of_graph :
  ctx -> Shades_graph.Port_graph.t -> Shades_graph.Port_graph.vertex ->
  depth:int -> t

(** [find_tree ctx tree] is the view interned in [ctx] equal to [tree], if
    any, in O(distinct nodes of [tree]); [ctx] gains no cell. *)
val find_tree : ctx -> View_tree.t -> t option

(** Structural equality — O(1) within one context. *)
val equal : t -> t -> bool

(** [truncate ctx t ~depth] forgets everything below [depth] (memoized
    per context). *)
val truncate : ctx -> t -> depth:int -> t

(** Expand to an explicit tree (exponential; for small views/tests). *)
val to_tree : t -> View_tree.t

(** Intern an explicit tree. *)
val of_tree : ctx -> View_tree.t -> t
