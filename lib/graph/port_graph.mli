(** Simple undirected connected graphs with local port numbers.

    This is the network model of the paper: nodes are anonymous, but at a
    node of degree [d] the incident edges carry distinct ports
    [0 .. d-1]; an edge has one port at each endpoint, with no relation
    between the two.  Vertex indices exist only for the simulator and the
    oracle (which both know the whole network); distributed algorithms
    never see them. *)

type vertex = int

type t

(** {1 Building} *)

module Builder : sig
  type graph := t
  type t

  (** [create n] starts a builder for a graph on vertices [0 .. n-1]. *)
  val create : int -> t

  (** [add_edge b (v, p) (u, q)] adds an edge between [v] (port [p]) and
      [u] (port [q]).
      @raise Invalid_argument on self-loops, vertices out of range, reuse
      of an occupied port, or a duplicate edge. *)
  val add_edge : t -> vertex * int -> vertex * int -> unit

  (** True iff [add_edge] would succeed (same conditions, no exception). *)
  val can_add : t -> vertex * int -> vertex * int -> bool

  (** Validate and freeze. Checks that every vertex of degree [d] uses
      exactly ports [0 .. d-1].
      @raise Invalid_argument if ports are non-contiguous or the graph has
      an isolated vertex while [n > 1]. *)
  val finish : t -> graph
end

(** [of_edges n edges] builds a graph from [(v, p), (u, q)] pairs. *)
val of_edges : int -> ((vertex * int) * (vertex * int)) list -> t

(** {1 Accessors} *)

(** Number of vertices. *)
val order : t -> int

(** Number of edges. *)
val size : t -> int

val degree : t -> vertex -> int

val max_degree : t -> int

(** [neighbor g v p] is [(u, q)]: following port [p] out of [v] reaches
    [u], arriving on [u]'s port [q].
    @raise Invalid_argument if [p >= degree g v]. *)
val neighbor : t -> vertex -> int -> vertex * int

(** [neighbor_vertex g v p] is just the endpoint of {!neighbor}. *)
val neighbor_vertex : t -> vertex -> int -> vertex

(** [port_to g v u] is [Some p] iff port [p] at [v] leads to [u]. *)
val port_to : t -> vertex -> vertex -> int option

(** All edges, each once, as [((v, p), (u, q))] with [v < u]. *)
val edges : t -> ((vertex * int) * (vertex * int)) list

val vertices : t -> vertex list

(** {1 Surgery} *)

(** Disjoint union; the [i]-th component's vertex [v] becomes
    [offset.(i) + v] where [offset] is the returned array. *)
val disjoint_union : t list -> t * int array

(** [swap_ports g v p1 p2] exchanges ports [p1] and [p2] at [v]. *)
val swap_ports : t -> vertex -> int -> int -> t

(** [relabel_ports g v perm] renumbers ports at [v]: old port [p] becomes
    [perm.(p)]. [perm] must be a permutation of [0 .. degree g v - 1]. *)
val relabel_ports : t -> vertex -> int array -> t

(** {1 Comparisons and encoding} *)

(** Structural equality of the vertex-indexed representation (same vertex
    numbering, same ports). *)
val equal : t -> t -> bool

(** [renumber g perm] relabels vertex [v] as [perm.(v)].
    @raise Invalid_argument if [perm] is not a permutation. *)
val renumber : t -> int array -> t

(** [canonical g] renumbers the vertices of a {e connected} graph into a
    canonical form: BFS numbering (port-ascending) is deterministic
    given a start vertex, and the start minimizing the encoded result is
    chosen.  Returns the canonical graph and the permutation
    [perm.(old) = new].  Two port-preserving-isomorphic connected graphs
    have equal canonical forms.
    @raise Invalid_argument if [g] is disconnected. *)
val canonical : t -> t * int array

(** [encode g] is a canonical bitstring for the indexed graph (the "map"
    given as advice in minimum-time algorithms with full knowledge). *)
val encode : t -> Shades_bits.Bitstring.t

(** Inverse of {!encode}.
    @raise Shades_bits.Reader.Out_of_bits or [Invalid_argument] on
    malformed input. *)
val decode : Shades_bits.Bitstring.t -> t

(** [encoding_digest g] is a hex digest (MD5) of [encode g] tagged
    with its bit length: a digest of the vertex numbering as given. *)
val encoding_digest : t -> string

(** [digest g] is a hex digest (MD5) of the {e canonical} map encoding:
    [encoding_digest (fst (canonical g))].
    Two connected graphs have equal digests iff they are
    port-preserving isomorphic, so the digest is a content address for
    the anonymous network itself, independent of the vertex numbering
    a caller happened to submit (the advice-cache key of
    [Shades_server]).  Costs one {!canonical} computation.
    @raise Invalid_argument if [g] is disconnected. *)
val digest : t -> string

(** Flat compressed-sparse-row adjacency for hot paths.

    The simulation engines walk every port of every vertex every round;
    the nested [(vertex * port) array array] representation costs a
    pointer chase and a tuple load per step.  [Csr] packs the same
    adjacency into three flat [int array]s (row offsets, far vertices,
    arrival ports), so the inner loops read contiguous unboxed memory
    and allocate nothing.  Building it is [O(n + m)], done once per
    run. *)
module Csr : sig
  type graph := t

  type t

  (** [of_graph g] packs [g]'s adjacency.  [g] is retained (shared, not
      copied) and recoverable via {!graph}. *)
  val of_graph : graph -> t

  val graph : t -> graph

  val order : t -> int

  val degree : t -> vertex -> int

  (** [neighbor_vertex t v p] / [neighbor_port t v p] are the
      components of [neighbor (graph t) v p].  For speed these are
      {e unchecked}: [v] must be a vertex and [p < degree t v], as the
      engines' own loop bounds guarantee. *)
  val neighbor_vertex : t -> vertex -> int -> vertex

  val neighbor_port : t -> vertex -> int -> int
end

val pp : Format.formatter -> t -> unit

(** Graphviz rendering: one undirected edge per link, with both port
    numbers as head/tail labels ([taillabel] = the lower endpoint's
    port).  [highlight] vertices are filled. *)
val to_dot :
  ?highlight:vertex list -> ?name:string -> t -> string
