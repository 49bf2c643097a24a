type vertex = int

(* [adj.(v).(p) = (u, q)]: port [p] at [v] leads to [u], arriving at [q].
   Invariants established by [Builder.finish]:
   - symmetry: [adj.(v).(p) = (u, q)] iff [adj.(u).(q) = (v, p)];
   - simplicity: no self-loops, at most one edge between two vertices;
   - ports at [v] are exactly [0 .. Array.length adj.(v) - 1]. *)
type t = { adj : (vertex * int) array array }

module Builder = struct
  type t = {
    n : int;
    ports : (int, vertex * int) Hashtbl.t array; (* port -> endpoint *)
    nbrs : (vertex, unit) Hashtbl.t array; (* neighbour set *)
  }

  let create n =
    if n <= 0 then invalid_arg "Builder.create: need n >= 1";
    {
      n;
      ports = Array.init n (fun _ -> Hashtbl.create 4);
      nbrs = Array.init n (fun _ -> Hashtbl.create 4);
    }

  let check_reason b (v, p) (u, q) =
    if v < 0 || v >= b.n || u < 0 || u >= b.n then Some "vertex out of range"
    else if v = u then Some "self-loop"
    else if p < 0 || q < 0 then Some "negative port"
    else if Hashtbl.mem b.ports.(v) p then Some "port in use"
    else if Hashtbl.mem b.ports.(u) q then Some "port in use"
    else if Hashtbl.mem b.nbrs.(v) u then Some "duplicate edge"
    else None

  let can_add b e1 e2 = check_reason b e1 e2 = None

  let add_edge b ((v, p) as e1) ((u, q) as e2) =
    match check_reason b e1 e2 with
    | Some reason -> invalid_arg ("Builder.add_edge: " ^ reason)
    | None ->
        Hashtbl.replace b.ports.(v) p (u, q);
        Hashtbl.replace b.ports.(u) q (v, p);
        Hashtbl.replace b.nbrs.(v) u ();
        Hashtbl.replace b.nbrs.(u) v ()

  let finish b =
    let adj =
      Array.init b.n (fun v ->
          let d = Hashtbl.length b.ports.(v) in
          if d = 0 && b.n > 1 then
            invalid_arg "Builder.finish: isolated vertex";
          Array.init d (fun p ->
              match Hashtbl.find_opt b.ports.(v) p with
              | Some e -> e
              | None ->
                  invalid_arg
                    (Printf.sprintf
                       "Builder.finish: vertex %d has %d edges but port %d \
                        is unused"
                       v d p)))
    in
    { adj }
end

let of_edges n edges =
  let b = Builder.create n in
  List.iter (fun (e1, e2) -> Builder.add_edge b e1 e2) edges;
  Builder.finish b

let order g = Array.length g.adj

let size g =
  Array.fold_left (fun acc row -> acc + Array.length row) 0 g.adj / 2

let degree g v = Array.length g.adj.(v)

let max_degree g =
  Array.fold_left (fun acc row -> max acc (Array.length row)) 0 g.adj

let neighbor g v p =
  if p < 0 || p >= degree g v then invalid_arg "Port_graph.neighbor";
  g.adj.(v).(p)

let neighbor_vertex g v p = fst (neighbor g v p)

let port_to g v u =
  let d = degree g v in
  let rec go p =
    if p = d then None
    else if fst g.adj.(v).(p) = u then Some p
    else go (p + 1)
  in
  go 0

let edges g =
  let acc = ref [] in
  for v = order g - 1 downto 0 do
    for p = degree g v - 1 downto 0 do
      let u, q = g.adj.(v).(p) in
      if v < u then acc := ((v, p), (u, q)) :: !acc
    done
  done;
  !acc

let vertices g = List.init (order g) Fun.id

let disjoint_union gs =
  let offsets = Array.make (List.length gs) 0 in
  let total =
    List.fold_left
      (fun (i, off) g ->
        offsets.(i) <- off;
        (i + 1, off + order g))
      (0, 0) gs
    |> snd
  in
  let adj = Array.make total [||] in
  List.iteri
    (fun i g ->
      let off = offsets.(i) in
      for v = 0 to order g - 1 do
        adj.(off + v) <- Array.map (fun (u, q) -> (off + u, q)) g.adj.(v)
      done)
    gs;
  ({ adj }, offsets)

let copy g = { adj = Array.map Array.copy g.adj }

let swap_ports g v p1 p2 =
  let d = degree g v in
  if p1 < 0 || p1 >= d || p2 < 0 || p2 >= d then
    invalid_arg "Port_graph.swap_ports";
  if p1 = p2 then g
  else begin
    let g' = copy g in
    let e1 = g'.adj.(v).(p1) and e2 = g'.adj.(v).(p2) in
    g'.adj.(v).(p1) <- e2;
    g'.adj.(v).(p2) <- e1;
    (* Fix the back-pointers at the two far endpoints. *)
    let u1, q1 = e1 and u2, q2 = e2 in
    g'.adj.(u1).(q1) <- (v, p2);
    g'.adj.(u2).(q2) <- (v, p1);
    g'
  end

let relabel_ports g v perm =
  let d = degree g v in
  if Array.length perm <> d then invalid_arg "Port_graph.relabel_ports";
  let seen = Array.make d false in
  Array.iter
    (fun p ->
      if p < 0 || p >= d || seen.(p) then
        invalid_arg "Port_graph.relabel_ports: not a permutation";
      seen.(p) <- true)
    perm;
  let g' = copy g in
  let old_row = g.adj.(v) in
  let row = Array.make d (0, 0) in
  for p = 0 to d - 1 do
    row.(perm.(p)) <- old_row.(p)
  done;
  g'.adj.(v) <- row;
  for p = 0 to d - 1 do
    let u, q = old_row.(p) in
    g'.adj.(u).(q) <- (v, perm.(p))
  done;
  g'

let equal a b =
  order a = order b
  && Array.for_all2 (fun r1 r2 -> r1 = r2) a.adj b.adj

(* BFS renumbering from [start], scanning ports in ascending order:
   deterministic, and independent of the input numbering given the
   start vertex's image. *)
let bfs_perm g start =
  let n = order g in
  let perm = Array.make n (-1) in
  let queue = Queue.create () in
  perm.(start) <- 0;
  let fresh = ref 1 in
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    for p = 0 to degree g v - 1 do
      let u = fst g.adj.(v).(p) in
      if perm.(u) < 0 then begin
        perm.(u) <- !fresh;
        incr fresh;
        Queue.add u queue
      end
    done
  done;
  if !fresh <> n then invalid_arg "Port_graph.canonical: disconnected graph";
  perm

let encode g =
  let w = Shades_bits.Writer.create () in
  Shades_bits.Writer.gamma w (order g);
  for v = 0 to order g - 1 do
    Shades_bits.Writer.gamma w (degree g v);
    Array.iter
      (fun (u, q) ->
        Shades_bits.Writer.gamma w u;
        Shades_bits.Writer.gamma w q)
      g.adj.(v)
  done;
  Shades_bits.Writer.contents w

let decode bits =
  let r = Shades_bits.Reader.of_bitstring bits in
  let n = Shades_bits.Reader.gamma r in
  if n <= 0 then invalid_arg "Port_graph.decode";
  let adj =
    Array.init n (fun _ ->
        let d = Shades_bits.Reader.gamma r in
        Array.init d (fun _ ->
            let u = Shades_bits.Reader.gamma r in
            let q = Shades_bits.Reader.gamma r in
            (u, q)))
  in
  let g = { adj } in
  (* Re-validate the decoded structure via the builder. *)
  of_edges n (edges g)

(* Flat integer signature of the renumbered graph, produced directly
   from the permutation (the candidate graph itself is only built for
   the winner): per new vertex, its degree then (far vertex, far port)
   per port. *)
let int_code_of_perm g perm inv =
  let n = order g in
  let size =
    n + Array.fold_left (fun acc row -> acc + (2 * Array.length row)) 0 g.adj
  in
  let code = Array.make size 0 in
  let pos = ref 0 in
  let push v =
    code.(!pos) <- v;
    incr pos
  in
  for v_new = 0 to n - 1 do
    let v = inv.(v_new) in
    push (degree g v);
    Array.iter
      (fun (u, q) ->
        push perm.(u);
        push q)
      g.adj.(v)
  done;
  code

let renumber g perm =
  let n = order g in
  if Array.length perm <> n then invalid_arg "Port_graph.renumber";
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        invalid_arg "Port_graph.renumber: not a permutation";
      seen.(v) <- true)
    perm;
  let adj = Array.make n [||] in
  for v = 0 to n - 1 do
    adj.(perm.(v)) <- Array.map (fun (u, q) -> (perm.(u), q)) g.adj.(v)
  done;
  { adj }

let canonical g =
  let n = order g in
  let best = ref None in
  for start = 0 to n - 1 do
    let perm = bfs_perm g start in
    let inv = Array.make n 0 in
    Array.iteri (fun old_v new_v -> inv.(new_v) <- old_v) perm;
    let code = int_code_of_perm g perm inv in
    match !best with
    | Some (_, best_code) when compare best_code code <= 0 -> ()
    | _ -> best := Some (perm, code)
  done;
  let perm, _ = Option.get !best in
  (renumber g perm, perm)

let encoding_digest g =
  let bits = encode g in
  let packed = Shades_bits.Bitstring.to_packed bits in
  (* the bit length disambiguates encodings whose padding coincides *)
  let payload =
    string_of_int (Shades_bits.Bitstring.length bits)
    ^ ":"
    ^ Bytes.unsafe_to_string packed
  in
  Digest.to_hex (Digest.string payload)

let digest g = encoding_digest (fst (canonical g))

module Csr = struct
  (* Compressed sparse row: cell [row.(v) + p] holds port [p] of vertex
     [v].  Three flat int arrays instead of an array of (int * int)
     array rows — the hot engine loops touch contiguous unboxed memory
     and never allocate. *)
  type nonrec t = {
    graph : t;
    row : int array; (* length n + 1; row.(v) = first cell of v *)
    nbr : int array; (* cell -> far-end vertex *)
    far : int array; (* cell -> arrival port at the far end *)
  }

  let of_graph g =
    let n = order g in
    let row = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      row.(v + 1) <- row.(v) + Array.length g.adj.(v)
    done;
    let cells = row.(n) in
    let nbr = Array.make cells 0 and far = Array.make cells 0 in
    for v = 0 to n - 1 do
      let base = row.(v) in
      Array.iteri
        (fun p (u, q) ->
          nbr.(base + p) <- u;
          far.(base + p) <- q)
        g.adj.(v)
    done;
    { graph = g; row; nbr; far }

  let graph t = t.graph

  let order t = Array.length t.row - 1

  let degree t v = Array.unsafe_get t.row (v + 1) - Array.unsafe_get t.row v

  let neighbor_vertex t v p =
    Array.unsafe_get t.nbr (Array.unsafe_get t.row v + p)

  let neighbor_port t v p =
    Array.unsafe_get t.far (Array.unsafe_get t.row v + p)
end

let to_dot ?(highlight = []) ?(name = "G") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  Buffer.add_string buf "  node [shape=circle];\n";
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  %d [style=filled, fillcolor=lightblue];\n" v))
    highlight;
  List.iter
    (fun ((v, p), (u, q)) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %d -- %d [taillabel=\"%d\", headlabel=\"%d\", fontsize=8];\n"
           v u p q))
    (edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d" (order g) (size g);
  List.iter
    (fun ((v, p), (u, q)) -> Format.fprintf fmt "@,  %d:%d -- %d:%d" v p u q)
    (edges g);
  Format.fprintf fmt "@]"
