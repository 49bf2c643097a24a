module Port_graph = Shades_graph.Port_graph

type t = { id : int; degree : int; children : (int * t) array; height : int }

(* Interning key: degree plus the (arrival port, child id) skeleton. *)
type key = int * (int * int) array

type ctx = {
  intern : (key, t) Hashtbl.t;
  mutable fresh : int;
  truncs : (int * int, t) Hashtbl.t; (* (id, depth) -> truncation *)
}

let create_ctx () =
  { intern = Hashtbl.create 256; fresh = 0; truncs = Hashtbl.create 256 }

let make ctx ~degree ~children =
  if Array.length children <> 0 && Array.length children <> degree then
    invalid_arg "Cview.make: child count must be 0 or the degree";
  let key = (degree, Array.map (fun (q, c) -> (q, c.id)) children) in
  match Hashtbl.find_opt ctx.intern key with
  | Some node -> node
  | None ->
      let height =
        Array.fold_left (fun acc (_, c) -> max acc (c.height + 1)) 0 children
      in
      let node = { id = ctx.fresh; degree; children; height } in
      ctx.fresh <- ctx.fresh + 1;
      Hashtbl.add ctx.intern key node;
      node

let of_graph ctx g v ~depth =
  if depth < 0 then invalid_arg "Cview.of_graph";
  (* Memoize on (vertex, depth) for this call: hash-consing already
     unifies across calls, this just avoids re-walking. *)
  let memo = Hashtbl.create 64 in
  let rec go v depth =
    match Hashtbl.find_opt memo (v, depth) with
    | Some node -> node
    | None ->
        let d = Port_graph.degree g v in
        let node =
          if depth = 0 then make ctx ~degree:d ~children:[||]
          else
            make ctx ~degree:d
              ~children:
                (Array.init d (fun p ->
                     let u, q = Port_graph.neighbor g v p in
                     (q, go u (depth - 1))))
        in
        Hashtbl.add memo (v, depth) node;
        node
  in
  go v depth

let find_tree ctx =
  View_tree.fold_shared (fun t children ->
      if Array.exists (fun (_, c) -> Option.is_none c) children then None
      else
        let key = Array.map (fun (q, c) -> (q, (Option.get c).id)) children in
        Hashtbl.find_opt ctx.intern (t.View_tree.degree, key))

let equal a b = a.id = b.id

let truncate ctx t ~depth =
  if depth < 0 then invalid_arg "Cview.truncate";
  let rec go t depth =
    if t.height <= depth then t
    else begin
      match Hashtbl.find_opt ctx.truncs (t.id, depth) with
      | Some node -> node
      | None ->
          let node =
            if depth = 0 then make ctx ~degree:t.degree ~children:[||]
            else
              make ctx ~degree:t.degree
                ~children:
                  (Array.map (fun (q, c) -> (q, go c (depth - 1))) t.children)
          in
          Hashtbl.add ctx.truncs (t.id, depth) node;
          node
    end
  in
  go t depth

let rec to_tree t =
  {
    View_tree.degree = t.degree;
    children = Array.map (fun (q, c) -> (q, to_tree c)) t.children;
  }

let rec of_tree ctx (t : View_tree.t) =
  make ctx ~degree:t.View_tree.degree
    ~children:(Array.map (fun (q, c) -> (q, of_tree ctx c)) t.View_tree.children)
