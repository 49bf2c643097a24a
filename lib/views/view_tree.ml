module Port_graph = Shades_graph.Port_graph

type t = { degree : int; children : (int * t) array }

let rec of_graph g v ~depth =
  if depth < 0 then invalid_arg "View_tree.of_graph";
  let d = Port_graph.degree g v in
  if depth = 0 then { degree = d; children = [||] }
  else
    {
      degree = d;
      children =
        Array.init d (fun p ->
            let u, q = Port_graph.neighbor g v p in
            (q, of_graph g u ~depth:(depth - 1)));
    }

let rec height t =
  Array.fold_left (fun acc (_, sub) -> max acc (1 + height sub)) 0 t.children

module Phys = Hashtbl.Make (struct
  type nonrec t = t
  let equal = ( == )
  let hash = Hashtbl.hash
end)

let fold_shared f t =
  let memo = Phys.create 64 in
  let rec go t =
    match Phys.find_opt memo t with
    | Some r -> r
    | None ->
        let r = f t (Array.map (fun (q, sub) -> (q, go sub)) t.children) in
        Phys.add memo t r;
        r
  in
  go t

let node_count =
  fold_shared (fun _ children ->
      Array.fold_left (fun acc (_, count) -> acc + count) 1 children)

let rec compare a b =
  let c = Int.compare a.degree b.degree in
  if c <> 0 then c
  else
    let c = Int.compare (Array.length a.children) (Array.length b.children) in
    if c <> 0 then c
    else begin
      let n = Array.length a.children in
      let rec go p =
        if p = n then 0
        else
          let qa, sa = a.children.(p) and qb, sb = b.children.(p) in
          let c = Int.compare qa qb in
          if c <> 0 then c
          else
            let c = compare sa sb in
            if c <> 0 then c else go (p + 1)
      in
      go 0
    end

let equal a b = compare a b = 0

let rec truncate t ~depth =
  if depth < 0 then invalid_arg "View_tree.truncate";
  if depth = 0 then { degree = t.degree; children = [||] }
  else
    {
      degree = t.degree;
      children =
        Array.map (fun (q, sub) -> (q, truncate sub ~depth:(depth - 1)))
          t.children;
    }

let rec contains_degree t d =
  t.degree = d
  || Array.exists (fun (_, sub) -> contains_degree sub d) t.children

let rec depth_of_degree t d =
  if t.degree = d then Some 0
  else
    Array.fold_left
      (fun acc (_, sub) ->
        match depth_of_degree sub d with
        | None -> acc
        | Some h -> (
            match acc with
            | None -> Some (h + 1)
            | Some best -> Some (min best (h + 1))))
      None t.children

let port_towards_degree t d =
  let best = ref None in
  Array.iteri
    (fun p (_, sub) ->
      match depth_of_degree sub d with
      | None -> ()
      | Some h -> (
          match !best with
          | Some (_, bh) when bh <= h -> ()
          | _ -> best := Some (p, h)))
    t.children;
  Option.map fst !best

(* Each integer is two bytes (degrees and ports < 65536 in any graph we
   handle); one marker byte distinguishes truncation leaves from
   expanded nodes, making the code prefix-free and hence injective. *)
let canonical_key t =
  let buf = Buffer.create 256 in
  let int16 v =
    assert (v >= 0 && v < 0x10000);
    Buffer.add_char buf (Char.chr (v lsr 8));
    Buffer.add_char buf (Char.chr (v land 0xff))
  in
  let rec go t =
    int16 t.degree;
    if Array.length t.children = 0 then Buffer.add_char buf '.'
    else begin
      Buffer.add_char buf '!';
      Array.iter
        (fun (q, sub) ->
          int16 q;
          go sub)
        t.children
    end
  in
  go t;
  Buffer.contents buf

let rec write w t =
  Shades_bits.Writer.gamma w t.degree;
  (* One bit distinguishes a truncation leaf from an expanded node; an
     expanded node's child count equals its degree. *)
  if Array.length t.children = 0 then Shades_bits.Writer.bit w false
  else begin
    Shades_bits.Writer.bit w true;
    Array.iter
      (fun (q, sub) ->
        Shades_bits.Writer.gamma w q;
        write w sub)
      t.children
  end

let encode t =
  let w = Shades_bits.Writer.create () in
  write w t;
  Shades_bits.Writer.contents w

let rec read r =
  let degree = Shades_bits.Reader.gamma r in
  let expanded = Shades_bits.Reader.bit r in
  if not expanded then { degree; children = [||] }
  else
    {
      degree;
      children =
        Array.init degree (fun _ ->
            let q = Shades_bits.Reader.gamma r in
            let sub = read r in
            (q, sub));
    }

let decode bits = read (Shades_bits.Reader.of_bitstring bits)

let rec pp fmt t =
  if Array.length t.children = 0 then Format.fprintf fmt "%d" t.degree
  else begin
    Format.fprintf fmt "@[<hov 1>%d(" t.degree;
    Array.iteri
      (fun p (q, sub) ->
        if p > 0 then Format.fprintf fmt "@ ";
        Format.fprintf fmt "%d:%d->%a" p q pp sub)
      t.children;
    Format.fprintf fmt ")@]"
  end
