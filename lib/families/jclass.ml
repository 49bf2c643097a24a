module Port_graph = Shades_graph.Port_graph
module Paths = Shades_graph.Paths
module View_tree = Shades_views.View_tree
module Task = Shades_election.Task
module Scheme = Shades_election.Scheme
module Writer = Shades_bits.Writer
module Reader = Shades_bits.Reader

type vertex = Port_graph.vertex

type params = { mu : int; k : int; z_eff : int }

let z ~mu ~k = Component.z ~mu ~k

let check ({ mu; k; z_eff } as params) =
  if mu < 3 then invalid_arg "Jclass: need mu >= 3 (see Lemma 4.8 finding)";
  if k < 4 then invalid_arg "Jclass: need k >= 4";
  if z_eff < 1 || z_eff > z ~mu ~k then invalid_arg "Jclass: z_eff out of range";
  params

let num_gadgets p = 1 lsl p.z_eff

let class_size_log2 ~mu ~k = Float.of_int (1 lsl (z ~mu ~k - 1))

type gadget = {
  rho : vertex;
  components : Component.t array;
  first_vertex : vertex;
  last_vertex : vertex;
}

type t = {
  params : params;
  y : bool array;
  graph : Port_graph.t;
  gadgets : gadget array;
}

let y_zero p = Array.make (1 lsl (p.z_eff - 1)) false

let build ({ mu; k; z_eff } as params) ~y =
  let params = check params in
  let g_count = num_gadgets params in
  let half = g_count / 2 in
  if Array.length y <> half then invalid_arg "Jclass.build: |y| <> 2^{z_eff-1}";
  let proto = Proto.create () in
  let gadgets =
    Array.init g_count (fun g ->
        let first_vertex = Proto.order proto in
        let rho = Proto.fresh proto in
        (* Port groups at ρ: L, T, R, B at offsets 0, µ, 2µ, 3µ — except
           that y swaps R/B on the left half and (mirrored) L/T on the
           right half (Part 5). *)
        let swap_rb = g < half && y.(g) in
        let swap_lt = g >= half && y.(g_count - 1 - g) in
        let offsets =
          [|
            (if swap_lt then mu else 0);
            (if swap_lt then 0 else mu);
            (if swap_rb then 3 * mu else 2 * mu);
            (if swap_rb then 2 * mu else 3 * mu);
          |]
        in
        let components =
          Array.map
            (fun off -> Component.add proto ~mu ~k ~root:rho ~port_offset:off)
            offsets
        in
        { rho; components; first_vertex; last_vertex = Proto.order proto - 1 })
  in
  (* Part 4: encode each gadget index (bit q of i = bit q−1, LSB first)
     at the layer-k pairs, and cross-link consecutive gadgets. *)
  let link_pair c q =
    let w1, w2 = c.Component.w.(q) in
    let d = c.Component.w_base_degree.(q) in
    Proto.link proto (w1, d) (w2, d)
  in
  let cross r l q =
    let r1, r2 = r.Component.w.(q) in
    let l1, l2 = l.Component.w.(q) in
    let dr = r.Component.w_base_degree.(q)
    and dl = l.Component.w_base_degree.(q) in
    Proto.link proto (r1, dr) (l2, dl);
    Proto.link proto (r2, dr) (l1, dl)
  in
  for i = 1 to g_count - 1 do
    for q = 0 to z_eff - 1 do
      if (i lsr q) land 1 = 1 then begin
        link_pair gadgets.(i - 1).components.(3) q (* HB of Ĥ_{i−1} *);
        link_pair gadgets.(i).components.(1) q (* HT of Ĥ_i *);
        cross gadgets.(i - 1).components.(2) gadgets.(i).components.(0) q
      end
    done
  done;
  { params; y; graph = Proto.build proto; gadgets }

let gadget_of_vertex t v =
  let rec search lo hi =
    if lo > hi then invalid_arg "Jclass.gadget_of_vertex"
    else begin
      let mid = (lo + hi) / 2 in
      let g = t.gadgets.(mid) in
      if v < g.first_vertex then search lo (mid - 1)
      else if v > g.last_vertex then search (mid + 1) hi
      else mid
    end
  in
  search 0 (Array.length t.gadgets - 1)

let w_values t ~gadget =
  let g = t.gadgets.(gadget) in
  Array.map
    (fun c ->
      let value = ref 0 in
      Array.iteri
        (fun q (w1, _) ->
          (* Both pair members gain the extra edge together; read the
             first one. *)
          if Port_graph.degree t.graph w1 > c.Component.w_base_degree.(q)
          then value := !value lor (1 lsl q))
        c.Component.w;
      !value)
    g.components

let cppe_assignment t =
  let g_count = Array.length t.gadgets in
  let rhos = Array.map (fun g -> g.rho) t.gadgets in
  (* P_i: a shortest ρ_i → ρ_{i−1} path, as vertices. *)
  let p_paths =
    Array.init g_count (fun i ->
        if i = 0 then [||]
        else
          Array.of_list
            (Option.get (Paths.shortest_path t.graph rhos.(i) rhos.(i - 1))))
  in
  let pairs_of_walk vs = Paths.full_ports_of_walk t.graph vs in
  let pairs_as_list vs =
    let rec group = function
      | [] -> []
      | p :: q :: rest -> (p, q) :: group rest
      | [ _ ] -> assert false
    in
    group (pairs_of_walk vs)
  in
  (* tails.(i): full port pairs of ρ_i → ρ_{i−1} → ... → ρ_0. *)
  let tails = Array.make g_count [] in
  for i = 1 to g_count - 1 do
    tails.(i) <- pairs_as_list (Array.to_list p_paths.(i)) @ tails.(i - 1)
  done;
  (* Per-gadget BFS from ρ gives every node its shortest path to ρ. *)
  let n = Port_graph.order t.graph in
  let answers = Array.make n (Task.Follower []) in
  Array.iteri
    (fun gi gadget ->
      let parent = Array.make n (-1) in
      (* in-gadget BFS from ρ, port-ascending for determinism *)
      let queue = Queue.create () in
      parent.(gadget.rho) <- gadget.rho;
      Queue.add gadget.rho queue;
      while not (Queue.is_empty queue) do
        let x = Queue.take queue in
        for p = 0 to Port_graph.degree t.graph x - 1 do
          let u = Port_graph.neighbor_vertex t.graph x p in
          if
            u >= gadget.first_vertex && u <= gadget.last_vertex
            && parent.(u) < 0
          then begin
            parent.(u) <- x;
            Queue.add u queue
          end
        done
      done;
      let on_p = Hashtbl.create 64 in
      Array.iteri (fun idx v -> Hashtbl.replace on_p v idx) p_paths.(gi);
      for v = gadget.first_vertex to gadget.last_vertex do
        if v = gadget.rho then
          answers.(v) <-
            (if gi = 0 then Task.Leader else Task.Follower tails.(gi))
        else begin
          (* Q: v → ρ via BFS parents. *)
          let rec climb acc x =
            if x = gadget.rho then List.rev (x :: acc)
            else climb (x :: acc) parent.(x)
          in
          let q_path = climb [] v in
          if gi = 0 then
            answers.(v) <- Task.Follower (pairs_as_list q_path)
          else begin
            (* u: first node of Q lying on P_{gi}; splice Q's prefix
               with P's suffix (Lemma 4.8's correction for nodes in the
               L component, whose way down shares vertices with P). *)
            let rec split acc = function
              | [] -> assert false
              | x :: rest -> (
                  match Hashtbl.find_opt on_p x with
                  | Some idx -> (List.rev (x :: acc), idx)
                  | None -> split (x :: acc) rest)
            in
            let prefix, idx = split [] q_path in
            let suffix =
              Array.to_list
                (Array.sub p_paths.(gi) idx
                   (Array.length p_paths.(gi) - idx))
            in
            let whole = prefix @ List.tl suffix in
            answers.(v) <-
              Task.Follower (pairs_as_list whole @ tails.(gi - 1))
          end
        end
      done)
    t.gadgets;
  answers

(* --- keyed-advice scheme --- *)

let encode_table ~k entries =
  let w = Writer.create () in
  Writer.gamma w k;
  Writer.gamma w (List.length entries);
  List.iter
    (fun (key, answer) ->
      Writer.gamma w (String.length key);
      String.iter (fun ch -> Writer.fixed w ~width:8 (Char.code ch)) key;
      match answer with
      | Task.Leader -> Writer.bit w true
      | Task.Follower pairs ->
          Writer.bit w false;
          Writer.gamma w (List.length pairs);
          List.iter
            (fun (p, q) ->
              Writer.gamma w p;
              Writer.gamma w q)
            pairs)
    entries;
  Writer.contents w

type plan = { k : int; table : (string, (int * int) list Task.answer) Hashtbl.t }

let decode_table advice =
  let r = Reader.of_bitstring advice in
  let k = Reader.gamma r in
  let count = Reader.gamma r in
  let table = Hashtbl.create (2 * count) in
  for _ = 1 to count do
    let len = Reader.gamma r in
    let key = String.init len (fun _ -> Char.chr (Reader.fixed r ~width:8)) in
    let answer =
      if Reader.bit r then Task.Leader
      else begin
        let plen = Reader.gamma r in
        Task.Follower
          (List.init plen (fun _ ->
               let p = Reader.gamma r in
               let q = Reader.gamma r in
               (p, q)))
      end
    in
    Hashtbl.replace table key answer
  done;
  { k; table }

let plan_of = Scheme.plan decode_table

let cppe_scheme t =
  let oracle _g =
    let answers = cppe_assignment t in
    let tbl = Hashtbl.create (2 * Array.length answers) in
    Array.iteri
      (fun v answer ->
        let key =
          View_tree.canonical_key
            (View_tree.of_graph t.graph v ~depth:t.params.k)
        in
        match Hashtbl.find_opt tbl key with
        | None -> Hashtbl.add tbl key answer
        | Some existing ->
            (* Class-constancy: a depth-k algorithm cannot answer
               differently at nodes with equal views. *)
            if
              not
                (Task.answer_equal
                   (fun a b -> a = b)
                   existing answer)
            then
              invalid_arg
                "Jclass.cppe_scheme: assignment not constant on view \
                 classes"
      )
      answers;
    (* canonical key order: the advice encoding must not depend on the
       table's unspecified hash order *)
    encode_table ~k:t.params.k
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))
  in
  {
    Scheme.name = "J-class CPPE (Lemma 4.8)";
    oracle;
    rounds_of = (fun ~advice ~degree:_ -> (plan_of advice).k);
    decide =
      (fun ~advice view ->
        let plan = plan_of advice in
        match Hashtbl.find_opt plan.table (View_tree.canonical_key view) with
        | Some answer -> answer
        | None -> Task.Follower [] (* unknown view: invalid output *));
  }
