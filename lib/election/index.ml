module Port_graph = Shades_graph.Port_graph
module Paths = Shades_graph.Paths
module Refinement = Shades_views.Refinement

(* shadescheck: allow-file locality -- election-index computation is
   offline by definition: psi_* search over all candidate outputs needs
   the whole graph in hand; nothing here runs inside a node algorithm *)

type vertex = Port_graph.vertex

(* The solvers below read the classes at [depth] from any refinement
   [t] of [g].  Past [Refinement.depth t] (a fixpoint's stable depth)
   the partition no longer changes, and neither do the class ids: both
   refinement steps number classes by first occurrence in vertex order,
   so an id is a function of the partition alone.  Reading the last
   stored level is therefore exact at every deeper depth. *)
let level t ~depth = min depth (Refinement.depth t)

(* Try to assign a common output to every non-leader class of
   [groups].  [assign] receives the members of one class and must
   produce one payload valid for all of them, or [None]; then the class
   is returned as the [Error].  Classes are disjoint and each gets its
   own first payload, so the order they are tried in changes only how
   soon a failure is found. *)
let try_leader g groups ~leader ~assign =
  let answers = Array.make (Port_graph.order g) Task.Leader in
  let rec go = function
    | [] -> Ok answers
    | members :: rest ->
        if members = [ leader ] then go rest
        else begin
          match assign members with
          | None -> Error members
          | Some payload ->
              List.iter
                (fun v -> answers.(v) <- Task.Follower payload)
                members;
              go rest
        end
  in
  go groups

(* Candidate leaders at [depth]: nodes whose B^depth is unique
   (Proposition 2.1), scanned in vertex order for determinism.  The
   class that failed for one candidate is tried first for the next. *)
let with_candidates g t ~depth ~assign =
  let groups = Array.to_list (Refinement.classes t ~depth:(level t ~depth)) in
  let rec first groups = function
    | [] -> None
    | leader :: rest -> (
        match try_leader g groups ~leader ~assign:(assign ~leader) with
        | Ok answers -> Some answers
        | Error hard ->
            first (hard :: List.filter (fun c -> c != hard) groups) rest)
  in
  first groups
    (List.sort Int.compare (Refinement.singletons t ~depth:(level t ~depth)))

let pe_port_valid g ~leader v p =
  let u = Port_graph.neighbor_vertex g v p in
  u = leader || Paths.connected_avoiding g ~avoid:v u leader

let assign_pe g ~leader members =
  let deg = Port_graph.degree g (List.hd members) in
  let rec try_port p =
    if p = deg then None
    else if List.for_all (fun v -> pe_port_valid g ~leader v p) members then
      Some p
    else try_port (p + 1)
  in
  try_port 0

(* Joint DFS for a common port sequence that traces a simple path from
   every member to the leader simultaneously.  [arrival = true] (CPPE)
   additionally requires all members to agree on the far port at every
   hop and records it.  Sequences are explored in lexicographic order,
   bounded by [order g - 1] hops (simple paths).

   Member [i]'s route so far is [visited.(i)], set on the way down and
   cleared on the way back.  A joint state is cut before it is expanded
   when some member cannot reach the leader in [g] minus the vertices
   its own route has used: every completion of that member's route
   would be such a path, so the cut subtree holds no solution, and the
   first route found in lexicographic order is unchanged. *)
let common_route g ~leader ~members ~arrival =
  let n = Port_graph.order g in
  let max_len = n - 1 in
  let pos = Array.of_list members in
  let k = Array.length pos in
  let visited =
    Array.map
      (fun v ->
        let vis = Array.make n false in
        vis.(v) <- true;
        vis)
      pos
  in
  (* one BFS scratch for every check: a vertex is seen iff its stamp is
     the current epoch *)
  let stamp = Array.make n 0 and epoch = ref 0 and queue = Array.make n 0 in
  let reaches_leader i =
    incr epoch;
    let e = !epoch and vis = visited.(i) in
    stamp.(pos.(i)) <- e;
    queue.(0) <- pos.(i);
    let head = ref 0 and tail = ref 1 and found = ref false in
    while (not !found) && !head < !tail do
      let x = queue.(!head) in
      incr head;
      for p = 0 to Port_graph.degree g x - 1 do
        let y = Port_graph.neighbor_vertex g x p in
        if stamp.(y) <> e && not vis.(y) then begin
          stamp.(y) <- e;
          if y = leader then found := true
          else begin
            queue.(!tail) <- y;
            incr tail
          end
        end
      done
    done;
    !found
  in
  let all_reach () =
    let rec go i = i = k || (reaches_leader i && go (i + 1)) in
    go 0
  in
  let rec extend route_rev len =
    if Array.for_all (fun x -> x = leader) pos then Some (List.rev route_rev)
    else if len >= max_len then None
    else if Array.exists (fun x -> x = leader) pos then
      (* A member sitting at the leader would have to leave and could
         never come back on a simple path. *)
      None
    else if not (all_reach ()) then None
    else begin
      let deg_min =
        Array.fold_left (fun acc x -> min acc (Port_graph.degree g x))
          max_int pos
      in
      let rec try_port p =
        if p >= deg_min then None
        else begin
          let q0 = snd (Port_graph.neighbor g pos.(0) p) in
          let agree =
            (not arrival)
            || Array.for_all (fun x -> snd (Port_graph.neighbor g x p) = q0) pos
          in
          let simple =
            Array.for_all2
              (fun x vis -> not vis.(Port_graph.neighbor_vertex g x p))
              pos visited
          in
          let result =
            if agree && simple then begin
              let from = Array.copy pos in
              for i = 0 to k - 1 do
                let u = Port_graph.neighbor_vertex g from.(i) p in
                pos.(i) <- u;
                visited.(i).(u) <- true
              done;
              let r = extend ((p, q0) :: route_rev) (len + 1) in
              for i = 0 to k - 1 do
                visited.(i).(pos.(i)) <- false;
                pos.(i) <- from.(i)
              done;
              r
            end
            else None
          in
          match result with Some r -> Some r | None -> try_port (p + 1)
        end
      in
      try_port 0
    end
  in
  extend [] 0

(* --- fixed-depth solvers over a refinement --- *)

let solve_s_in g t ~depth =
  with_candidates g t ~depth ~assign:(fun ~leader:_ _ -> Some ())

let solve_pe_in g t ~depth =
  with_candidates g t ~depth ~assign:(fun ~leader -> assign_pe g ~leader)

let solve_cppe_in g t ~depth =
  with_candidates g t ~depth ~assign:(fun ~leader members ->
      common_route g ~leader ~members ~arrival:true)

let solve_ppe_in g t ~depth =
  with_candidates g t ~depth ~assign:(fun ~leader members ->
      Option.map (List.map fst)
        (common_route g ~leader ~members ~arrival:false))

let fixed solve g ~depth = solve g (Refinement.compute g ~depth) ~depth
let solve_s g ~depth = fixed solve_s_in g ~depth
let solve_pe g ~depth = fixed solve_pe_in g ~depth
let solve_ppe g ~depth = fixed solve_ppe_in g ~depth
let solve_cppe g ~depth = fixed solve_cppe_in g ~depth

let solvable kind g t ~depth =
  match kind with
  | Task.S -> Option.is_some (solve_s_in g t ~depth)
  | Task.PE -> Option.is_some (solve_pe_in g t ~depth)
  | Task.PPE -> Option.is_some (solve_ppe_in g t ~depth)
  | Task.CPPE -> Option.is_some (solve_cppe_in g t ~depth)

(* --- election indexes --- *)

(* ψ is the least solvable depth in [start, stop]: [start] is ψ_S (no
   depth below it has a candidate leader) and [stop] the fixpoint depth,
   past which nothing changes.  Solvability is monotone in depth (see
   index.mli), so gallop up from [start] (start, start+1, start+3,
   start+7, …, capped at [stop]) and bisect the last gap. *)
let scan g t kind =
  match Refinement.first_singleton_depth t with
  | None -> None
  | Some start ->
      let stop = Refinement.depth t in
      let ok depth = solvable kind g t ~depth in
      (* every depth below [lo] is unsolvable and [hi] is solvable *)
      let rec bisect lo hi =
        if lo >= hi then hi
        else
          let mid = lo + ((hi - lo) / 2) in
          if ok mid then bisect lo mid else bisect (mid + 1) hi
      in
      let rec gallop lo step =
        let k = min stop (start + step - 1) in
        if ok k then Some (bisect lo k)
        else if k = stop then
          (* Unreachable on feasible graphs, where the fixpoint
             partition is discrete and every task is solvable. *)
          None
        else gallop (k + 1) (2 * step)
      in
      gallop start 1

let psi kind g = scan g (Refinement.fixpoint g) kind
let psi_s g = psi Task.S g
let psi_pe g = psi Task.PE g
let psi_ppe g = psi Task.PPE g
let psi_cppe g = psi Task.CPPE g

let all g =
  let t = Refinement.fixpoint g in
  List.map (fun kind -> (kind, scan g t kind)) Task.all
