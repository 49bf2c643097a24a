module Port_graph = Shades_graph.Port_graph
module Scheme = Shades_election.Scheme

(* delays.(v).(p): the fixed virtual-time delay of every wire pushed on
   port [p] of sender [v].  Round-independent by design: the
   α-synchronizer makes rounds plan-invariant, so a richer per-round
   plan buys the adversary nothing the per-edge assignment cannot. *)
type plan = { delays : float array array }

let check_positive d =
  if not (Float.is_finite d) || d <= 0.0 then
    invalid_arg "Schedule: delays must be finite and positive"

let make g f =
  {
    delays =
      Array.init (Port_graph.order g) (fun v ->
          Array.init (Port_graph.degree g v) (fun p ->
              let d = f ~v ~port:p in
              check_positive d;
              d));
  }

let uniform g d =
  check_positive d;
  make g (fun ~v:_ ~port:_ -> d)

(* Seeded per-edge draws in deterministic (v, p) order — the plan-space
   analogue of [Exec.Seeded]'s per-push draws.  The two differ:
   here a directed edge keeps one delay for the whole run (a "slow
   link"), there every wire redraws (a "jittery link"). *)
let of_seed g ~seed =
  let rng = Random.State.make [| seed; 0xad5e |] in
  make g (fun ~v:_ ~port:_ -> 0.01 +. Random.State.float rng 1.0)

let delay_fn plan ~round:_ ~v ~port = plan.delays.(v).(port)

let set plan ~v ~port d =
  check_positive d;
  let delays = Array.map Array.copy plan.delays in
  delays.(v).(port) <- d;
  { delays }

let makespan scheme g plan =
  let exec =
    { Shades_localsim.Exec.default with timing = Async (Plan (delay_fn plan)) }
  in
  (Scheme.run ~exec scheme g).Scheme.makespan

let sweep_seeds scheme g ~seeds =
  List.map (fun seed -> (seed, makespan scheme g (of_seed g ~seed))) seeds

type search_result = {
  plan : plan;
  makespan : float;
  evaluations : int;  (** scheme executions spent by the search *)
}

let default_menu = [ 0.05; 0.25; 0.5; 1.0 ]

(* Beam-searched coordinate ascent.  Directed edges are visited in
   deterministic (v, p) order; at each edge every beam member branches
   over the delay menu, and the [beam] highest-makespan plans survive
   (makespan desc, then insertion order — fully deterministic, no
   ambient randomness).  [passes] full sweeps, early exit when a pass
   improves nothing. *)
let search ?(beam = 1) ?(menu = default_menu) ?(passes = 2) scheme g ~init =
  if beam < 1 then invalid_arg "Schedule.search: beam must be >= 1";
  if menu = [] then invalid_arg "Schedule.search: empty menu";
  List.iter check_positive menu;
  let evaluations = ref 0 in
  let eval plan =
    incr evaluations;
    makespan scheme g plan
  in
  let front = ref [ (init, eval init) ] in
  let best () =
    List.fold_left
      (fun (bp, bm) (p, m) -> if m > bm then (p, m) else (bp, bm))
      (List.hd !front) (List.tl !front)
  in
  let improved = ref true in
  let pass = ref 0 in
  while !improved && !pass < passes do
    incr pass;
    let _, before = best () in
    for v = 0 to Port_graph.order g - 1 do
      for p = 0 to Port_graph.degree g v - 1 do
        let candidates =
          List.concat_map
            (fun (plan, m) ->
              (plan, m)
              :: List.filter_map
                   (fun d ->
                     if plan.delays.(v).(p) = d then None
                     else
                       let plan' = set plan ~v ~port:p d in
                       Some (plan', eval plan'))
                   menu)
            !front
        in
        (* stable sort: ties keep insertion (parent-before-branch)
           order, so the beam is deterministic *)
        let ranked =
          List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) candidates
        in
        front := List.filteri (fun i _ -> i < beam) ranked
      done
    done;
    let _, after = best () in
    improved := after > before
  done;
  let plan, makespan = best () in
  { plan; makespan; evaluations = !evaluations }
