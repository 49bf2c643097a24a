module View_tree = Shades_views.View_tree

type state = {
  target : int; (* rounds of view exchange still to perform *)
  view : View_tree.t; (* B^r after r executed rounds *)
}

(* Messages carry the sending port: the receiver on its port [p] needs
   the far-end port [q] of that edge to extend its view, and the engine
   only reports arrival ports. *)
type msg = { from_port : int; view : View_tree.t }

(* One round: send (my port, B^r) on every port; B^{r+1} is rebuilt from
   my degree and the received (far port, neighbour's B^r) pairs. *)
let algorithm ~rounds_of ~decide =
  {
    Engine.init =
      (fun ~degree ~advice ->
        {
          target = rounds_of ~advice ~degree;
          view = { View_tree.degree; children = [||] };
        });
    send =
      (fun st ~port ->
        if st.target = 0 then None
        else Some { from_port = port; view = st.view });
    step =
      (fun st inbox ->
        if st.target = 0 then st
        else begin
          let degree = st.view.View_tree.degree in
          assert (List.length inbox = degree);
          let children = Array.make degree (0, st.view) in
          List.iter
            (fun (p, m) -> children.(p) <- (m.from_port, m.view))
            inbox;
          { target = st.target - 1; view = { View_tree.degree; children } }
        end);
    output =
      (fun st -> if st.target = 0 then Some (decide st.view) else None);
  }

(* The traced size of a view-exchange message: the node count of the
   carried view — a pure function of the message, as replay requires. *)
let msg_size m = View_tree.node_count m.view

(* Safe under every timing: [rounds_of] is only called from [init],
   which every kernel runs sequentially in the calling domain. *)
let common_rounds rounds_of =
  let decided = ref None in
  fun ~advice ~degree ->
    let r = rounds_of ~advice ~degree in
    (match !decided with
    | None -> decided := Some r
    | Some r' -> assert (r = r'));
    r

let run_adaptive ?(exec = Exec.default) ?on_round ?tracer g ~advice ~rounds_of
    ~decide =
  Exec.run ?on_round ?tracer ~msg_size exec g ~advice
    (algorithm ~rounds_of:(common_rounds rounds_of)
       ~decide:(fun view -> decide ~advice view))

let run g ~rounds ~advice ~decide =
  if rounds < 0 then invalid_arg "Full_info.run";
  let r =
    run_adaptive g ~advice ~rounds_of:(fun ~advice:_ ~degree:_ -> rounds)
      ~decide
  in
  assert (r.Exec.rounds = rounds);
  Array.map Option.get r.Exec.outputs
