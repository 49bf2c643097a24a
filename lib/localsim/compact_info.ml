module Cview = Shades_views.Cview

type state = { target : int; view : Cview.t }

type msg = { from_port : int; view : Cview.t }

let algorithm ctx ~rounds_of ~decide =
  {
    Engine.init =
      (fun ~degree ~advice ->
        {
          target = rounds_of ~advice ~degree;
          view = Cview.make ctx ~degree ~children:[||];
        });
    send =
      (fun st ~port ->
        if st.target = 0 then None
        else Some { from_port = port; view = st.view });
    step =
      (fun st inbox ->
        if st.target = 0 then st
        else begin
          let degree = st.view.Cview.degree in
          assert (List.length inbox = degree);
          let children = Array.make degree (0, st.view) in
          List.iter (fun (p, m) -> children.(p) <- (m.from_port, m.view)) inbox;
          { target = st.target - 1; view = Cview.make ctx ~degree ~children }
        end);
    output =
      (fun st -> if st.target = 0 then Some (decide st.view) else None);
  }

let run_adaptive g ~advice ~rounds_of ~decide =
  let ctx = Cview.create_ctx () in
  let r =
    Exec.run Exec.default g ~advice
      (algorithm ctx ~rounds_of:(Full_info.common_rounds rounds_of)
         ~decide:(fun view -> decide ~advice ctx view))
  in
  (Array.map Option.get r.Exec.outputs, r.Exec.rounds)

let run g ~rounds ~advice ~decide =
  if rounds < 0 then invalid_arg "Compact_info.run";
  let outputs, used =
    run_adaptive g ~advice
      ~rounds_of:(fun ~advice:_ ~degree:_ -> rounds)
      ~decide
  in
  assert (used = rounds);
  outputs
