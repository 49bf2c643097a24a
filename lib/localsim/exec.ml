module Port_graph = Shades_graph.Port_graph

type delay_fn = round:int -> v:int -> port:int -> float

type schedule = Seeded of int | Plan of delay_fn

type timing = Sequential | Sharded of int option | Async of schedule

type t = {
  timing : timing;
  faults : Engine.crash list;
  max_rounds : int option;
}

let default = { timing = Sequential; faults = []; max_rounds = None }

let of_trace_engine = function
  | Shades_trace.Trace.Sync -> default
  | Shades_trace.Trace.Async { seed } ->
      { default with timing = Async (Seeded seed) }

type 'o result = {
  outputs : 'o option array;
  rounds : int;
  messages : int;
  makespan : float;
}

(* One draw per pushed wire, in push order, from a PRNG created per
   run: a config value can be reused and the schedule stays a pure
   function of the seed. *)
let seeded_delay seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  fun ~round:_ ~v:_ ~port:_ -> 0.01 +. Random.State.float rng 1.0

let run ?(on_round = fun ~round:_ ~messages:_ -> ()) ?tracer
    ?(msg_size = fun _ -> 0) config g ~advice alg =
  (match config with
  | { timing = Async _; faults = _ :: _; _ } ->
      invalid_arg "Exec.run: no kernel combines asynchronous timing with faults"
  | _ -> ());
  let n = Port_graph.order g in
  let max_rounds =
    match config.max_rounds with Some m -> m | None -> (4 * n) + 16
  in
  let crash_at = Engine.crash_schedule ~n config.faults in
  let emit = match tracer with Some f -> f | None -> fun _ -> () in
  let tracing = Option.is_some tracer in
  let sync (outputs, rounds, messages) =
    (* unit-delay rounds: the synchronous makespan is the round count *)
    { outputs; rounds; messages; makespan = float_of_int rounds }
  in
  match config.timing with
  | Sequential ->
      sync
        (Kernel.sequential ~max_rounds ~on_round ~emit ~tracing ~msg_size
           ~crash_at g ~advice alg)
  | Sharded domains ->
      let domains =
        match domains with Some d -> d | None -> Shades_pool.default_domains ()
      in
      sync
        (Sharded_engine.run ~domains ~max_rounds ~on_round ~emit ~tracing
           ~msg_size ~crash_at g ~advice alg)
  | Async schedule ->
      let delay = match schedule with Seeded s -> seeded_delay s | Plan d -> d in
      let outputs, rounds, messages, makespan =
        Async_engine.run ~delay ~max_rounds ~on_round ~emit ~tracing ~msg_size
          ~crash_at g ~advice alg
      in
      { outputs; rounds; messages; makespan }
