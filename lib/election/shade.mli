(** The four shades as one table.

    The paper defines each shade by a minimum-time scheme, the referee
    that checks its answers, and the answer type every node outputs.  A
    {!t} packs the three, existentially over the answer payload, with
    the JSON spelling of one node's answer — ["leader"], else
    ["follower"] (S), a port (PE), a port list (PPE) or a list of
    [[p, q]] pairs (CPPE) — so the daemon, the adversary and the CLI
    dispatch through one record. *)

type t =
  | Shade : {
      task : Task.kind;
      scheme : 'p Task.answer Scheme.t;
      verify :
        Shades_graph.Port_graph.t ->
        'p Task.answer array ->
        (Shades_graph.Port_graph.vertex, string) result;  (** {!Verify} *)
      to_json : 'p Task.answer -> Shades_json.Json.t;
      of_json : Shades_json.Json.t -> ('p Task.answer, string) result;
    }
      -> t

val min_time : Task.kind -> t
(** What the daemon serves: {!Select_by_view.scheme} for S, the
    {!Map_advice} scheme for PE, PPE and CPPE. *)

val map_advice : Task.kind -> t
(** The {!Map_advice} scheme for all four tasks — the adversary's
    targets. *)

val task : t -> Task.kind

val trace_exec :
  Task.kind ->
  engine:Shades_trace.Trace.engine ->
  Shades_graph.Port_graph.t ->
  (Shades_trace.Event.t -> unit) ->
  unit
(** One traced run of [min_time task] under
    {!Shades_localsim.Exec.of_trace_engine}[ engine], in the thunk shape
    {!Shades_trace.Replay.run} consumes: recording a trace and
    re-executing it share this function. *)
