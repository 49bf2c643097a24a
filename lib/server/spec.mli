(** Textual specifications, shared by the CLI and the daemon: graph
    specs, task names, engine names and trace labels.

    One grammar for naming a port-labeled graph from the outside:
    generator specs ([ring:6], [path:5], [star:7], [clique:4],
    [random:<seed>,<n>,<extra>], [line-ports:<p1>,<q1>,...]) and the
    paper's lower-bound families ([gclass:<delta>,<k>,<i>],
    [uclass:<delta>,<k>,<sigma>], [jclass:<mu>,<k>,<zeff>]).  The
    [random] spec is deterministic: the seed is part of the spec, so a
    spec always denotes one graph. *)

val grammar : string
(** Human-readable summary of the accepted forms (for error messages
    and [--help] text). *)

val parse : string -> (Shades_graph.Port_graph.t, string) result
(** Parse and build; [Error] carries the reason (unknown form, bad
    arity, or a family/generator precondition violation). *)

val parse_exn : string -> Shades_graph.Port_graph.t
(** {!parse}, raising [Failure] — the CLI entry point, where cmdliner
    turns the exception into a usage error. *)

val task_of_string : string -> (Shades_election.Task.kind, string) result
(** ["s"], ["pe"], ["ppe"] or ["cppe"] (case-insensitive): every
    [--task] flag, request ["task"] member and trace label. *)

type engine = {
  exec : Shades_localsim.Exec.t;
  name : string;  (** as replies echo it: [sync], [sharded], [async(seed=N)] *)
  key : string;  (** as result keys spell it: [sync], [sharded], [async-sN] *)
}

val engine : ?domains:int -> ?seed:int -> string -> (engine, string) result
(** Resolve ["sync"] (also ["sequential"], ["seq"]), ["sharded"] (on
    [domains] workers) or ["async"] (seeded α-synchronizer delays).
    [Error] on an unknown name, on [domains < 1] for ["sharded"], and
    on ["async"] without a [seed]: the daemon defaults it to 0, CLI
    commands without [--seed] cannot name ["async"]. *)

val trace_label : task:Shades_election.Task.kind -> string -> string
(** ["<task> <graph-spec>"], the label [trace record] stores so that
    [trace replay] and the daemon's [verify-trace] can re-execute it. *)

val parse_trace_label :
  string -> (Shades_election.Task.kind * string, string) result
(** Inverse of {!trace_label}; [Error] on a descriptive (sweep) label
    or an unknown task. *)
