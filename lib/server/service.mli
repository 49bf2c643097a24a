(** The election service: request handlers and the content-addressed
    caches.

    One {!t} lives for the daemon's whole life and is shared by every
    connection handler (all state is mutex-guarded).  {!handle} maps
    one request payload to one response payload — the daemon owns the
    sockets, this module owns the semantics, so the full protocol is
    testable without ever opening a socket.

    {2 The advice cache}

    The paper's model is an all-knowing oracle computing one advice
    string per topology, which every node receives — so a deployment
    serves few distinct topologies to many clients, and advice is
    cached {e per topology}, not per request.  The cache key is
    {!cache_key}: the canonical-form digest of the submitted graph
    ([Shades_graph.Port_graph.digest] — equal for any two
    port-preserving isomorphic submissions) crossed with the task and
    {!advice_version}.  Advice is computed {e on the canonical form},
    so a cached string is a pure function of the key, independent of
    which representative was submitted first; it remains valid advice
    for every isomorphic submission because the schemes locate nodes in
    the advice map only up to view equivalence.  In front of the
    canonical address sits a memo from the digest of the submitted
    (non-canonical) encoding to the canonical digest, so byte-identical
    repeat queries skip canonicalization too — that memo is what makes
    the warm path O(encoding size).

    {2 The result cache}

    [elect] and [verify] results are cached whole, as the stored JSON
    of the reply's [result] member.  Every engine is deterministic
    (async per seed), so an elect reply is a pure function of
    (submitted encoding, task, engine, versions) — see {!elect_key} —
    and a verify verdict of (submitted encoding, task, outputs) — see
    {!verify_key}.  Unlike advice, full results are keyed on the digest
    of the graph {e as submitted}: per-node outputs are indexed by the
    submitter's vertex numbering, so two isomorphic renumberings must
    never share an entry even though they share advice.

    {2 Persistence}

    With [cache_dir] given to {!create}, both caches gain a
    {!Cache.persist} disk tier: [<dir>/advice/] and [<dir>/results/],
    one JSON file per content address, written atomically
    (write-then-rename); with [cache_max_bytes] each tier evicts its
    oldest files to stay within budget.  A daemon restarted on the same
    directory serves every previously computed advice string and
    elect/verify result still on disk — zero recomputation — which is
    what [scripts/serve_smoke.sh]'s restart leg checks.

    Counters (in {!metrics}, reported by the [stats] endpoint and
    rendered by {!Http} as [GET /metrics]):
    [advice_cache_hits] / [_misses] / [_evictions] / [_entries] /
    [_disk_hits] / [_disk_writes] / [_disk_invalid], the same family
    under [result_cache_*], [memo_hits] / [_misses], [advise_computes]
    / [elect_computes] / [verify_computes] (real oracle / engine /
    referee runs — cache hits of any tier bump [computes_avoided]
    instead), [requests], [batch_items], and per-op [op_<name>]
    timings. *)

type t

val default_cache_capacity : int
(** 256 entries (memory tier, per cache). *)

val create :
  ?cache_capacity:int -> ?cache_dir:string -> ?cache_max_bytes:int -> unit -> t
(** A fresh service with empty advice and result caches of
    [cache_capacity] (default {!default_cache_capacity}) memory
    entries each.  [cache_dir] attaches the persistent disk tier
    (created if missing, reused — including its contents — if not):
    advice under [<cache_dir>/advice], elect/verify results under
    [<cache_dir>/results].  [cache_max_bytes] bounds {e each} tier
    directory: a write that pushes a tier past the budget deletes its
    oldest files (by mtime) until it fits, counting
    [*_disk_evictions] — see {!Cache.persist}. *)

val metrics : t -> Shades_runtime.Metrics.t
(** The service's telemetry registry (live; snapshot at will). *)

val cache_dir : t -> string option
(** The persistence root given to {!create}, if any. *)

val uptime_seconds : t -> float
(** Seconds since {!create} — the [shades_uptime_seconds] gauge of
    [GET /metrics]. *)

val set_parallel : t -> ((unit -> unit) array -> unit) option -> unit
(** Install (or remove) the batch fan-out hook.  The daemon points this
    at a dedicated crew's [run_all] so one [batch] frame's items run
    concurrently; without a hook items run sequentially in the calling
    domain (the in-process test configuration).  The hook must run
    every thunk to completion before returning and must not re-enter
    {!handle}. *)

val advice_version : int
(** Version stamp folded into every advice and elect key — bump when
    any scheme's oracle output changes for a fixed graph, so stale
    advice can never survive a behavioural change. *)

val result_version : int
(** Version stamp folded into every elect and verify result key — bump
    when an engine's execution, a verifier's semantics, or the stored
    result JSON shape changes (cached results are replayed verbatim as
    replies, so their format is part of the contract). *)

val cache_key : digest:string -> task:Shades_election.Task.kind -> string
(** ["<digest>/<task>/v<advice_version>"] — the content address of one
    topology × task's advice ([digest] is the {e canonical} digest). *)

val elect_key :
  digest:string -> task:Shades_election.Task.kind -> engine:string -> string
(** ["<digest>/<task>/elect-<engine>/v<advice_version>.<result_version>"]
    — the content address of one elect result.  [digest] is the digest
    of the {e submitted} encoding (results are representation-bound);
    [engine] is ["sync"], ["sharded"] or ["async-s<seed>"] (the domain
    count is deliberately absent — sharded execution is observationally
    identical at every count). *)

val verify_key :
  digest:string ->
  task:Shades_election.Task.kind ->
  outputs_digest:string ->
  string
(** ["<digest>/<task>/verify-<outputs_digest>/v<result_version>"] — the
    content address of one verify verdict; [outputs_digest] is the MD5
    of the claimed outputs' canonical JSON rendering. *)

(** {1 Handling} *)

(** [Reply_and_stop] is the [shutdown] op: send the reply, then stop
    the daemon. *)
type reaction = Reply of Shades_json.Json.t | Reply_and_stop of Shades_json.Json.t

val handle : t -> Shades_json.Json.t -> reaction
(** Dispatch one request.  Total: every failure (missing member, bad
    graph, infeasible topology, malformed trace, ...) becomes an
    [{"ok": false, "error": ...}] reply with code [bad-request],
    [request-failed] or [unknown-op]; exceptions never escape to the
    connection loop.

    The [batch] op carries [{"requests": [...]}], an array of ordinary
    request objects, and answers [{"count": n, "replies": [...]}] with
    one reply per item {e in request order}.  Items are isolated: a
    failing item yields its own error reply in its slot and the rest of
    the batch is unaffected.  [batch] and [shutdown] are rejected
    per-item inside a batch (no nesting, no side-channel stops). *)

val stats_json : t -> Shades_json.Json.t
(** The [stats] result payload (protocol/advice/result versions,
    uptime, cache-dir, per-cache occupancy and persistence, full
    counter snapshot) — also what [shades serve --metrics-out] writes
    at exit. *)
