(** Bounded LRU cache with telemetry and an optional disk tier — the
    daemon's content-addressed result store.

    Keys are strings (content addresses); values are whatever the
    caller computes for a key.  The cache is mutex-guarded and safe to
    share across {!Shades_pool} domains.

    {2 Tiers}

    The memory tier is a bounded LRU: at most [capacity] entries,
    insertion beyond that evicts the least-recently-used one.  With
    {!persist} given, a {e disk tier} sits behind it: every {!put}
    writes through to one file per key under [persist.dir]
    (write-then-rename, so readers never observe a torn write), and a
    memory miss falls back to reading — and re-promoting — the file.
    The disk tier survives process restarts; memory eviction only trims
    the memory front, and the disk tier shrinks only under a
    [persist.max_bytes] budget.  Because keys are content
    addresses (a value is a pure function of its key), a directory can
    safely be shared by successive daemon runs: whatever is found there
    is as good as freshly computed.

    Key-to-file mapping: bytes outside [A-Za-z0-9._-] are
    percent-escaped ([%XX]), which is injective, so distinct keys can
    never collide on one file.

    {2 Telemetry}

    Every outcome is counted in the {!Shades_runtime.Metrics} registry
    given at creation, under names derived from the cache's [name]:
    [<name>_hits] (memory hits), [<name>_misses] (missed {e both}
    tiers — there is no separate disk-miss counter), [<name>_evictions],
    [<name>_disk_hits], [<name>_disk_writes], [<name>_disk_invalid]
    (unreadable or corrupt files tolerated as misses),
    [<name>_disk_errors] (failed writes — the cache degrades to
    memory-only), [<name>_disk_evictions] (files deleted to keep the
    tier under its [max_bytes] budget), [<name>_disk_orphans] (temp
    files of dead writers removed by a budgeted tier's directory scan),
    all counters; [<name>_entries], [<name>_capacity] and, for a
    budgeted tier, [<name>_disk_bytes] (the ledger's byte total) are
    gauges.  These are the numbers the [stats] endpoint and
    [GET /metrics] report. *)

type 'a persist = {
  dir : string;  (** created (with parents) if missing *)
  encode : 'a -> string;  (** file contents for a value *)
  decode : string -> ('a, string) result;
      (** total inverse: corrupt input must be [Error], though a raising
          decoder is also tolerated (treated as [Error]) *)
  max_bytes : int option;
      (** byte budget for [dir]; [None] leaves the tier unbounded *)
}
(** The disk-tier configuration: where files live, how values
    serialize, and (optionally) how large the tier may grow.
    [decode (encode v)] must be [Ok v].

    With [max_bytes] set, the cache keeps a {e size ledger} of the
    directory: every entry file's mtime and size, in age order, and
    their byte total.  {!create} seeds it with one scan of [dir]; that
    scan, like every rescan below, also removes temp files whose writer
    process is dead ([<name>_disk_orphans]).  After that, a successful write [stat]s
    only the file it just renamed into place (an overwrite replaces the
    old size) and, while the total is over budget, deletes entry files
    in oldest-[mtime] order (file name breaks ties) — never the file
    just written, and never a temp file, which is neither counted nor
    touched.  Each deletion bumps [<name>_disk_evictions]; a victim
    that is already gone leaves the ledger without counting.  The cost
    per write is one [stat] and O(log n) ledger work, not a scan of the
    directory.

    Other processes sharing [dir] are folded in by a full rescan after
    every [max_bytes] bytes this process has written since its last
    scan, so the directory holds at most [max_bytes] plus what siblings
    wrote since this process's last rescan.  An evicted entry simply
    becomes a future miss to recompute: keys are content addresses, so
    nothing is lost but time. *)

type 'a t

val create :
  ?name:string ->
  ?persist:'a persist ->
  capacity:int ->
  metrics:Shades_runtime.Metrics.t ->
  unit ->
  'a t
(** An empty cache holding at most [capacity] entries in memory (≥ 1;
    raises [Invalid_argument] otherwise).  [name] (default ["cache"])
    prefixes the metric names.  With [persist], the disk tier under
    [persist.dir] is attached — pre-existing files there are live
    entries (that is the restart-warm path); with [persist.max_bytes]
    as well, the directory is scanned once to seed the size ledger,
    without evicting anything until the next write. *)

val capacity : 'a t -> int

val persistent : 'a t -> bool
(** Whether a disk tier is attached. *)

val entries : 'a t -> int
(** Current number of {e memory} entries (≤ {!capacity}); the disk
    tier is uncounted here (unbounded unless [persist.max_bytes]
    caps it). *)

val find : 'a t -> string -> 'a option
(** Look up a key.  A memory hit refreshes its recency and bumps
    [<name>_hits]; a memory miss consults the disk tier (if any),
    promoting a decodable file back into memory ([<name>_disk_hits])
    without rewriting it; only a miss in both tiers bumps
    [<name>_misses].  Unreadable or corrupt files are counted
    ([<name>_disk_invalid]) and treated as misses, never raised. *)

val put : 'a t -> string -> 'a -> unit
(** Insert (or overwrite) a key at most-recent position, evicting the
    memory LRU entry when full ([<name>_evictions]), and write through
    to the disk tier if attached: the value is encoded to a temp file
    in the same directory and [Unix.rename]d over the final path, so a
    concurrent reader (or a daemon killed mid-write) sees the old
    contents or the new, never a prefix.  A failed write
    ([<name>_disk_errors]) degrades that entry to memory-only. *)

val find_or_compute : 'a t -> string -> compute:(unit -> 'a) -> 'a * bool
(** [find_or_compute t key ~compute] is [(value, was_hit)], where
    [was_hit] covers both tiers.  On a miss, [compute] runs {e outside}
    the cache lock (a slow compute never serializes other keys'
    lookups), so two racing misses on the same key may both compute;
    the computes must be deterministic functions of the key, making the
    race harmless.  Exceptions from [compute] propagate and cache
    nothing. *)
