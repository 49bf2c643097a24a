(** Telemetry registry: named counters, gauges, histograms and timers.

    A registry is a mutex-guarded bag of named instruments, safe to
    share across {!Shades_pool} domains (the sweep engine instead gives every
    job its own registry so snapshots stay per-point and deterministic).
    Snapshots are name-sorted, so two registries fed the same
    observations in any order render identically — the property the
    byte-identical-store tests rely on.

    Timings are a separate kind (not a histogram of nanoseconds) so
    that {!Store.strip_timing} can drop every wall-clock-dependent
    entry without guessing from names. *)

type t

type histogram_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;  (** nearest-rank quantiles over all observations *)
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_stats
  | Timing of { count : int; total_ns : int }

val create : unit -> t
(** A fresh empty registry. *)

val incr : ?by:int -> t -> string -> unit
(** Bump counter [name] by [by] (default 1), creating it at 0. *)

val set_gauge : t -> string -> float -> unit
(** Set gauge [name] (last write wins). *)

val observe : t -> string -> float -> unit
(** Add one observation to histogram [name]. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, add its wall-clock duration to timing [name], and
    return its result (the timing is recorded even if it raises). *)

val add_ns : t -> string -> int -> unit
(** Add a pre-measured duration (in nanoseconds) to timing [name]. *)

val quantile : t -> string -> float -> float option
(** [quantile t name q] with [q] in [0..1]: the nearest-rank [q]-th
    quantile of histogram [name]; [None] if absent or empty. *)

val snapshot : t -> (string * value) list
(** All instruments, sorted by name. *)

val is_timing : value -> bool
(** [true] exactly on [Timing _] — the entries {!Store.strip_timing}
    removes. *)

val now_ns : unit -> int
(** Wall clock in nanoseconds (the clock {!time} uses). *)
