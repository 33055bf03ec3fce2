(** Process-global metrics registry: counters, gauges and mergeable
    histograms with lock-free hot-path updates.

    The live-telemetry core of [Dcn_obs].  Metrics are {e registered}
    once (any time, any domain — registration is idempotent on
    [(name, labels)]) and then {e updated} through integer handles.
    Updates write into a per-domain shard ([Domain.DLS] state, the same
    discipline as [Trace]'s span stacks), so the hot path takes no lock
    and shares no cache line between domains; {!Snapshot.scrape} merges
    the shards on demand.

    {b Determinism.}  A scrape is a pure merge of per-domain shards:
    counter totals are sums of per-shard totals and histogram buckets
    are integer-count unions ([Profile.Hist.merge] is exactly
    associative and commutative).  Integer-valued counter totals and
    every histogram bucket count are therefore bit-identical at every
    [--jobs] level whenever the instrumented work itself is
    deterministic (which the engine guarantees); only genuinely
    nondeterministic {e values} — wall-clock seconds, GC words — vary.

    {b Cost discipline.}  While the registry is disabled (the default),
    every update helper returns after a single [Atomic.get] branch and
    allocates nothing — the same zero-cost contract [Trace] meets.
    While enabled, a counter increment is two array writes on
    domain-local state. *)

type kind = Counter | Gauge | Histogram

val kind_to_string : kind -> string
(** ["counter"], ["gauge"] or ["histogram"]. *)

val kind_of_string : string -> kind option

(** {1 Registration} *)

type counter
type gauge
type histogram

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
(** [counter name] registers (or looks up) a monotonically accumulated
    metric.  [labels] are sorted; the same [(name, labels)] pair always
    yields the same handle.
    @raise Invalid_argument on an empty name or if [(name, labels)] was
    previously registered with a different kind. *)

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge
(** A last-value-wins metric: {!set} stamps each write with a global
    sequence number and the scrape keeps the latest write across all
    domains.  Unset gauges are omitted from scrapes. *)

val histogram : ?help:string -> ?labels:(string * string) list -> string -> histogram
(** A log-bucketed distribution ([Dcn_engine.Profile.Hist]); per-domain
    partial histograms are merged exactly at scrape time. *)

(** {1 Lifecycle} *)

val enable : unit -> unit
(** Turn the hot path on, zero all totals and record the start time for
    {!uptime_ms}.  Only updates through registered handles count: the
    registry's metric set does not depend on whether a
    [Dcn_engine.Trace] is installed.  Idempotent while already
    enabled. *)

val disable : unit -> unit
(** Turn the hot path back into a one-branch no-op.  Registrations
    survive. *)

val on : unit -> bool

val reset : unit -> unit
(** Zero every metric (by advancing the shard generation — shards
    re-zero lazily on their owner domain's next update).  Keeps the
    registry enabled/disabled state and all registrations. *)

val uptime_ms : unit -> float
(** Milliseconds since the last {!enable} (0 when never enabled). *)

(** {1 Hot-path updates}

    All of these are single-branch no-ops while disabled. *)

val incr : ?by:int -> counter -> unit
val add : counter -> float -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {1 Reading} *)

val value : counter -> float
(** The counter's current total across all domain shards (0 while
    disabled or before any update). *)

val gauge_value : gauge -> float option
(** The latest {!set} value across all domains, [None] if unset. *)

type dist = {
  d_count : int;
  d_sum : float;
  d_min : float;
  d_max : float;
  d_p50 : float;
  d_p90 : float;
  d_p99 : float;
  d_buckets : (int * int) list;
      (** [(log-bucket index, count)] sorted by index — the exactly
          mergeable state ({!Dcn_engine.Profile.Hist.buckets}). *)
}

type value = Value of float | Dist of dist

type sample = {
  s_name : string;
  s_labels : (string * string) list;  (** sorted by key *)
  s_kind : kind;
  s_help : string;
  s_value : value;
}

val samples : unit -> sample list
(** Merge every domain shard and return one sample per registered
    metric, sorted by [(name, labels)].  Unset gauges and empty
    histograms are skipped; counters never are (a registered counter
    reports 0 until touched). *)
