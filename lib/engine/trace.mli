(** Structured, domain-safe run tracing: spans, typed events, counters.

    A trace is an append-only log of records that any code — on any
    domain of a {!Pool} — can emit into while it is {e installed}.
    Solvers use it to expose per-iteration behaviour that the final
    solution cannot carry: Most-Critical-First group selections,
    Frank–Wolfe convergence, Random-Schedule attempt outcomes, pool
    task scheduling, experiment-stage boundaries.

    {b Cost discipline.}  At most one trace is installed at a time (a
    process-global atomic).  When none is installed, {!on} is [false]
    and every emission helper returns after a single branch; callers of
    {!event} with non-trivial fields should guard with
    [if Trace.on () then ...] so field lists are only built when a
    collector is listening.  Emission under an installed trace costs
    one timestamp read and one mutex-protected list push.

    {b Records} carry a global sequence number (atomic), a timestamp in
    nanoseconds since the trace was created — monotone per emitting
    domain — and the emitting domain's id.  Span nesting is tracked
    per domain (a worker's spans nest under whatever span was open on
    that worker, not under the caller's), and {!span} always closes
    what it opened, so a trace's span tree is well-formed even when
    the traced code raises. *)

type t

type field = string * Json.t

type entry =
  | Span_open of { id : int; parent : int option; name : string; fields : field list }
  | Span_close of { id : int }
  | Event of { span : int option; name : string; fields : field list }
  | Counter of { name : string; delta : float }

type gc = {
  minor_words : float;  (** cumulative minor-heap words ({!Gc.counters}) *)
  major_words : float;  (** cumulative major-heap words *)
}

type record = {
  seq : int;  (** global emission order *)
  time_ns : int64;  (** since {!create}; non-decreasing per domain *)
  domain : int;  (** emitting domain id *)
  entry : entry;
  gc : gc option;
      (** allocation counters sampled at emission — only for span
          open/close records, and only while a collector is installed
          (so the disabled path stays one branch).  [Profile] turns the
          open/close pair into a per-span allocation delta. *)
}

val create : unit -> t
(** A fresh, empty collector (not yet installed). *)

val install : t -> unit
(** Make [t] the process-global collector.  Replaces any previous one. *)

val uninstall : unit -> unit

val with_trace : t -> (unit -> 'a) -> 'a
(** [install t], run, then restore the previously installed trace (also
    on exception). *)

val on : unit -> bool
(** Whether a trace is installed — the one branch a disabled trace
    costs.  Emission helpers check it themselves; guard explicitly only
    to avoid constructing field lists. *)

val span : ?fields:field list -> string -> (unit -> 'a) -> 'a
(** [span name f] wraps [f] in [Span_open]/[Span_close] records (the
    close also on exception).  Without an installed trace this is
    [f ()]. *)

val event : ?fields:field list -> string -> unit
(** A point event, attributed to the innermost open span of the
    emitting domain. *)

val counter : string -> float -> unit
(** [counter name delta] accumulates into a named counter of the
    installed trace; totals are summed per name in {!to_json} (and by
    {!counter_total}).  Without a trace it is one branch.  Trace
    counters are records of a traced run only: live telemetry counts
    through its own handles in [Dcn_obs.Registry]. *)

val records : t -> record list
(** Everything emitted so far, in sequence order. *)

val length : t -> int

val clear : t -> unit

val counters : t -> (string * float) list
(** Every counter's total (sum of its deltas), sorted by name.  The
    single source of counter totalling: {!to_json}'s ["counters"]
    object, {!counter_total} and the CLI's report envelope all read
    this. *)

val counter_total : t -> string -> float
(** Sum of all [Counter] deltas with this name (0 if none). *)

val to_json : t -> Json.t
(** {v
    { "version": 1,
      "events": [ { "seq", "t_ns", "domain", "type",
                    "id"|"span", "parent", "name", fields... } ... ],
      "counters": { name: total, ... } }
    v}
    Event fields are inlined into the record object under their own
    names (reserved keys win on clash); span records with a GC sample
    carry [gc_minor_w]/[gc_major_w]. *)

val records_of_json : Json.t -> record list
(** Parse a version-1 trace file (the {!to_json} shape) back into its
    records, so [dcn trace summary/export/diff] and {!Profile} can
    consume traces written by an earlier run.
    @raise Failure on an unsupported version or a malformed record. *)
