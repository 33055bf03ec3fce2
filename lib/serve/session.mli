(** A long-running scheduler session: the event-driven API over the
    batch solvers.

    A session holds the committed state of one fabric under live
    traffic — the committed schedule, the breakpoint timeline with the
    last fractional per-interval F-MCF solution, coflow membership, and
    a monotone clock.  The schedule is the only record of the admitted
    flow set and each flow's routing path: one interval-density plan
    per flow, in ascending flow id.  Events ({!Event.t}) drive it
    through {!apply}:

    - a {b coflow arrival} admits a whole flow group all-or-nothing:
      every member commits in one epoch (one path draw per member from
      the warm relaxation) or the whole group is rejected — a coflow
      that would miss its collective deadline is worth nothing partly
      delivered.  Admission runs through the typed policies of
      {!Dcn_resilience.Repair}: [Drop_latest_deadline] and
      [Drop_largest_residual] shed one victim per round, and shedding
      takes whole coflows (never a strict subset); when the victim is a
      member of the arriving group — always, under [Reject_new] — the
      group is rejected instead of touching committed flows;
    - a {b flow arrival} is the one-member group: the same admission
      path, the same policies, the same draws;
    - a {b cancellation} withdraws one committed flow, a
      {b coflow cancel} every member of a committed coflow (a plain
      cancel of a member is refused in its favour), and a
      {b clock advance} retires flows whose deadline has passed — all
      three through one withdrawal path.

    Each committed epoch re-solves {e only} the timeline intervals
    overlapping the changed flow's span ({!Dcn_core.Relaxation.resolve}
    — warm-started from the previous fractional solution, everything
    else reused verbatim), keeps every other flow's committed path,
    draws the new flow's path from the warm relaxation
    ({!Dcn_core.Random_schedule.candidate_paths}), and is independently
    re-certified by {!Dcn_check.Certify}.  The session keeps its
    certificate ({!Dcn_check.Certify.state}: per link and per flow id)
    across epochs, so the draw's capacity check, the energy, the
    certificate and the delta recompute only the links on the added and
    removed plans' paths; each result equals the full pass over the
    whole schedule, and the fluid-replay cross-check still runs in full
    on every epoch.  The result is a typed
    {!outcome} carrying a {!Dcn_sched.Schedule_delta.t} — never an
    exception, mirroring [Repair]'s [Repaired]/[Degraded]/[Irreparable]
    discipline (only {!Dcn_engine.Deadline.Expired} is re-raised, so a
    watchdog budget above a session still works).

    Every session runs with the same solver settings:
    {!Dcn_core.Random_schedule.redraw_budget} path redraws per
    admission round, interval re-solves under
    {!Dcn_mcf.Frank_wolfe.resolve_config}, and every committed epoch
    certified.

    Determinism: a session is a pure function of
    [(seed, policy, event sequence)] — path draws come from a
    pre-split PRNG stream per admission round, and the incremental
    re-solve runs its intervals in index order on the caller's domain
    (the pool serves only the cold solve of a drained session) — so
    reports are byte-identical at every [--jobs] level. *)

type t

val create :
  ?pool:Dcn_engine.Pool.t ->
  graph:Dcn_topology.Graph.t ->
  power:Dcn_power.Model.t ->
  policy:Dcn_resilience.Repair.policy ->
  seed:int ->
  unit ->
  t
(** A fresh session at clock 0 with no committed flows. *)

val workspace : t -> Dcn_mcf.Kernel.Workspace.t
(** The Frank–Wolfe arenas every epoch's re-solve reuses; their work
    counters ({!Dcn_mcf.Kernel.Workspace.heap_pops}) count the
    session's share. *)

type detail = {
  delta : Dcn_sched.Schedule_delta.t;
      (** what this epoch changed in the committed schedule *)
  dropped : Dcn_flow.Flow.t list;
      (** committed flows shed by the admission policy, id order *)
  retired : int list;  (** flows completed by a clock advance, id order *)
  violations : Dcn_check.Certify.violation list;
      (** certification of the new committed schedule; [[]] = certified *)
  resolved_intervals : int;  (** timeline intervals re-solved this epoch *)
  reused_intervals : int;  (** intervals reused from the previous epoch *)
  energy : float;
      (** Eq. (5) energy of the committed schedule, 0 if none; computed
          once per committed epoch, and certified against
          {!Dcn_check.Certify}'s re-integration (its solver clause) *)
}

type outcome =
  | Committed of detail  (** event absorbed, nothing shed *)
  | Degraded of detail  (** absorbed after shedding [detail.dropped] *)
  | Rejected of { reason : string }
      (** event refused; the committed state is unchanged *)

val outcome_kind : outcome -> string
(** ["committed"], ["degraded"] or ["rejected"]. *)

val pp_outcome : Format.formatter -> outcome -> unit

val outcome_to_json : outcome -> Dcn_engine.Json.t

val apply : t -> Event.t -> outcome
(** Absorb one event.  Never raises (see above); a [Rejected] outcome
    leaves the session exactly as it was. *)

val clock : t -> float

val uptime_ms : t -> float
(** Wall-clock milliseconds since {!create}.  Nondeterministic by
    nature; the CLI stamps it onto per-event outcome lines (the
    [uptime_ms] wire field) but it never enters {!outcome_to_json} or
    {!report}, which stay byte-identical across runs and [--jobs]
    levels. *)

val active_flows : t -> Dcn_flow.Flow.t list
(** Committed flows, ascending id: the flows of the committed
    schedule's plans ([[]] when drained). *)

val active_coflows : t -> (int * int list) list
(** Committed coflow membership, ascending coflow id — live members
    only (a member leaves the list when it retires; shedding and
    cancellation always remove whole groups).  Exactly the shape
    {!Dcn_check.Certify.coflow_consistency} consumes, so a session's
    committed schedule can be checked for all-or-nothing consistency at
    any epoch. *)

val schedule : t -> Dcn_sched.Schedule.t option
(** The committed schedule; [None] when no flows are committed. *)

val total_intervals : t -> int
(** Timeline intervals of the committed relaxation (0 when drained). *)

val report : t -> Dcn_engine.Json.t
(** The rolling report: clock, committed flows, energy, event and
    outcome counts, admission casualties, interval re-solve/reuse
    totals, certified epochs.  Deterministic for a given event
    sequence at every pool size. *)

val ok : t -> bool
(** Every committed epoch so far certified clean. *)

val snapshot : t -> string
(** The committed state as a compact JSON document, for durable-serving
    checkpoints ([Dcn_durable]): clock, PRNG state, flows, committed
    paths, coflow membership, stats, and the per-interval fractional
    solutions of the committed relaxation (verbatim — a cold re-solve
    would not reproduce the warm starts).  Written straight into one
    buffer, without a JSON tree; the relaxation is a table of its
    distinct link lists plus one positional row per interval that
    names them by index (format version 2, laid out in DESIGN.md).
    Floats are emitted at full precision,
    so {!restore} resumes the exact session: subsequent events yield
    byte-identical outcomes to the uninterrupted run.  Deterministic —
    wall-clock fields like {!uptime_ms} never enter the snapshot — and
    prefixed by a fingerprint of the session's topology, power model,
    policy and solver settings. *)

val restore :
  ?pool:Dcn_engine.Pool.t ->
  graph:Dcn_topology.Graph.t ->
  power:Dcn_power.Model.t ->
  policy:Dcn_resilience.Repair.policy ->
  Dcn_engine.Json.t ->
  (t, string) result
(** Rebuild a session from a parsed {!snapshot} of format version 2;
    any other version, the version-1 snapshots of older stores
    included, is an [Error].  The caller supplies the same
    graph/power/policy the original session was created with;
    the snapshot's fingerprint is checked against them and a mismatch
    is an [Error] (resuming under different parameters would silently
    diverge instead of continuing the committed timeline).  The
    committed schedule and breakpoint timeline are recomputed from the
    restored flows and paths — they are pure functions of them — and
    the snapshot is refused unless its paths match its flows one to
    one, every link id it names (committed paths and the relaxation's
    path table) is a link of [graph], every path index in an interval
    row is in the table, its coflow members are committed flows, and
    its relaxation has exactly the recomputed timeline's intervals.
    [uptime_ms] restarts at the moment of restore. *)
