(** Typed schedule diffs — the one sanctioned way to compare two
    schedules of the same fabric.

    The serving layer absorbs a stream of flow events; after each
    committed epoch the interesting object is not the whole schedule
    but what {e changed}: which plans appeared, which disappeared, and
    which were re-planned.  [diff] computes that change set, [apply]
    replays it onto the pre-change schedule, and the two are inverses:

    {[ apply ~graph ~power ~before (diff ~before ~after) = after ]}

    (plan-for-plan, for any two schedules of the same graph and power
    model).  Downstream consumers — the [dcn serve] delta stream, the
    replay tests, external dashboards — should diff schedules only
    through this module rather than comparing plan lists by hand. *)

type change = {
  before : Schedule.plan;
  after : Schedule.plan;  (** same flow id, different path or slots *)
}

type t = {
  horizon : (float * float) option;
      (** the post-change schedule's horizon; [None] iff the post-change
          schedule is absent (every plan removed, session drained) *)
  added : Schedule.plan list;  (** plans absent before, ascending flow id *)
  removed : Schedule.plan list;
      (** plans absent after, ascending flow id *)
  changed : change list;  (** ascending flow id *)
}

val equal_plan : Schedule.plan -> Schedule.plan -> bool
(** Structural equality: same flow (all fields), path and slots. *)

val is_empty : t -> bool
(** No added, removed or changed plans (the horizon may still have
    moved — an epoch that only advanced the clock). *)

val diff : before:Schedule.t option -> after:Schedule.t option -> t
(** Change set turning [before] into [after].  [None] stands for the
    empty schedule of a session with no committed flows. *)

val of_changes :
  horizon:(float * float) option ->
  added:Schedule.plan list ->
  removed:Schedule.plan list ->
  t
(** The delta of an epoch that only adds and removes whole plans, when
    the caller knows which: no plan is changed.  Equals {!diff} on the
    schedules before and after such an epoch, without visiting the
    plans both share. *)

val apply :
  graph:Dcn_topology.Graph.t ->
  power:Dcn_power.Model.t ->
  before:Schedule.t option ->
  t ->
  (Schedule.t option, string) result
(** Replay a delta: remove [removed], replace [changed], append
    [added], rebuild on [horizon].  A delta that does not match
    [before] — a removed or changed plan that is absent or differs, an
    added plan already present — yields [Error] with the offending flow
    id; it never raises. *)

val summary : t -> string
(** ["+a -r ~c"] counts, e.g. ["+1 -0 ~0"]. *)

val to_json : t -> Dcn_engine.Json.t
(** Added/changed plans in full (flow, path link ids, slots); removed
    plans by flow id. *)
