(** Independent certification of solver output.

    Given an instance and a schedule (or a full {!Dcn_core.Solution.t}),
    re-derive every property the paper's theorems promise from the raw
    slots.  The per-link timeline sweep is kept in
    {!Dcn_sched.Link_state} beside the profiles [Schedule.energy] reads
    (they share the per-link slot lists, not the arithmetic), and
    {!Dcn_sim.Fluid.run} re-integrates the whole schedule on its own:

    - path endpoints and connectivity in the {e instance's} graph;
    - transmission windows: every slot inside its flow's
      [\[release, deadline\]] span (hard deadlines, Section II-B);
    - volume completion: slot integrals deliver each flow's [w_i];
    - link capacity: a full per-link timeline sweep of summed rates
      against the power model's cap (Theorem 4's feasibility claim);
    - virtual-circuit exclusivity where claimed (Section III-A);
    - energy re-integration: Eq. (5) idle [sigma] + dynamic
      [mu x^alpha] recomputed from the sweep, cross-checked against the
      solver-reported total and against {!Dcn_sim.Fluid.run};
    - lower-bound dominance: [energy >= LB - eps] (the paper's
      normaliser, Section V-C).

    The result is a typed violation list — empty means certified. *)

type violation =
  | Unknown_flow of { flow : int }
      (** the schedule plans a flow the instance does not contain *)
  | Missing_flow of { flow : int }
      (** an instance flow has no plan (only without [partial]) *)
  | Bad_path of { flow : int }
      (** the plan's path is not a simple src→dst path in the graph *)
  | Slot_outside_window of { flow : int; start : float; stop : float }
  | Volume_mismatch of { flow : int; delivered : float; expected : float }
  | Capacity_exceeded of {
      link : int;
      window : float * float;
      rate : float;
      cap : float;
    }
  | Link_conflict of { link : int; at : float; flows : int * int }
      (** two flows transmit simultaneously on a virtual-circuit link *)
  | Horizon_mismatch of { expected : float * float; got : float * float }
  | Energy_mismatch of { source : string; reported : float; recomputed : float }
      (** [source] is ["solver"] or ["fluid-sim"] *)
  | Lb_violated of { energy : float; lower_bound : float }
  | Partial_coflow of { coflow : int; planned : int list; missing : int list }
      (** all-or-nothing admission broken: the schedule plans some but
          not all member flows of a coflow (see {!coflow_consistency}) *)

val eps : float
(** The time/volume tolerance (relative), 1e-6. *)

val energy_rtol : float
(** The energy comparison tolerance (relative), 1e-6. *)

type config = {
  partial : bool;
      (** allow instance flows without a plan (online admission) *)
  exclusive : bool;  (** enforce virtual-circuit link exclusivity *)
  check_capacity : bool;  (** enforce the power model's cap *)
  check_volume : bool;  (** enforce volume completion and windows *)
  cross_check_sim : bool;  (** re-integrate energy via {!Dcn_sim.Fluid} *)
}

val default : config
(** [partial = false], [exclusive = false], [check_capacity = true],
    [check_volume = true], [cross_check_sim = true]. *)

val kind : violation -> string
(** Stable taxonomy tag, e.g. ["volume_mismatch"] — the identity the
    shrinker preserves and the JSON reports carry. *)

val pp_violation : Format.formatter -> violation -> unit

val violation_to_json : violation -> Dcn_engine.Json.t

val violations_to_json : violation list -> Dcn_engine.Json.t
(** [{ "ok": bool, "violations": [...] }]. *)

val schedule :
  ?config:config ->
  ?reported_energy:float ->
  ?lower_bound:float ->
  Dcn_core.Instance.t ->
  Dcn_sched.Schedule.t ->
  violation list
(** Certify a bare schedule against its instance: {!check} on the
    {!state} of all its plans, ranked by position. *)

(** {2 Incremental certification}

    A certificate kept across a stream of schedule changes.  Its state
    holds the schedule's {!Dcn_sched.Link_state} and each plan's own
    verdict (path, windows, volume), keyed by flow id.  {!update}
    re-checks only the added plans and marks only the links on the
    added and removed plans' paths stale; {!check} re-sweeps those
    links, reads every other link's cached sweep, and runs the horizon,
    coverage, energy, fluid and lower-bound clauses in full.  The
    result is {!schedule}'s, bit for bit, provided the state's plans
    are the schedule's, ascend by flow id in the schedule (the state
    ranks by flow id), and the instance gives every kept plan the flow
    it gave when that plan was added. *)

type state

val state : ?config:config -> links:int -> Dcn_power.Model.t -> state
(** An empty certificate over links [0 .. links - 1]; the power model
    is the instance's. *)

val links : state -> Dcn_sched.Link_state.t
(** The per-link state, for the energy and capacity functions it
    also serves. *)

val update :
  state ->
  Dcn_core.Instance.t ->
  added:Dcn_sched.Schedule.plan list ->
  removed:int list ->
  unit
(** Remove the plans of the listed flow ids, then add the plans,
    checking each against the instance. *)

val check :
  ?reported_energy:float ->
  ?lower_bound:float ->
  state ->
  Dcn_core.Instance.t ->
  Dcn_sched.Schedule.t ->
  violation list
(** The certificate of the schedule the state holds. *)

val coflow_consistency :
  members:(int * int list) list -> Dcn_sched.Schedule.t -> violation list
(** All-or-nothing admission consistency for coflow workloads: for each
    [(coflow id, member flow ids)] pair the schedule must plan either
    every member or none — a partially covered coflow yields a
    {!Partial_coflow} violation.  Purely structural (no volume or
    capacity claims), so it composes with [schedule ~config:{default
    with partial = true}] into a coflow {e conjunction} certificate:
    member clauses certify each planned member, this clause certifies
    the admission decision itself (Dcn_coflow.Certificate does exactly
    that). *)

val solution :
  ?lower_bound:float ->
  Dcn_core.Instance.t ->
  Dcn_core.Solution.t ->
  violation list
(** Certify a solver result.  The checked claims follow the solution's
    own metadata: MCF results are checked for exclusivity (virtual
    circuits) but not capacity (DCFS does not bind it), Random-Schedule
    results for capacity but not exclusivity (interval-density sharing);
    a result flagged infeasible only has its structural properties
    (paths, windows) checked, since it claims nothing else.  When the
    solution carries a relaxation (Random-Schedule), lower-bound
    dominance is checked against it even if [lower_bound] is omitted. *)

val install_selfcheck : unit -> unit
(** Install {!Dcn_core.Selfcheck} hooks that certify every solver
    result and raise [Failure] (with rendered violations) on the first
    failure. *)

val selfcheck_from_env : unit -> unit
(** {!install_selfcheck} iff the [DCN_SELFCHECK] environment variable
    is ["1"] — call once at program start-up (the CLI and bench do). *)
