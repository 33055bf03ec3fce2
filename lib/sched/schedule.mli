(** Concrete schedules: the solution object every algorithm produces.

    A schedule assigns each flow a single routing path and a set of
    transmission slots (Eq. 2 of the paper, with piecewise-constant
    [s_i(t)]).  The same representation covers both schedule styles in
    the paper:

    - {e virtual-circuit} schedules (Most-Critical-First): one constant
      rate per flow, slots exclusive per link;
    - {e interval-density} schedules (Random-Schedule): each flow
      transmits at its density over its whole span, so a link's rate is
      the sum of the active densities — exactly the
      [sum of D_i over J_e(k)] link rates of Algorithm 2.

    Energy is Eq. (5): idle power [sigma] over the whole horizon for
    every link that ever carries traffic, plus the integral of
    [mu x_e(t)^alpha]. *)

type slot = { start : float; stop : float; rate : float }

type plan = {
  flow : Dcn_flow.Flow.t;
  path : Dcn_topology.Graph.link list;
  slots : slot list;
}

type t = private {
  graph : Dcn_topology.Graph.t;
  power : Dcn_power.Model.t;
  horizon : float * float;  (** [(T0, T1)] — the idle-power window *)
  plans : plan list;
}

val make :
  graph:Dcn_topology.Graph.t ->
  power:Dcn_power.Model.t ->
  horizon:float * float ->
  plan list ->
  t
(** Structural validation only (paths connect the right endpoints, slots
    are well-formed); deadlines, volumes, capacity and exclusivity are
    certified by [Dcn_check.Certify].
    @raise Invalid_argument on a malformed plan or duplicate flow ids. *)

val density_plan : Dcn_flow.Flow.t -> Dcn_topology.Graph.link list -> plan
(** The flow transmitting at its density {!Dcn_flow.Flow.density} over
    its whole span on the path: one plan of Algorithm 2's
    interval-density schedule.  Unvalidated; see {!make}. *)

val of_densities :
  graph:Dcn_topology.Graph.t ->
  power:Dcn_power.Model.t ->
  horizon:float * float ->
  (Dcn_flow.Flow.t * Dcn_topology.Graph.link list) list ->
  t
(** The interval-density schedule of Algorithm 2: the {!density_plan}
    of every pair.  Plans keep the order of the pairs.
    @raise Invalid_argument as {!make}. *)

type verdict = Link_state.verdict = {
  overload : float;
      (** [max_link_rate - cap]; [neg_infinity] when the cap is
          infinite, where no profile is swept *)
  within_cap : bool;
      (** [overload] is within the [1e-6 * max 1 cap] tolerance *)
}

val capacity_verdict : t -> verdict
(** Does the schedule fit under the power model's link capacity? *)

val delivered : plan -> float
(** Data carried by the plan's slots. *)

val find_plan : t -> int -> plan option
(** Plan of the flow with the given id, or [None].  To compare two
    schedules plan-by-plan, use {!Schedule_delta.diff} rather than
    paired lookups. *)

val entry : rank:int -> plan -> Link_state.entry
(** The plan's slots as a {!Link_state} entry of the given rank.  The
    functions below read the {!Link_state} of every plan, ranked by
    position. *)

val profiles : t -> (Dcn_topology.Graph.link * Profile.t) array
(** Profiles of all links that carry traffic. *)

val active_links : t -> Dcn_topology.Graph.link list
(** [Ea]: links with at least one slot (directed). *)

val idle_energy : t -> float
(** [sigma * |Ea| * (T1 - T0)]. *)

val dynamic_energy : t -> float
(** [integral of sum mu x_e^alpha]. *)

val energy : t -> float
(** [idle_energy + dynamic_energy] — the paper's objective
    [Phi_f]. *)

val max_link_rate : t -> float
