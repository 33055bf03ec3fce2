(** The per-link state of a schedule, kept keyed by flow id so that a
    change of a few plans recomputes only the links on their paths.

    The energy of a schedule is a sum over links of each link's own
    integral (Eq. (5)), and a link's rate profile, capacity verdict and
    exclusivity verdict depend only on the slots it carries.  A state
    holds, per link:

    - its entries: the carried slots ([rate > 0], [stop > start]) of
      every plan whose path crosses it, in descending {e rank}, each
      plan's slots in slot order;
    - its {!Profile.t} and that profile's dynamic energy;
    - its {!sweep}: the per-segment dynamic-energy terms, peak segment
      and first conflict of the timeline sweep that
      [Dcn_check.Certify] re-integrates and checks.

    {!add} and {!remove} mark the links of a plan's path stale; the
    profile and the sweep of a stale link are recomputed the next time
    they are read.  A full pass over a schedule is the same state built
    from empty, ranking plans by position (every energy, profile and
    capacity function of {!Schedule} builds one); a serving session
    ranks by flow id, which is the order of its schedule's plans. *)

type t

type entry
(** One plan's carried slots, placed on every link of its path. *)

val entry :
  rank:int ->
  flow:int ->
  path:Dcn_topology.Graph.link list ->
  start:float array ->
  stop:float array ->
  rate:float array ->
  entry
(** Slot [k] is [\[start.(k), stop.(k))] at [rate.(k)], in slot
    order; slots that carry nothing are dropped. *)

val create : links:int -> Dcn_power.Model.t -> t
(** An empty state over links [0 .. links - 1].  The power model prices
    both the profiles and the sweep terms. *)

val add : t -> entry -> unit
(** @raise Invalid_argument when the entry's flow is already present
    or its path leaves the link range. *)

val remove : t -> int -> unit
(** Remove the flow's entry; a flow that is absent is ignored. *)

val mem : t -> int -> bool

val path : t -> int -> Dcn_topology.Graph.link list
(** Path of a present flow.  @raise Not_found otherwise. *)

(** {2 Profile side} *)

val profiles : t -> (Dcn_topology.Graph.link * Profile.t) array
(** Non-idle profiles, ascending link id. *)

val energy : t -> horizon:float * float -> float
(** Eq. (5) over the profiles: [sigma * |active| * (T1 - T0)] plus
    each active link's profile energy, added in link order. *)

val idle_energy : t -> horizon:float * float -> float
val dynamic_energy : t -> float

val max_rate : t -> float
(** Highest profile rate over all links, 0 for an empty state. *)

type verdict = {
  overload : float;
      (** [max_rate - cap]; [neg_infinity] when the cap is infinite,
          where no profile is read *)
  within_cap : bool;
      (** [overload] is within the [1e-6 * max 1 cap] tolerance *)
}

val verdict : t -> verdict
(** Do the links fit under the power model's capacity? *)

val verdict_with : t -> removed:int list -> added:entry list -> verdict
(** {!verdict} as it would be after removing the listed flows and
    adding the entries, without changing the state: only the links on
    their paths are re-profiled, every other link's cached profile is
    read. *)

(** {2 Sweep side} *)

type sweep = {
  terms : float array;
      (** [Model.dynamic rate * length] of each elementary segment with
          a positive rate, in time order; the segments cut the link's
          timeline at its entries' distinct boundaries, and a segment's
          rate adds the entries covering its midpoint in entry order *)
  peak : float * float * float;
      (** [(start, stop, rate)] of the first segment with the highest
          rate; rate [neg_infinity] when the link has no segment *)
  conflict : (float * int * int) option;
      (** the first segment covered by two flows: its start, the flow
          of its first covering entry and the first other flow *)
}

val sweep : t -> Dcn_topology.Graph.link -> sweep

val links : t -> int
