(** Deterministic, seeded fault injection.

    A fault is an event hitting a running data center at a point [at]
    inside the committed schedule's horizon: a cable failure, a
    capacity degradation on a link set, or a burst of unplanned flow
    arrivals.  {!Repair} consumes the event together with the committed
    schedule and re-plans what remains.

    Determinism follows the {!Dcn_check.Gen} discipline: every
    scenario of a campaign derives from its own pre-split PRNG stream
    ({!Dcn_engine.Pool.split_rngs}), so {!campaign} is a pure function
    of [(seed, n)] — the same faults come out whatever [--jobs] level
    later replays them, and scenario [i] never depends on how scenarios
    [0..i-1] consumed randomness. *)

type event =
  | Cable_cut of { at : float; cables : Dcn_topology.Graph.link list }
      (** the cables (each named by one directed link) vanish at [at] *)
  | Degradation of {
      at : float;
      cables : Dcn_topology.Graph.link list;  (** the links observed failing *)
      factor : float;  (** in (0, 1): the surviving fraction of capacity *)
    }
      (** fabric-wide rate limit from time [at] on — the power model
          carries a single capacity, so a degradation anywhere clamps
          every link (see DESIGN.md) *)
  | Burst of { at : float; flows : Dcn_flow.Flow.t list }
      (** unplanned arrivals released at or after [at] *)

val at : event -> float
(** When the fault strikes. *)

val kind : event -> string
(** Stable tag: ["cable_cut"], ["degradation"] or ["burst"]. *)

val event_to_json : event -> Dcn_engine.Json.t

val draw : rng:Dcn_util.Prng.t -> Dcn_core.Instance.t -> event
(** One random fault for the instance: the strike time lands in the
    middle half of the horizon (so traffic exists on both sides), cable
    cuts never remove the whole fabric, burst flows connect distinct
    hosts with fresh ids.  Pure function of the [rng] stream. *)

type scenario = {
  index : int;  (** position in the campaign *)
  label : string;  (** {!Dcn_check.Gen} case label + fault kind *)
  solver_seed : int;  (** seed for the scenario's solvers *)
  instance : Dcn_core.Instance.t;
  event : event;
}

val scenario : rng:Dcn_util.Prng.t -> index:int -> scenario
(** A {!Dcn_check.Gen.case} plus one fault drawn from the same stream. *)

val campaign : seed:int -> n:int -> scenario array
(** [n] independent scenarios from pre-split streams of [seed].
    @raise Invalid_argument if [n < 1]. *)
