(** Schedule repair after a fault — salvage, re-plan, degrade gracefully.

    Given a committed schedule and a {!Fault.event} striking at time
    [t], repair proceeds in three steps:

    + {b salvage}: everything the committed schedule delivered before
      [t] is kept — per flow, the residual volume is
      [w_i - delivered_before_t];
    + {b residual instance}: flows with volume left become fresh flows
      released at [max r_i t] on the post-fault topology (cables
      removed, capacity clamped, burst arrivals admitted per policy);
    + {b re-solve}: the residual instance goes back through the normal
      pipeline ({!Dcn_core.Relaxation} + {!Dcn_core.Random_schedule});
      while no feasible draw exists the admission {!policy} drops one
      flow at a time — graceful degradation rather than failure.

    The result is a typed {!outcome} — never an exception: even solver
    blow-ups on pathological residuals are folded into [Irreparable]
    (only {!Dcn_engine.Deadline.Expired} is re-raised, so a watchdog
    budget above a repair still works).  A repaired schedule is a
    schedule {e of the residual instance}: certify it with
    {!Dcn_check.Certify.solution} against [detail.residual] — the
    salvaged prefix needs no new certificate, it is the committed
    schedule the fault interrupted. *)

type policy =
  | Drop_latest_deadline
      (** shed the flow with the most distant deadline first *)
  | Drop_largest_residual
      (** shed the flow with the most volume left first *)
  | Reject_new
      (** never shed a pre-fault flow; refuse burst arrivals instead,
          and report [Irreparable] if the old flows cannot be served *)

val policy_to_string : policy -> string
val policy_of_string : string -> policy option

type shed_policy =
  | Shed_newest
      (** refuse the arriving event when the queue is full — committed
          work is never displaced (the overload analogue of
          [Reject_new]) *)
  | Shed_oldest
      (** evict the oldest queued (not yet committed) event to make
          room — freshest traffic wins under sustained overload *)
(** Overload shedding for the serving layer's bounded pending-event
    queue ([Dcn_durable.Pending]): when arrivals outpace the
    incremental re-solve, the transport must refuse {e some} event with
    a typed [Shed] outcome rather than queue without bound.  Lives here
    beside the admission {!policy} vocabulary so both degradation axes
    — not enough capacity, not enough solver throughput — are chosen
    from one place. *)

val shed_policy_to_string : shed_policy -> string
val shed_policy_of_string : string -> shed_policy option

val next_casualty :
  policy -> is_new:(int -> bool) -> Dcn_flow.Flow.t list -> Dcn_flow.Flow.t option
(** The policy's next victim among the given flows — the admission
    decision {!repair}'s degradation loop takes one round at a time,
    exposed so other admission loops (the serving layer's per-arrival
    admit/degrade cycle) shed flows under exactly the same typed
    policies.  [is_new] marks flows that arrived after commitment
    (burst arrivals, live arrivals); [None] means the policy refuses to
    shed further — [Reject_new] never sheds a pre-existing flow. *)

type detail = {
  residual : Dcn_core.Instance.t option;
      (** the re-solved instance; [None] when nothing was left to do *)
  solution : Dcn_core.Solution.t option;
      (** the re-plan; [None] iff [residual] is [None] or every
          residual flow was dropped *)
  salvaged : float;  (** volume delivered before the fault, kept as-is *)
  dropped : Dcn_flow.Flow.t list;  (** admission casualties, id order *)
  violations : Dcn_check.Certify.violation list;
      (** certification of [solution] against [residual]; [[]] when
          there is no solution to certify *)
}

type outcome =
  | Repaired of detail  (** every residual flow re-planned; no drops *)
  | Degraded of detail  (** re-planned after shedding [detail.dropped] *)
  | Irreparable of { reason : string; salvaged : float }
      (** no admissible re-plan exists under the policy *)

val outcome_kind : outcome -> string
(** ["repaired"], ["degraded"] or ["irreparable"]. *)

val pp_outcome : Format.formatter -> outcome -> unit

val outcome_to_json : outcome -> Dcn_engine.Json.t

val repair :
  policy:policy ->
  rng:Dcn_util.Prng.t ->
  committed:Dcn_sched.Schedule.t ->
  event:Fault.event ->
  Dcn_core.Instance.t ->
  outcome
(** Deterministic given [(rng, committed, event, instance, policy)].
    The re-solve draws up to 10 paths per admission round under
    {!Dcn_mcf.Frank_wolfe.resolve_config}; a residual within 1e-6 of
    its volume counts as delivered.  Solvers run sequentially so
    repairs parallelise at the campaign level without nesting pools. *)
