(** Fault campaigns: commit, strike, repair, certify — N times.

    A campaign replays [n] independent {!Fault.scenario}s.  Each
    scenario solves its instance through the {!Watchdog} (committing a
    schedule the fault will interrupt), injects its fault, runs
    {!Repair} under the campaign's admission policy, and certifies any
    re-plan against the residual instance.

    Scenarios parallelise over a {!Dcn_engine.Pool}; every scenario is
    a pure function of its own pre-split PRNG streams, so the campaign
    result is bit-identical at every [--jobs] level (the same
    invariance contract as the fuzzing oracle). *)

type row = {
  index : int;
  label : string;
  event : Fault.event;
  committed : Watchdog.answer;  (** the pre-fault plan *)
  outcome : Repair.outcome;
}

type t = {
  seed : int;
  policy : Repair.policy;
  rows : row array;
  repaired : int;
  degraded : int;
  irreparable : int;
  uncertified : int;  (** rows whose re-plan failed certification *)
}

val ok : t -> bool
(** Every repaired or degraded schedule certified. *)

val run :
  ?pool:Dcn_engine.Pool.t ->
  ?budget_ms:float ->
  policy:Repair.policy ->
  seed:int ->
  n:int ->
  unit ->
  t
(** [budget_ms] is the {!Watchdog} budget of the commit phase.
    Repairs degrade on their own; should an enclosing ambient deadline
    ({!Dcn_engine.Deadline}) expire inside one, the row folds into
    [Irreparable] rather than raising.
    @raise Invalid_argument if [n < 1]. *)

val row_to_json : row -> Dcn_engine.Json.t

val to_json : t -> Dcn_engine.Json.t
(** Summary counts plus one entry per scenario — the [resilience]
    section of run reports. *)
