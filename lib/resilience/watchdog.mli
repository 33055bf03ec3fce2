(** A wall-clock budget guard over a fallback chain of solvers.

    The watchdog walks [exact -> random-schedule -> greedy-ear] under a
    single {!Dcn_engine.Deadline}: each guarded stage runs with the
    budget's deadline installed as the ambient deadline of the calling
    domain, and the instrumented solver loops (Frank–Wolfe iterations,
    Random-Schedule attempt batches, exact enumeration leaves) poll it
    cooperatively.  A stage that expires — or fails, or is gated out —
    is recorded and the chain falls through; the final greedy stage
    runs {e unguarded}, so the watchdog always answers with a schedule
    instead of hanging or raising.  With a 0 ms budget every guarded
    stage deterministically times out before its first poll completes,
    which is the degradation path the tests pin down.

    Outcomes are typed ({!attempt} per stage) and serialise into the
    run report, so an expired stage is visible in JSON rather than a
    stack trace. *)

type status =
  | Answered
  | Timed_out  (** the budget expired inside the stage *)
  | Skipped  (** gated out (e.g. the instance is too big for exact) *)
  | Failed of string  (** the stage ran but produced no usable answer *)

type attempt = { stage : string; status : status }

type answer = {
  algorithm : string;  (** the stage that answered *)
  attempts : attempt list;  (** the chain walk, in order *)
  schedule : Dcn_sched.Schedule.t;
  energy : float;
  feasible : bool;
  solution : Dcn_core.Solution.t option;
      (** [None] when the greedy fallback answered *)
}

val timed_out : answer -> string list
(** Stages whose budget expired, in chain order. *)

val solve :
  ?budget_ms:float -> rng:Dcn_util.Prng.t -> Dcn_core.Instance.t -> answer
(** Without [budget_ms] there is no deadline and the stages run to
    completion.  The exhaustive stage is gated by size as
    {!Dcn_check.Oracle} does; Random-Schedule draws up to 10 paths under
    {!Dcn_mcf.Frank_wolfe.resolve_config}.

    Deterministic for a fixed [(budget_ms, rng, instance)] {e outcome
    structure} under a 0 ms or absent budget; with a finite positive
    budget the stage that answers may vary with machine speed, which
    is the point of a watchdog.
    @raise Invalid_argument if even the greedy fallback cannot route a
    flow (disconnected endpoints). *)

val status_to_string : status -> string

val answer_to_json : answer -> Dcn_engine.Json.t
(** Algorithm, per-stage statuses, energy, feasibility — the
    [watchdog] section of run reports.  Timings live in the trace
    spans, keeping the report bit-deterministic. *)
