(** Differential testing of the solver family on one instance.

    Runs a configurable solver set — SP+MCF, ECMP+MCF, Random-Schedule
    (plus its Most-Critical-First refinement), greedy energy-aware
    routing, online admission control and, on tiny instances, the
    exhaustive {!Dcn_core.Exact} optimum — certifies every output with
    {!Certify}, and asserts the cross-solver invariants the paper
    proves:

    - every interval-density schedule (Random-Schedule, greedy,
      online with no rejections) dominates the fractional lower bound
      (Section V-C normaliser; virtual-circuit results are exempt —
      the relaxation fixes per-interval demands to densities, and
      MCF's time-shifting can legitimately dip below it, see the
      DESIGN.md caveat);
    - the exhaustive optimum is no worse than any fixed-routing
      MCF result (Corollary 1: MCF is optimal per routing, so the
      minimum over routings bounds them all);
    - re-running Most-Critical-First on a virtual-circuit solution's
      own routing reproduces its energy (Theorem 1 determinism);
    - a feasible Random-Schedule draw passes the full certificate
      (Theorem 4);
    - solution metadata is consistent: rounding paths match the
      schedule's plans, MCF groups partition the flow set, rates cover
      every flow;
    - incremental certification equals full certification: a
      {!Certify.state} kept while Random-Schedule's and SP+MCF's plans
      enter and leave one at a time gives {!Certify.schedule}'s
      violations and {!Dcn_sched.Schedule.energy}'s energy at every
      step. *)

type solver_result = {
  solver : string;
  energy : float;
  feasible : bool;
  violations : Certify.violation list;
}

type cross_violation =
  | Exact_beaten of { solver : string; energy : float; exact : float }
  | Lb_violated of { solver : string; energy : float; lower_bound : float }
  | Mcf_not_reproducible of { solver : string; energy : float; resolved : float }
  | Meta_inconsistent of { solver : string; what : string }
  | Kernel_divergence of { what : string; kernel : float; reference : float }
      (** the flat-kernel Frank–Wolfe engine failed to reproduce the
          boxed reference engine bit for bit on this instance *)
  | Incremental_divergence of { solver : string; step : int; what : string }
      (** a certificate kept across plan additions and removals
          ({!Certify.update}) differs from {!Certify.schedule} on the
          same plans after [step] changes: in its violations or its
          energy *)

type t = {
  label : string;
  lower_bound : float;
  results : solver_result list;
  cross : cross_violation list;
}

val ok : t -> bool
(** No per-solver certificate violations and no cross-solver ones. *)

val violation_kinds : t -> string list
(** Sorted, distinct taxonomy tags of everything that failed — the
    identity {!Shrink} preserves. *)

val pp_cross : Format.formatter -> cross_violation -> unit

val run : solver_seed:int -> label:string -> Dcn_core.Instance.t -> t
(** Deterministic given its arguments.  The exhaustive solver runs only
    on tiny instances (few flows, tiny graph), where its enumeration
    budget is certainly small.  Random-Schedule draws up to 10 paths,
    and every Frank–Wolfe solve runs under
    {!Dcn_mcf.Frank_wolfe.resolve_config}. *)

val run_batch : ?pool:Dcn_engine.Pool.t -> Gen.case array -> t array
(** {!run} per case, fanned over the pool; results are in case order
    and bit-identical for every pool size. *)

val to_json : t -> Dcn_engine.Json.t

val batch_to_json : t array -> Dcn_engine.Json.t
