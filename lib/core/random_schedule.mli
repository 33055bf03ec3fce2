(** Algorithm 2 of the paper: {b Random-Schedule}, the approximation
    algorithm for DCFSR (joint flow scheduling and routing).

    Pipeline (Section V-A):

    + relax to a multi-step fractional MCF and solve each interval's
      convex program ({!Relaxation});
    + extract candidate paths per flow by Raghavan–Tompson decomposition
      and weight each path by
      [w̄_P = sum over k of w_P(k) |I_k| / (d_i - r_i)];
    + choose one path per flow at random with probability proportional
      to [w̄_P];
    + in every interval run each used link at rate
      [sum of D_i over J_e(k)] with EDF among the flows — realised here
      by letting each flow transmit at its density [D_i] across its span
      on the chosen path, which yields exactly those link rates and
      meets every deadline (Theorem 4).

    The rounding does not guarantee the capacity constraint; as the
    paper notes, the draw can be repeated.  [solve] redraws up to
    [attempts] times, returning the first feasible draw (or the
    least-overloaded draw if none is feasible within the budget) and
    reporting what happened.

    Callers call {!solve} directly.  A wall-clock budget reaches it only
    as the calling domain's ambient {!Dcn_engine.Deadline}. *)

type config = {
  attempts : int;  (** rounding redraws, default 20; must be >= 1 *)
  fw_config : Dcn_mcf.Frank_wolfe.config;
}

val default_config : config

val redraw_budget : int
(** Path redraws per admission round or repair: 10.  Serving
    sessions, schedule repair, the watchdog and the differential
    oracle all draw with it. *)

val candidate_paths :
  Relaxation.t ->
  Dcn_flow.Flow.t ->
  (Dcn_topology.Graph.link list * float) list
(** The flow's candidate routing paths across all intervals of the
    relaxation, each with the paper's combined weight
    [w̄_P = sum over k of w_P(k) |I_k| / (d_i - r_i)] — the sampling
    distribution of step 3.  Deterministically ordered.  Exposed for
    the serving layer, which draws a path for a newly admitted flow
    from the warm relaxation without re-rounding committed flows. *)

val name : string
(** ["random-schedule"] *)

val solve :
  ?config:config ->
  ?relaxation:Relaxation.t ->
  ?pool:Dcn_engine.Pool.t ->
  rng:Dcn_util.Prng.t ->
  Instance.t ->
  Solution.t
(** Returns a {!Solution.t} whose [meta] is {!Solution.Rounding}: the
    chosen paths, redraws consumed and the fractional relaxation (for LB
    reuse).  [per_flow_rates] are the interval densities [D_i].

    [relaxation] short-circuits step 1 when the caller already solved it
    (e.g. to share it with {!Lower_bound}); otherwise step 1 solves
    every interval cold through {!Relaxation.resolve}.  (Warm starts
    from an earlier relaxation go through {!Relaxation.resolve}
    [?previous] directly, as the serving session does.)

    [pool] (default sequential) parallelises both the per-interval
    relaxation programs and the rounding redraws.  Redraws get one pre-split PRNG stream
    each (off [rng]) and are evaluated in index-ordered batches,
    keeping the paper's first-feasible semantics (the lowest-index
    feasible draw wins), so the solution is bit-identical for every
    pool size.  The ambient {!Dcn_engine.Deadline} is polled between
    attempt batches and inside Frank–Wolfe; a blown budget raises
    {!Dcn_engine.Deadline.Expired}.

    @raise Invalid_argument if [config.attempts < 1]. *)

val refine : Instance.t -> Solution.t -> Solution.t
(** Ablation (not in the paper): keep Random-Schedule's routing but
    replace the interval-density rates by the DCFS schedule on those
    paths (Most-Critical-First).  Wins under light load (one constant
    rate per flow, Lemma 1); can lose under congestion, where DCFS's
    virtual-circuit serialisation forces higher rates than RS's fluid
    link sharing. *)
