(** The multi-step fractional MCF relaxation of Algorithm 2.

    Per interval [I_k] of the instance's timeline, every active flow's
    density [D_i] is routed fractionally at minimum total convex link
    cost — the F-MCF subproblem of the paper, solved here by
    {!Dcn_mcf.Frank_wolfe} with the power model's lower convex envelope
    as the per-link cost (the convexification of the fixed-charge
    Eq. 1; see DESIGN.md).  The fractional per-flow link flows are
    decomposed into weighted paths (Raghavan–Tompson), ready for the
    randomised rounding of {!Random_schedule}; the certified objective
    lower bounds feed {!Lower_bound}. *)

type interval_solution = {
  index : int;
  bounds : float * float;
  cost : float;
      (** envelope cost of the fractional loads, per unit time *)
  lb : float;  (** certified lower bound on the interval's convex optimum *)
  max_overload : float;  (** worst link-load excess over capacity *)
  flow_paths : (int * Dcn_mcf.Decompose.weighted_path list) list;
      (** flow id → weighted paths; weights sum to the flow's density *)
}

type t = {
  timeline : Dcn_flow.Timeline.t;
  intervals : interval_solution array;
  cost : float;  (** [sum over k of |I_k| * cost_k] *)
  lb : float;  (** [sum over k of |I_k| * lb_k] — the paper's LB series *)
}

val piecewise_of : Dcn_power.Model.t -> Dcn_mcf.Frank_wolfe.piecewise
(** The model's lower convex envelope in the closed form the kernel
    engine inlines; describes exactly [Model.envelope(_deriv)]. *)

type reuse_stats = {
  resolved : int;  (** intervals whose F-MCF was (re-)solved *)
  reused : int;  (** intervals copied verbatim from [previous] *)
}

val resolve :
  ?pool:Dcn_engine.Pool.t ->
  ?fw_config:Dcn_mcf.Frank_wolfe.config ->
  ?workspace:Dcn_mcf.Kernel.Workspace.t ->
  ?previous:t ->
  window:float * float ->
  Instance.t ->
  t * reuse_stats
(** Incremental re-solve after a local change to the flow set (an
    arrival, cancellation or retirement whose span is [window]), given
    the [previous] relaxation of the pre-change instance.  Without
    [previous], every interval is solved cold.

    Without [previous], [pool] fans the independent per-interval F-MCF
    programs across worker domains (default: sequential).  With it, the
    re-solved intervals run in ascending index order on the caller's
    domain, because each may start from the one before (below).  The
    result is bit-identical for every pool size and either FW engine.
    [workspace] supplies the kernel engine's arenas, reused across the
    intervals (and safely across the pool's domains); without one the
    process-wide default workspace is used.

    Intervals of the {e new} timeline that do not overlap [window]
    reuse the previous solution of the interval covering their midpoint
    — per-interval quantities are per unit time, so intervals split by
    new breakpoints outside the window inherit the old solution on both
    halves exactly.  Reuse is guarded: if the previous solution's flow
    set does not match the interval's active set (a caller gave too
    narrow a window), the interval is re-solved rather than reused, so
    [resolve] never returns a stale solution.  Overlapping intervals
    are re-solved with {!Dcn_mcf.Frank_wolfe}'s warm start seeded from
    the previous fractional paths of every flow both instances share.
    A flow without paths in the previous interval covering the new
    interval's midpoint (an arrival) is carried: it starts from the
    paths it got in the latest interval re-solved before this one in
    the same call, so only the first re-solved interval holding it
    starts it cold on its hop-count path.  Each interval's start then
    depends only on the intervals below it, computed in index order
    whatever the pool, which keeps the result jobs-invariant. *)

val solve :
  ?pool:Dcn_engine.Pool.t ->
  ?fw_config:Dcn_mcf.Frank_wolfe.config ->
  ?workspace:Dcn_mcf.Kernel.Workspace.t ->
  Instance.t ->
  t
(** The relaxation solved cold: {!resolve} without [previous]. *)
