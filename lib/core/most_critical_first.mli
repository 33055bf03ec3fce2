(** Algorithm 1 of the paper: {b Most-Critical-First}, the optimal
    combinatorial algorithm for DCFS (flow scheduling with given
    routes).

    The algorithm generalises YDS to a network: every flow gets the
    virtual weight [w'_i = w_i * |P_i|^(1/alpha)]; repeatedly the
    (interval, link) pair maximising the intensity

    {v delta(I, e) = sum of w'_i over flows living inside I on e
                     / available time of I on e v}

    is selected (the {e critical interval} / {e critical link}); its
    flows are scheduled EDF at rates [s_i = delta / |P_i|^(1/alpha)]
    (Theorem 1), their transmission windows become unavailable on every
    link of their paths, and the process repeats (Corollary 1:
    optimality for DCFS under the virtual-circuit assumption of
    Section III-A).

    Rates come from the critical-interval iteration on program (P1),
    in the YDS time-debit formulation: a scheduled flow debits [w_j / s_j] time
    units from every window of every link of its path that contains its
    span — precisely the left-hand sides of (P1)'s interval constraints,
    with no cross-link slot coupling (the paper calls the result "the
    lower bound of the energy consumption by SP routing").  The
    iteration is not an exact (P1) solver on coupled routes: it can
    stay a few percent above the optimum (2.3% on the pinned line:4
    seed 1236 case in the tests).  Concrete
    transmission slots for the virtual-circuit realisation are packed
    afterwards, greedily in group/EDF order avoiding busy time on all
    path links; when heavy congestion admits no consistent placement the
    result is flagged via [placement_complete] while the energy remains
    the (P1) objective (Eq. 5 with the computed rates). *)

type group = Solution.mcf_group = {
  link : Dcn_topology.Graph.link;  (** the critical link *)
  window : float * float;  (** the critical interval *)
  intensity : float;  (** [delta(I*, e)] in virtual-weight units *)
  flow_ids : int list;  (** members, ascending *)
}

val solve_routed :
  ?algorithm:string ->
  Instance.t ->
  routing:(int -> Dcn_topology.Graph.link list) ->
  Solution.t
(** The routing-specific core: schedule optimally {e given} a routing.
    Complete solvers built on it ({!Baselines.sp_mcf},
    {!Baselines.ecmp_mcf}, {!Exact.search}) choose the routing first
    and call it.

    [routing id] is the path of the flow with that id.  The result's
    [energy] is Eq. (5),
    [sigma |Ea| (T1-T0) + sum_i |P_i| w_i mu s_i^(alpha-1)], which
    equals [Schedule.energy] of the returned schedule when placement is
    complete; [feasible] is {!Solution.placement_complete}; [meta] is
    {!Solution.Mcf} with the selection groups.  [algorithm] labels the
    solution (default ["mcf"]).
    @raise Invalid_argument if a routing path does not connect the
    flow's endpoints. *)

val find_rate : Solution.t -> int -> float option
(** Alias of {!Solution.find_rate}, kept for callers reading Algorithm 1
    results. *)

