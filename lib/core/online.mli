(** Online arrival with admission control.

    The deadline-flow systems the paper builds on (D3, D2TCP, PDQ)
    operate online: a flow reveals itself at its release time and the
    network must either guarantee its deadline or reject it up front.
    This module processes flows in release order over a
    capacity-limited network: each flow is routed on the cheapest
    marginal-energy path among those that can absorb its density in
    every interval of its span without breaching the link capacity;
    if no such path exists the flow is rejected (better never than
    late).  Accepted flows transmit at their densities, so all accepted
    deadlines are met (Theorem 4 reasoning) and the capacity constraint
    holds by construction.

    Callers call {!solve} directly; it polls the calling domain's
    ambient {!Dcn_engine.Deadline} once per arrival. *)

val solve : Instance.t -> Solution.t
(** Deterministic, labelled ["online"].  The schedule,
    [per_flow_rates] and [Routed.paths] cover accepted flows only;
    [Solution.rejected] lists the declined ids and [feasible] means
    nothing was rejected (capacity always holds by construction).  With
    infinite capacity nothing is rejected and the result coincides with
    {!Greedy_ear}. *)
