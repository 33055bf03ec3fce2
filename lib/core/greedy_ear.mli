(** Greedy energy-aware routing — an online-capable competitor.

    The energy-aware-routing line of work the paper compares against
    (Shang et al. [2], GreenDCN [5]) routes flows one at a time on the
    path that increases energy the least.  This module implements that
    greedy for the paper's model: flows are processed in release order
    (so the algorithm never looks at flows that have not arrived — it
    can run online); each flow picks the path minimising the marginal
    increase of [sum over k of |I_k| * f(X_e(k))] where [X_e(k)] are the
    interval link loads of the flows already routed, all transmitting at
    their densities.  Scheduling is the same interval-density scheme as
    Random-Schedule, so deadlines are met by the Theorem 4 argument.

    Against Random-Schedule it isolates the value of the fractional
    relaxation: both spread load energy-aware, but the greedy commits
    per flow with no global view and no randomisation.

    Callers call {!solve} directly; it polls the calling domain's
    ambient {!Dcn_engine.Deadline} once per routed flow. *)

val name : string
(** ["greedy-ear"] *)

val solve : Instance.t -> Solution.t
(** Deterministic (ties broken by Dijkstra's fixed order).  [meta] is
    {!Solution.Routed} with every flow accepted; [feasible] reports
    whether the greedy's loads happen to respect link capacity (it is
    not capacity-aware).
    @raise Invalid_argument if some flow's endpoints are disconnected. *)
