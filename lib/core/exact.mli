(** Exact DCFSR on small instances, by exhaustion over routings.

    Given the routes, optimal scheduling is DCFS, solved exactly by
    Most-Critical-First (Corollary 1); so the DCFSR optimum under the
    virtual-circuit model is the minimum of Most-Critical-First over all
    routing combinations.  Exponential, of course — Theorem 2 says no
    better is possible — but fine as ground truth for approximation
    tests on gadget-sized instances.

    The entry point is {!search}; its solution is [(search inst).best].
    A wall-clock budget reaches it as the calling domain's ambient
    {!Dcn_engine.Deadline}. *)

type result = {
  energy : float;
  routing : (int * Dcn_topology.Graph.link list) list;  (** flow id -> best path *)
  best : Solution.t;
  combinations : int;  (** routing combinations explored *)
}

val search : ?max_hops:int -> ?max_combinations:int -> Instance.t -> result
(** Enumerates every simple path per flow (up to [max_hops], default 8)
    and every combination (up to [max_combinations], default 50_000),
    polling the ambient deadline once per combination.
    @raise Invalid_argument if a flow has no path within [max_hops] or
    the product of path counts exceeds the budget. *)
