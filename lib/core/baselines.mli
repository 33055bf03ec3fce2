(** Baselines of the paper's evaluation (Section V-C).

    SP+MCF — "Shortest-Path routing plus Most-Critical-First" — is the
    paper's stand-in for how data centers route today: fix hop-count
    shortest paths, then schedule optimally on them.  Its energy is "the
    lower bound of the energy consumption by SP routing".  Both
    baselines are plain functions of the instance ({!sp_mcf},
    {!ecmp_mcf}); they have no loop that polls a deadline. *)

val shortest_path_routing : Instance.t -> int -> Dcn_topology.Graph.link list
(** Deterministic hop-count shortest path per flow id (one Dijkstra per
    distinct source).  @raise Invalid_argument if some flow's endpoints
    are disconnected; @raise Not_found for an unknown id. *)

val sp_mcf : Instance.t -> Solution.t
(** Shortest-path routing followed by Most-Critical-First. *)

val ecmp_routing :
  ?fanout:int ->
  rng:Dcn_util.Prng.t ->
  Instance.t ->
  int ->
  Dcn_topology.Graph.link list
(** Equal-cost multi-path style routing: each flow picks uniformly among
    its minimum-hop paths (up to [fanout] candidates per flow, default
    16, found by Yen's algorithm) — the oblivious load balancing data
    centers deploy today, as a second point of comparison between
    deterministic shortest paths and the paper's optimised routing. *)

val ecmp_mcf : ?fanout:int -> rng:Dcn_util.Prng.t -> Instance.t -> Solution.t
(** ECMP routing followed by Most-Critical-First. *)
