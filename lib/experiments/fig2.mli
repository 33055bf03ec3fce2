(** Experiment E1/E2: reproduction of Figure 2 of the paper.

    Setup (Section V-C): a DCN of 80 switches with 128 servers (a k = 8
    fat-tree), horizon [\[1, 100\]], flow spans uniform over the horizon,
    volumes from N(10, 3), power function [x^alpha] for
    [alpha in {2, 4}], flow counts 40–200.  Three quantities, normalised
    by the fractional lower bound and averaged over seeds:

    - LB: the fractional relaxation (= 1 after normalisation);
    - SP+MCF: shortest-path routing + Most-Critical-First;
    - RS: Random-Schedule.

    Expected shape (paper's Figure 2): RS close to LB and converging as
    the number of flows grows; SP+MCF above RS and increasing; both
    effects stronger for [alpha = 4]. *)

type params = {
  alpha : float;
  fat_tree_k : int;  (** 8 = the paper's network *)
  flow_counts : int list;
  seeds : int list;
}
(** Every cell runs with [sigma = 0], as in the paper's Figure 2 (pure
    speed scaling), and Random-Schedule draws up to 20 paths under
    {!experiment_fw_config}. *)

val experiment_fw_config : Dcn_mcf.Frank_wolfe.config
(** Frank–Wolfe settings used across experiments: 40 iterations,
    relative gap target 1e-3 — calibrated so a k = 8 fat-tree interval
    solves in well under a second at ~1% optimality. *)

val default_params : alpha:float -> params
(** The paper's setting: k = 8, counts [40; 80; 120; 160; 200], ten
    seeds. *)

val quick_params : alpha:float -> params
(** Smaller network (k = 4), counts up to 60, three seeds — for smoke
    benches and CI.  (At k = 4 the network has only 16 hosts; beyond
    ~60 long-lived flows the virtual-circuit baseline saturates, which
    is interesting but not Figure 2's regime.) *)

type point = {
  n : int;
  lb : float;  (** mean absolute LB energy *)
  sp_mcf : float;  (** mean normalised SP+MCF energy (>= 1 nominally) *)
  rs : float;  (** mean normalised RS energy *)
  rs_refined : float;  (** ablation: RS routing + Most-Critical-First rates *)
  sp_mcf_sd : float;
  rs_sd : float;
  rs_all_feasible : bool;
  rs_deadlines_met : bool;  (** Theorem 4 check through the fluid simulator *)
}

type result = { params : params; points : point list }

val run :
  ?progress:(string -> unit) -> ?pool:Dcn_engine.Pool.t -> params -> result
(** [pool] fans the seeds × flow-counts cross product across worker
    domains; every cell derives its PRNG from its own seed, so the
    result is bit-identical for every pool size.  [progress] may then be
    called from worker domains, out of order. *)

val render : result -> string
(** The figure as a text table (one row per flow count). *)

val to_csv : result -> string
(** Machine-readable form (header + one row per flow count) for
    external plotting: alpha, sigma, k, seeds, n, lb, rs, rs_sd, sp_mcf,
    sp_mcf_sd, rs_refined. *)

val to_json : result -> Dcn_engine.Json.t
(** The series as JSON: [{params, points: [{n, lb, rs_over_lb, ...}]}]
    — the [fig2] section of CLI/bench [--report] files. *)
