(** The joint (volume-coupled) fractional relaxation.

    The paper's LB fixes every flow's per-interval demand to its density
    [D_i] ("the smallest transmission rate for each flow").  A true
    schedule, however, may shift volume between the intervals of its
    span.  This module solves the *joint* convex relaxation

    {v
      minimise   sum over k of |I_k| * sum over e of f̂(x_e(k))
      subject to x_e(k) = sum over i of u_(i,e)(k) / |I_k|
                 per interval, u_(i,·)(k) routes v_(i,k) from src to dst
                 sum over k in span(i) of v_(i,k) = w_i,   v >= 0
    v}

    by Frank–Wolfe whose linearised subproblem picks, per flow, the
    single cheapest (interval, path) pair for the whole volume.  Its
    certified optimum is a lower bound on the per-interval-density LB
    (strictly more freedom), so comparing the two quantifies how much
    the paper's normaliser overstates the true floor. *)

type t = {
  cost : float;  (** achieved objective *)
  lb : float;  (** certified: cost - duality gap *)
  gap : float;
  iterations : int;
}

val solve : ?max_iters:int -> ?gap_tol:float -> Instance.t -> t
(** Defaults: 60 iterations, relative gap 1e-3.  Each step's line
    search is {!Dcn_mcf.Frank_wolfe.exact_step}. *)
