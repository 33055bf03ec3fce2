(** Tolerant floating-point comparisons.

    Schedules and energies are produced by iterative numeric algorithms,
    so exact equality is meaningless; every feasibility check in the
    project compares through these helpers with an explicit tolerance. *)

val equal : ?eps:float -> float -> float -> bool
(** Absolute-difference equality; [eps] defaults to [1e-9], as in
    {!leq} and {!geq}. *)

val close_rel : ?rtol:float -> float -> float -> bool
(** Relative closeness: [|a - b| <= rtol * max(1, |a|, |b|)].
    [rtol] defaults to [1e-6]. *)

val leq : ?eps:float -> float -> float -> bool
(** [a <= b + eps]. *)

val geq : ?eps:float -> float -> float -> bool
(** [a >= b - eps]. *)

val clamp : lo:float -> hi:float -> float -> float
(** Restrict to [\[lo, hi\]].  @raise Invalid_argument if [hi < lo]. *)

val is_finite : float -> bool
