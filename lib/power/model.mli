(** The link power model of the paper (Eq. 1).

    A directed link transmitting at rate [x] draws

    {v
      f(x) = 0                        if x = 0
      f(x) = sigma + mu * x^alpha     if 0 < x <= cap
    v}

    combining power-down ([sigma], idle/chassis share that disappears only
    if the link carries no traffic over the whole horizon) and speed
    scaling ([mu * x^alpha], [alpha > 1]).  All links of a network are
    identical (commodity switches), so one [t] describes the whole
    network. *)

type t = private {
  sigma : float;  (** idle power, >= 0 *)
  mu : float;  (** dynamic-power coefficient, > 0 *)
  alpha : float;  (** superadditivity exponent, > 1 *)
  cap : float;  (** maximum transmission rate [C], > 0 *)
}

val make : sigma:float -> mu:float -> alpha:float -> ?cap:float -> unit -> t
(** [cap] defaults to [infinity] (the paper's numerical section does not
    bind it).  @raise Invalid_argument on out-of-range parameters. *)

val quadratic : t
(** [f(x) = x^2], no idle power, no cap — Example 1 / the [x^2] curve of
    Figure 2. *)

val quartic : t
(** [f(x) = x^4] — the second power function of Figure 2. *)

val paper_default : alpha:float -> t
(** Power function used by the Figure 2 experiments: [mu = 1], the given
    [alpha], and [sigma] chosen so that the optimal operating rate
    {!r_opt} equals the mean flow density scale of the paper's workload
    (sigma = mu (alpha - 1) R^alpha with R = 10, the mean flow volume
    over a unit of time), making the power-down/speed-scaling trade-off
    non-trivial exactly as in Lemma 3 and the Theorem 2 gadget. *)

val total : t -> float -> float
(** [total m x] is [f(x)]: 0 at rate 0, [sigma + mu x^alpha] otherwise.
    Rates above [cap] are evaluated by the same formula (capacity is a
    scheduling constraint enforced elsewhere, so the energy of an
    infeasible schedule is still well-defined).
    @raise Invalid_argument if [x < 0]. *)

val dynamic : t -> float -> float
(** [g(x) = mu * x^alpha] — the speed-scaling part only (used by DCFS
    where the active link set is fixed, Section III-A).  At [alpha = 2]
    it is [mu *. (x *. x)], exactly; any other [alpha] goes through
    [**]. *)

val dynamic_deriv : t -> float -> float
(** [g'(x) = alpha * mu * x^(alpha-1)]: [alpha *. mu *. x] at
    [alpha = 2], through [**] otherwise.  {!envelope}, {!envelope_deriv},
    {!total} and {!power_rate} share both rules. *)

val power_rate : t -> float -> float
(** [f(x)/x], energy per unit of traffic (Definition 3).
    @raise Invalid_argument if [x <= 0]. *)

val r_opt : t -> float
(** The rate minimising the power rate, [ (sigma / (mu (alpha-1)))^(1/alpha) ]
    (Lemma 3) — not clamped to [cap]. *)

val r_hat : t -> float
(** [min r_opt cap]: the best rate actually achievable. *)

val envelope : t -> float -> float
(** Lower convex envelope of [f] on [\[0, cap\]]: linear with slope
    [f(r_hat)/r_hat] up to [r_hat], then equal to [f].  Pointwise
    [<= f]; convex; used as the objective of the fractional relaxation
    and the LB series.  When [r_opt <= cap] the envelope is C^1 (the
    slopes match at [r_opt]: both equal [alpha mu r_opt^(alpha-1)]). *)

val envelope_deriv : t -> float -> float
(** Derivative of {!envelope} (right derivative at the kink). *)

val energy : t -> rate:float -> duration:float -> float
(** [f(rate) * duration]. *)

val pp : Format.formatter -> t -> unit
