type t = { sigma : float; mu : float; alpha : float; cap : float }

let make ~sigma ~mu ~alpha ?(cap = infinity) () =
  if sigma < 0. || not (Dcn_util.Approx.is_finite sigma) then
    invalid_arg "Model.make: sigma must be finite and >= 0";
  if not (mu > 0.) || not (Dcn_util.Approx.is_finite mu) then
    invalid_arg "Model.make: mu must be finite and > 0";
  if not (alpha > 1.) || not (Dcn_util.Approx.is_finite alpha) then
    invalid_arg "Model.make: alpha must be finite and > 1";
  if not (cap > 0.) then invalid_arg "Model.make: cap must be > 0";
  { sigma; mu; alpha; cap }

let quadratic = make ~sigma:0. ~mu:1. ~alpha:2. ()
let quartic = make ~sigma:0. ~mu:1. ~alpha:4. ()

let paper_default ~alpha =
  let r = 10. in
  make ~sigma:((alpha -. 1.) *. (r ** alpha)) ~mu:1. ~alpha ()

(* The cap is a scheduling constraint, not a domain limit: energy of an
   overloaded (infeasible) schedule must still be computable, so only
   negative rates are rejected here. *)
let check_rate _m x = if x < 0. then invalid_arg "Model: negative rate"

(* At alpha = 2 (the serving model) the power law is squared exactly,
   [x *. x] instead of libm's [pow], which the kernel's inlined closed
   form copies (see [Frank_wolfe.kernel_cost]); every other exponent keeps
   [**]. *)
let dynamic m x =
  check_rate m x;
  if m.alpha = 2. then m.mu *. (x *. x) else m.mu *. (x ** m.alpha)

let total m x = if x = 0. then 0. else m.sigma +. dynamic m x

let dynamic_deriv m x =
  check_rate m x;
  if m.alpha = 2. then m.alpha *. m.mu *. x
  else m.alpha *. m.mu *. (x ** (m.alpha -. 1.))

let power_rate m x =
  if x <= 0. then invalid_arg "Model.power_rate: rate must be > 0";
  total m x /. x

let r_opt m = (m.sigma /. (m.mu *. (m.alpha -. 1.))) ** (1. /. m.alpha)

let r_hat m = Float.min (r_opt m) m.cap

let envelope m x =
  check_rate m x;
  if x = 0. then 0.
  else
    let r = r_hat m in
    if r = 0. (* sigma = 0: f itself is convex on (0, cap] *) then dynamic m x
    else if x <= r then x *. power_rate m r
    else total m x

let envelope_deriv m x =
  check_rate m x;
  let r = r_hat m in
  if r = 0. then dynamic_deriv m x
  else if x <= r then power_rate m r
  else dynamic_deriv m x

let energy m ~rate ~duration =
  if duration < 0. then invalid_arg "Model.energy: negative duration";
  total m rate *. duration

let pp ppf m =
  Format.fprintf ppf "f(x) = %g + %g x^%g (cap %g)" m.sigma m.mu m.alpha m.cap
