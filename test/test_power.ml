(* Tests for Dcn_power.Model: the paper's Eq. (1) power function, the
   optimal operating rate of Lemma 3, and the convex envelope used by
   the fractional relaxation. *)

open Dcn_power

let check_float = Alcotest.(check (float 1e-9))

let test_total_zero_is_free () =
  let m = Model.make ~sigma:5. ~mu:2. ~alpha:3. () in
  check_float "f(0) = 0" 0. (Model.total m 0.);
  check_float "f(2) = 5 + 2*8" 21. (Model.total m 2.)

let test_quadratic () =
  check_float "x^2" 9. (Model.total Model.quadratic 3.);
  check_float "g" 9. (Model.dynamic Model.quadratic 3.);
  check_float "g'" 6. (Model.dynamic_deriv Model.quadratic 3.)

let test_quartic () = check_float "x^4" 16. (Model.total Model.quartic 2.)

let test_invalid_params () =
  let expect_invalid f = Alcotest.(check bool) "invalid" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  expect_invalid (fun () -> Model.make ~sigma:(-1.) ~mu:1. ~alpha:2. ());
  expect_invalid (fun () -> Model.make ~sigma:0. ~mu:0. ~alpha:2. ());
  expect_invalid (fun () -> Model.make ~sigma:0. ~mu:1. ~alpha:1. ());
  expect_invalid (fun () -> Model.make ~sigma:0. ~mu:1. ~alpha:2. ~cap:0. ());
  expect_invalid (fun () -> Model.total Model.quadratic (-1.));
  (* Above-cap rates evaluate (capacity is checked by schedulers). *)
  check_float "above cap still evaluates" 4.
    (Model.total (Model.make ~sigma:0. ~mu:1. ~alpha:2. ~cap:1. ()) 2.)

let test_r_opt_lemma3 () =
  (* Lemma 3: R_opt = (sigma / (mu (alpha-1)))^(1/alpha).  Check that it
     indeed minimises the power rate. *)
  let m = Model.make ~sigma:8. ~mu:2. ~alpha:2. () in
  check_float "closed form" 2. (Model.r_opt m);
  let at = Model.power_rate m (Model.r_opt m) in
  List.iter
    (fun x ->
      Alcotest.(check bool)
        (Printf.sprintf "power rate minimal at r_opt vs %g" x)
        true
        (at <= Model.power_rate m x +. 1e-9))
    [ 0.5; 1.; 1.9; 2.1; 3.; 10. ]

let test_r_opt_theorem2_parameters () =
  (* Theorem 2 sets sigma = mu (alpha - 1) B^alpha so that R_opt = B. *)
  let b = 7. and alpha = 3. and mu = 2. in
  let m = Model.make ~sigma:(mu *. (alpha -. 1.) *. (b ** alpha)) ~mu ~alpha () in
  check_float "r_opt = B" b (Model.r_opt m)

let test_r_hat_cap () =
  let m = Model.make ~sigma:8. ~mu:2. ~alpha:2. ~cap:1.5 () in
  check_float "clamped" 1.5 (Model.r_hat m)

let test_envelope_below_f () =
  let m = Model.make ~sigma:4. ~mu:1. ~alpha:2. () in
  (* r_opt = 2. *)
  List.iter
    (fun x ->
      Alcotest.(check bool)
        (Printf.sprintf "envelope <= f at %g" x)
        true
        (Model.envelope m x <= Model.total m x +. 1e-9))
    [ 0.1; 0.5; 1.; 1.99; 2.; 2.01; 5.; 50. ]

let test_envelope_linear_then_equal () =
  let m = Model.make ~sigma:4. ~mu:1. ~alpha:2. () in
  (* Below r_opt = 2 the envelope is linear with slope f(2)/2 = 4. *)
  check_float "linear part" 4. (Model.envelope m 1.);
  check_float "equal past kink" (Model.total m 3.) (Model.envelope m 3.);
  check_float "zero at zero" 0. (Model.envelope m 0.)

let test_envelope_smooth_at_kink () =
  (* When r_opt <= cap the envelope is C^1: slope f(r)/r equals
     alpha mu r^(alpha-1) at r = r_opt. *)
  let m = Model.make ~sigma:4. ~mu:1. ~alpha:2. () in
  let r = Model.r_opt m in
  check_float "left slope = right slope" (Model.envelope_deriv m (r /. 2.))
    (Model.dynamic_deriv m r)

let test_envelope_sigma_zero () =
  (* With sigma = 0, f itself is convex: envelope = f. *)
  let m = Model.quadratic in
  List.iter
    (fun x -> check_float "envelope = f" (Model.total m x) (Model.envelope m x))
    [ 0.; 0.5; 1.; 7. ]

let test_envelope_convexity () =
  (* Midpoint convexity sampled on a grid. *)
  let m = Model.make ~sigma:10. ~mu:0.5 ~alpha:3. () in
  let pts = [ 0.; 0.5; 1.; 1.5; 2.; 3.; 4.; 6.; 9. ] in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let mid = Model.envelope m ((x +. y) /. 2.) in
          let avg = (Model.envelope m x +. Model.envelope m y) /. 2. in
          Alcotest.(check bool) "midpoint convex" true (mid <= avg +. 1e-9))
        pts)
    pts

let test_paper_default () =
  let m = Model.paper_default ~alpha:2. in
  check_float "r_opt = 10" 10. (Model.r_opt m);
  let m4 = Model.paper_default ~alpha:4. in
  check_float "r_opt = 10 (quartic)" 10. (Model.r_opt m4)

let test_energy () =
  let m = Model.quadratic in
  check_float "energy" 18. (Model.energy m ~rate:3. ~duration:2.)

(* --- discrete rate ladders ---------------------------------------- *)

let test_discrete_level_for () =
  let d = Model.quadratic in
  let ladder = Discrete.make d ~levels:[ 1.; 4.; 10. ] in
  Alcotest.(check (option (float 0.))) "exact hit" (Some 4.) (Discrete.level_for ladder 4.);
  Alcotest.(check (option (float 0.))) "rounds up" (Some 4.) (Discrete.level_for ladder 1.5);
  Alcotest.(check (option (float 0.))) "lowest" (Some 1.) (Discrete.level_for ladder 0.2);
  Alcotest.(check (option (float 0.))) "top" (Some 10.) (Discrete.level_for ladder 10.);
  Alcotest.(check (option (float 0.))) "above top" None (Discrete.level_for ladder 10.5);
  Alcotest.(check (option (float 0.))) "zero maps to off" None (Discrete.level_for ladder 0.)

let test_discrete_power () =
  let ladder = Discrete.make Model.quadratic ~levels:[ 2.; 8. ] in
  check_float "off" 0. (Discrete.power ladder 0.);
  check_float "rounds to 2" 4. (Discrete.power ladder 1.);
  check_float "rounds to 8" 64. (Discrete.power ladder 3.)

let test_discrete_geometric () =
  let ladder = Discrete.geometric Model.quadratic ~count:4 ~top:16. in
  Alcotest.(check (array (float 1e-9))) "ladder" [| 2.; 4.; 8.; 16. |]
    ladder.Discrete.levels

let test_discrete_invalid () =
  let invalid f = Alcotest.(check bool) "invalid" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  invalid (fun () -> Discrete.make Model.quadratic ~levels:[]);
  invalid (fun () -> Discrete.make Model.quadratic ~levels:[ 0. ]);
  invalid (fun () -> Discrete.make Model.quadratic ~levels:[ 2.; 2. ]);
  invalid (fun () -> Discrete.power (Discrete.make Model.quadratic ~levels:[ 1. ]) 2.)

(* At alpha = 2 the model squares exactly, [x *. x] rather than
   libm's [pow] (the Frank-Wolfe kernel inlines the same rule, so both
   engines evaluate the same floats); other exponents keep [**].  The
   first two rates are ones where glibc's [pow x 2.] and [x *. x]
   differ in the last bit. *)
let test_square_rule () =
  let bits_eq what want got =
    if not (Int64.equal (Int64.bits_of_float want) (Int64.bits_of_float got)) then
      Alcotest.failf "%s: got %h, want %h" what got want
  in
  let rng = Dcn_util.Prng.create 11 in
  let rates =
    [ 0x1.eec979b5edbd5p-5; 0x1.abc2b1377a4b9p+19; 0.; 1.; 0.7; 3.; 1e-300 ]
    @ List.init 200 (fun _ -> Dcn_util.Prng.float rng 20.)
  in
  List.iter
    (fun (sigma, mu) ->
      let m = Model.make ~sigma ~mu ~alpha:2. () in
      let r = Model.r_hat m in
      let slope = if r > 0. then (sigma +. (mu *. (r *. r))) /. r else 0. in
      List.iter
        (fun x ->
          let sq = mu *. (x *. x) and d = 2. *. mu *. x in
          bits_eq "dynamic" sq (Model.dynamic m x);
          bits_eq "dynamic_deriv" d (Model.dynamic_deriv m x);
          let env, env' =
            if x = 0. then (0., if r > 0. then slope else d)
            else if r = 0. then (sq, d)
            else if x <= r then (x *. slope, slope)
            else (sigma +. sq, d)
          in
          bits_eq "envelope" env (Model.envelope m x);
          bits_eq "envelope_deriv" env' (Model.envelope_deriv m x))
        rates)
    [ (0., 1.); (0., 1.5); (4., 1.); (9., 0.75) ];
  List.iter
    (fun alpha ->
      List.iter
        (fun sigma ->
          let m = Model.make ~sigma ~mu:1.5 ~alpha () in
          let r = Model.r_hat m in
          List.iter
            (fun x ->
              let g = 1.5 *. (x ** alpha) and g' = alpha *. 1.5 *. (x ** (alpha -. 1.)) in
              bits_eq "dynamic" g (Model.dynamic m x);
              bits_eq "dynamic_deriv" g' (Model.dynamic_deriv m x);
              if x > r then begin
                bits_eq "envelope" (if r = 0. then g else sigma +. g) (Model.envelope m x);
                bits_eq "envelope_deriv" g' (Model.envelope_deriv m x)
              end)
            rates)
        [ 0.; 4. ])
    [ 3.; 4. ]

let prop_envelope_below =
  QCheck.Test.make ~name:"power: envelope is a pointwise lower bound" ~count:500
    QCheck.(
      triple (float_bound_exclusive 10.) (float_bound_exclusive 5.)
        (float_bound_exclusive 20.))
    (fun (sigma, alpha_excess, x) ->
      let m = Model.make ~sigma ~mu:1. ~alpha:(1.01 +. alpha_excess) () in
      Model.envelope m x <= Model.total m x +. 1e-9)

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "power/model",
      [
        Alcotest.test_case "f(0) free" `Quick test_total_zero_is_free;
        Alcotest.test_case "quadratic" `Quick test_quadratic;
        Alcotest.test_case "quartic" `Quick test_quartic;
        Alcotest.test_case "invalid params" `Quick test_invalid_params;
        Alcotest.test_case "Lemma 3 r_opt" `Quick test_r_opt_lemma3;
        Alcotest.test_case "Theorem 2 parameters" `Quick test_r_opt_theorem2_parameters;
        Alcotest.test_case "r_hat cap" `Quick test_r_hat_cap;
        Alcotest.test_case "envelope below f" `Quick test_envelope_below_f;
        Alcotest.test_case "envelope shape" `Quick test_envelope_linear_then_equal;
        Alcotest.test_case "envelope C1 at kink" `Quick test_envelope_smooth_at_kink;
        Alcotest.test_case "envelope sigma=0" `Quick test_envelope_sigma_zero;
        Alcotest.test_case "envelope convex" `Quick test_envelope_convexity;
        Alcotest.test_case "paper default" `Quick test_paper_default;
        Alcotest.test_case "energy" `Quick test_energy;
        Alcotest.test_case "square rule" `Quick test_square_rule;
        qt prop_envelope_below;
      ] );
    ( "power/discrete",
      [
        Alcotest.test_case "level_for" `Quick test_discrete_level_for;
        Alcotest.test_case "power" `Quick test_discrete_power;
        Alcotest.test_case "geometric" `Quick test_discrete_geometric;
        Alcotest.test_case "invalid" `Quick test_discrete_invalid;
      ] );
  ]
