(* Regression pins: headline numbers of the reproduction, asserted with
   loose tolerances so refactors that change algorithmic behaviour (as
   opposed to cosmetics) fail loudly.  All runs are deterministic. *)

module Builders = Dcn_topology.Builders
module Flow = Dcn_flow.Flow
module Model = Dcn_power.Model
module Prng = Dcn_util.Prng
open Dcn_core

let close ?(tol = 0.05) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.4f within %g of %.4f" name actual tol expected)
    true
    (Float.abs (actual -. expected) /. Float.max 1e-9 (Float.abs expected) <= tol)

let example1 () =
  let graph = Builders.line 3 in
  let f1 = Flow.make ~id:1 ~src:0 ~dst:2 ~volume:6. ~release:2. ~deadline:4. in
  let f2 = Flow.make ~id:2 ~src:0 ~dst:1 ~volume:8. ~release:1. ~deadline:3. in
  Instance.make ~graph ~power:Model.quadratic ~flows:[ f1; f2 ]

let test_example1_numbers () =
  let inst = example1 () in
  (* Phi* = (8 + 6 sqrt 2)^2 / 3 = 90.58816732927… *)
  close ~tol:1e-9 "DCFS optimum"
    (((8. +. (6. *. sqrt 2.)) ** 2.) /. 3.)
    (Baselines.sp_mcf inst).Solution.energy;
  let rng = Prng.create 42 in
  let rs = Random_schedule.solve ~rng inst in
  close ~tol:1e-6 "RS interval-density energy" 92. rs.Solution.energy

let test_gadget_numbers () =
  let rng = Prng.create 3 in
  let tp = Gadgets.solvable_three_partition ~m:2 ~b:20 ~rng in
  close ~tol:1e-9 "Theorem 2 closed form" 1600. (Gadgets.three_partition_opt_energy tp);
  let p = Gadgets.make_partition ~integers:[ 3; 4; 5; 3; 4; 5 ] in
  close ~tol:1e-9 "Theorem 3 yes energy" 576. (Gadgets.partition_yes_energy p);
  close ~tol:1e-9 "Theorem 3 ratio" (13. /. 12.) (Gadgets.inapprox_ratio ~alpha:2.)

(* The Figure-2 shape on the quick configuration: RS/LB decreasing,
   SP+MCF/LB increasing, RS below SP at every point. *)
let test_fig2_quick_shape () =
  let params =
    {
      (Dcn_experiments.Fig2.quick_params ~alpha:2.) with
      Dcn_experiments.Fig2.seeds = [ 1001; 1002; 1003 ];
    }
  in
  let res = Dcn_experiments.Fig2.run params in
  let pts = Array.of_list res.Dcn_experiments.Fig2.points in
  Alcotest.(check int) "three points" 3 (Array.length pts);
  Array.iter
    (fun (p : Dcn_experiments.Fig2.point) ->
      Alcotest.(check bool) "RS below SP" true (p.rs < p.sp_mcf);
      Alcotest.(check bool) "deadlines" true p.rs_deadlines_met)
    pts;
  Alcotest.(check bool) "RS converging" true
    (pts.(2).Dcn_experiments.Fig2.rs <= pts.(0).Dcn_experiments.Fig2.rs +. 0.02);
  Alcotest.(check bool) "SP growing" true
    (pts.(2).Dcn_experiments.Fig2.sp_mcf >= pts.(0).Dcn_experiments.Fig2.sp_mcf -. 0.02);
  (* Loose pins on the actual values (seeded, deterministic). *)
  close ~tol:0.1 "RS/LB at n=20" 1.551 pts.(0).Dcn_experiments.Fig2.rs;
  close ~tol:0.1 "SP/LB at n=60" 1.858 pts.(2).Dcn_experiments.Fig2.sp_mcf

let test_splitting_monotone () =
  let rows = Dcn_experiments.Ablation.splitting ~parts:[ 1; 8 ] () in
  match rows with
  | [ one; eight ] ->
    Alcotest.(check bool) "8-way split strictly better" true
      (eight.Dcn_experiments.Ablation.rs_over_lb
      < one.Dcn_experiments.Ablation.rs_over_lb);
    close ~tol:0.1 "split-8 near LB" 1.06 eight.Dcn_experiments.Ablation.rs_over_lb
  | _ -> Alcotest.fail "unexpected rows"

let suite =
  [
    ( "regression",
      [
        Alcotest.test_case "Example 1 energies" `Quick test_example1_numbers;
        Alcotest.test_case "gadget closed forms" `Quick test_gadget_numbers;
        Alcotest.test_case "fig2 quick shape" `Slow test_fig2_quick_shape;
        Alcotest.test_case "splitting monotone" `Slow test_splitting_monotone;
      ] );
  ]
