(* Integration tests for Dcn_experiments: tiny end-to-end runs of the
   figure/gadget/ablation harnesses, asserting the structural
   properties the paper's evaluation relies on. *)

module Fig2 = Dcn_experiments.Fig2
module Gadget_runs = Dcn_experiments.Gadget_runs
module Ablation = Dcn_experiments.Ablation
module Small_exact = Dcn_experiments.Small_exact

let contains = Test_util.contains

let micro_params =
  {
    (Fig2.quick_params ~alpha:2.) with
    Fig2.flow_counts = [ 10 ];
    seeds = [ 1001; 1002 ];
  }

let test_fig2_micro () =
  let res = Fig2.run micro_params in
  match res.Fig2.points with
  | [ p ] ->
    Alcotest.(check int) "n" 10 p.Fig2.n;
    Alcotest.(check bool) "lb positive" true (p.Fig2.lb > 0.);
    (* Normalised energies are at least 1 (the LB is a lower bound for
       both schedule styles). *)
    Alcotest.(check bool) "rs >= 1" true (p.Fig2.rs >= 1. -. 1e-6);
    Alcotest.(check bool) "sp >= 1" true (p.Fig2.sp_mcf >= 1. -. 1e-6);
    Alcotest.(check bool) "rs feasible" true p.Fig2.rs_all_feasible;
    Alcotest.(check bool) "deadlines" true p.Fig2.rs_deadlines_met
  | _ -> Alcotest.fail "expected one point"

let test_fig2_render () =
  let res = Fig2.run micro_params in
  let s = Fig2.render res in
  Alcotest.(check bool) "mentions RS" true (contains s "RS/LB");
  Alcotest.(check bool) "mentions SP" true (contains s "SP+MCF/LB");
  Alcotest.(check bool) "row present" true (contains s "10")

let test_fig2_deterministic () =
  let r1 = Fig2.run micro_params and r2 = Fig2.run micro_params in
  Alcotest.(check bool) "same points" true (r1.Fig2.points = r2.Fig2.points)

let test_gadget_three_partition () =
  let r = Gadget_runs.three_partition () in
  Alcotest.(check (float 1e-6)) "exact = closed form" r.Gadget_runs.closed_form
    r.Gadget_runs.exact;
  Alcotest.(check bool) "rs >= opt" true (r.Gadget_runs.rs_over_opt >= 1. -. 1e-6);
  Alcotest.(check bool) "render" true
    (contains (Gadget_runs.render_three_partition r) "closed form")

let test_gadget_partition () =
  let r = Gadget_runs.partition () in
  Alcotest.(check (float 1e-6)) "exact = yes energy" r.Gadget_runs.yes_energy
    r.Gadget_runs.exact;
  Alcotest.(check (float 1e-9)) "ratio formula" (13. /. 12.) r.Gadget_runs.inapprox_ratio

let test_ablation_power_down () =
  let rows = Ablation.power_down ~n:20 ~sigmas:[ 0.; 50. ] () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Ablation.power_down_row) ->
      Alcotest.(check bool) "idle <= total (rs)" true (r.rs_idle <= r.rs_energy +. 1e-9);
      Alcotest.(check bool) "idle <= total (sp)" true (r.sp_idle <= r.sp_energy +. 1e-9);
      Alcotest.(check bool) "links positive" true
        (r.rs_active_links > 0 && r.sp_active_links > 0))
    rows;
  (match rows with
  | [ zero; fifty ] ->
    Alcotest.(check (float 1e-9)) "sigma 0 -> no idle energy" 0. zero.Ablation.rs_idle;
    Alcotest.(check bool) "sigma 50 -> idle energy appears" true
      (fifty.Ablation.rs_idle > 0.)
  | _ -> Alcotest.fail "unexpected rows");
  Alcotest.(check bool) "render" true
    (contains (Ablation.render_power_down rows) "sigma")

let test_ablation_capacity () =
  let rows = Ablation.capacity_stress ~n:10 ~caps:[ infinity; 1e-3 ] () in
  (match rows with
  | [ unlimited; tiny ] ->
    Alcotest.(check bool) "unlimited feasible" true unlimited.Ablation.feasible;
    Alcotest.(check bool) "tiny cap infeasible" false tiny.Ablation.feasible;
    Alcotest.(check bool) "tiny cap exhausted attempts" true
      (tiny.Ablation.attempts_used > 1)
  | _ -> Alcotest.fail "unexpected rows");
  Alcotest.(check bool) "render" true
    (contains (Ablation.render_capacity rows) "capacity")

let test_ablation_refinement () =
  let rows = Ablation.refinement ~seeds:[ 21 ] ~ns:[ 10 ] () in
  (match rows with
  | [ r ] ->
    Alcotest.(check bool) "ratios >= 1" true
      (r.Ablation.rs_over_lb >= 1. -. 1e-6 && r.Ablation.refined_over_lb > 0.)
  | _ -> Alcotest.fail "unexpected rows");
  Alcotest.(check bool) "render" true
    (contains (Ablation.render_refinement rows) "gain")

let test_ablation_routing () =
  let rows = Ablation.routing_comparison ~seeds:[ 31 ] ~ns:[ 10 ] () in
  (match rows with
  | [ r ] ->
    Alcotest.(check bool) "all above LB" true
      (r.Ablation.sp_over_lb >= 1. -. 1e-6
      && r.Ablation.ecmp_over_lb >= 1. -. 1e-6
      && r.Ablation.rs_routing_over_lb >= 1. -. 1e-6)
  | _ -> Alcotest.fail "unexpected rows");
  Alcotest.(check bool) "render" true
    (contains (Ablation.render_routing rows) "ECMP")

let test_trace_eval () =
  let rows = Dcn_experiments.Trace_eval.run ~horizon:30. ~loads:[ 1. ] () in
  (match rows with
  | [ r ] ->
    Alcotest.(check bool) "flows generated" true (r.Dcn_experiments.Trace_eval.n_flows > 0);
    Alcotest.(check bool) "all above LB" true
      (r.Dcn_experiments.Trace_eval.sp >= 1. -. 1e-6
      && r.Dcn_experiments.Trace_eval.rs >= 1. -. 1e-6);
    Alcotest.(check bool) "deadlines" true r.Dcn_experiments.Trace_eval.deadlines_met
  | _ -> Alcotest.fail "unexpected rows");
  Alcotest.(check bool) "render" true
    (contains (Dcn_experiments.Trace_eval.render rows) "load")

let test_bounds_check () =
  let rows = Dcn_experiments.Bounds_check.run ~ns:[ 10 ] () in
  (match rows with
  | [ r ] ->
    Alcotest.(check bool) "theorem6 dominates measured" true
      (r.Dcn_experiments.Bounds_check.theorem6_term
      > r.Dcn_experiments.Bounds_check.measured)
  | _ -> Alcotest.fail "unexpected rows");
  Alcotest.(check bool) "render" true
    (contains (Dcn_experiments.Bounds_check.render rows) "Thm 6")

let test_ablation_split_and_rates () =
  let split = Ablation.splitting ~n:8 ~parts:[ 1; 4 ] () in
  (match split with
  | [ one; four ] ->
    Alcotest.(check bool) "splitting helps (or at least not hurts)" true
      (four.Ablation.rs_over_lb <= one.Ablation.rs_over_lb +. 0.05)
  | _ -> Alcotest.fail "unexpected rows");
  let rates = Ablation.rate_levels ~n:8 ~counts:[ 2; 8 ] () in
  (match rates with
  | [ coarse; fine ] ->
    Alcotest.(check bool) "finer ladder cheaper" true
      (fine.Ablation.hold_overhead <= coarse.Ablation.hold_overhead +. 1e-9);
    Alcotest.(check bool) "overheads at least 1" true
      (fine.Ablation.work_overhead >= 1. -. 1e-6)
  | _ -> Alcotest.fail "unexpected rows")

let test_ablation_admission () =
  let rows = Ablation.admission ~loads:[ 0.5; 6. ] () in
  (match rows with
  | [ light; heavy ] ->
    Alcotest.(check bool) "acceptance within [0,1]" true
      (light.Ablation.acceptance <= 1. && heavy.Ablation.acceptance >= 0.);
    Alcotest.(check bool) "heavier load, lower acceptance" true
      (heavy.Ablation.acceptance <= light.Ablation.acceptance +. 1e-9)
  | _ -> Alcotest.fail "unexpected rows");
  Alcotest.(check bool) "render" true
    (contains (Ablation.render_admission rows) "acceptance")

let test_ablation_lb_tightness () =
  let rows = Ablation.lb_tightness ~seeds:[ 41 ] ~ns:[ 8 ] () in
  (match rows with
  | [ r ] ->
    Alcotest.(check bool) "paper lb >= joint lb" true
      (r.Ablation.overstatement >= 1. -. 0.02)
  | _ -> Alcotest.fail "unexpected rows");
  Alcotest.(check bool) "render" true
    (contains (Ablation.render_lb rows) "joint")

let test_small_exact () =
  let rows = Small_exact.run ~seeds:[ 1; 2 ] () in
  List.iter
    (fun (r : Small_exact.row) ->
      Alcotest.(check bool) "ratio >= 1" true (r.ratio >= 1. -. 1e-6))
    rows;
  Alcotest.(check bool) "render" true (contains (Small_exact.render rows) "RS/OPT")

(* ------------------------------------------------------------------ *)
(* CSV export (group more/misc)                                       *)
(* ------------------------------------------------------------------ *)

let test_fig2_csv () =
  let params =
    { (Fig2.quick_params ~alpha:2.) with Fig2.flow_counts = [ 8 ]; seeds = [ 1001 ] }
  in
  let csv = Fig2.to_csv (Fig2.run params) in
  Alcotest.(check bool) "header" true (contains csv "alpha,sigma,k,seeds,n,lb,rs");
  Alcotest.(check int) "two lines" 2
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)))

let suite =
  [
    ( "experiments",
      [
        Alcotest.test_case "fig2 micro" `Slow test_fig2_micro;
        Alcotest.test_case "fig2 render" `Slow test_fig2_render;
        Alcotest.test_case "fig2 deterministic" `Slow test_fig2_deterministic;
        Alcotest.test_case "gadget 3-partition" `Quick test_gadget_three_partition;
        Alcotest.test_case "gadget partition" `Quick test_gadget_partition;
        Alcotest.test_case "ablation power-down" `Slow test_ablation_power_down;
        Alcotest.test_case "ablation capacity" `Slow test_ablation_capacity;
        Alcotest.test_case "ablation refinement" `Slow test_ablation_refinement;
        Alcotest.test_case "ablation routing" `Slow test_ablation_routing;
        Alcotest.test_case "small exact" `Slow test_small_exact;
        Alcotest.test_case "trace eval" `Slow test_trace_eval;
        Alcotest.test_case "ablation split+rates" `Slow test_ablation_split_and_rates;
        Alcotest.test_case "ablation admission" `Slow test_ablation_admission;
        Alcotest.test_case "ablation lb tightness" `Slow test_ablation_lb_tightness;
        Alcotest.test_case "bounds check" `Slow test_bounds_check;
      ] );
  ]

let more_misc = [ Alcotest.test_case "fig2 csv" `Slow test_fig2_csv ]
