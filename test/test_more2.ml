(* Second batch of cross-cutting tests: higher-alpha cross-checks,
   tie-breaking, and algebraic identities the main suites don't cover. *)

module Builders = Dcn_topology.Builders
module Flow = Dcn_flow.Flow
module Model = Dcn_power.Model
module Schedule = Dcn_sched.Schedule
module Prng = Dcn_util.Prng
module Iset = Dcn_util.Interval_set
open Dcn_speed_scaling

let check_float = Alcotest.(check (float 1e-6))

(* --- YDS and (P1) at alpha <> 2 ------------------------------------- *)

let test_yds_alpha3_matches_numeric () =
  let jobs =
    [
      Job.make ~id:0 ~weight:7. ~release:0. ~deadline:3.;
      Job.make ~id:1 ~weight:4. ~release:1. ~deadline:5.;
      Job.make ~id:2 ~weight:2. ~release:4. ~deadline:6.;
    ]
  in
  let res = Yds.schedule jobs in
  let e_yds = Yds.energy ~mu:1. ~alpha:3. jobs res in
  let e_num = Numeric_ref.ssp_energy ~alpha:3. jobs in
  Alcotest.(check bool)
    (Printf.sprintf "yds %.4f vs numeric %.4f" e_yds e_num)
    true
    (e_yds <= e_num *. 1.02 && e_yds >= e_num *. 0.9)

let test_mcf_alpha4_matches_numeric () =
  let graph = Builders.line 4 in
  let power = Model.quartic in
  let rng = Prng.create 3 in
  let flows =
    List.init 3 (fun id ->
        let src = Prng.int rng 3 in
        let dst = src + 1 + Prng.int rng (3 - src) in
        let r = Prng.uniform rng ~lo:0. ~hi:5. in
        let d = r +. 1. +. Prng.uniform rng ~lo:0. ~hi:3. in
        Flow.make ~id ~src ~dst ~volume:(2. +. Prng.float rng 6.) ~release:r ~deadline:d)
  in
  let inst = Dcn_core.Instance.make ~graph ~power ~flows in
  let routing = Dcn_core.Baselines.shortest_path_routing inst in
  let res = Dcn_core.Most_critical_first.solve_routed inst ~routing in
  let reference = Numeric_ref.p1_energy ~alpha:4. inst ~routing in
  Alcotest.(check bool)
    (Printf.sprintf "mcf %.4f vs numeric %.4f"
       res.Dcn_core.Solution.energy reference)
    true
    (res.Dcn_core.Solution.energy <= reference *. 1.02
    && res.Dcn_core.Solution.energy >= reference *. 0.85)

(* Virtual-weight sanity: with alpha = 2 a 4-hop flow counts as
   sqrt 4 = 2x weight in the critical-interval competition. *)
let test_mcf_virtual_weight_effect () =
  (* Two flows with identical volume/span compete on link A->B; one
     continues over 3 more hops.  The longer flow gets the lower rate:
     s_long = delta / 4^(1/2), s_short = delta. *)
  let graph = Builders.line 5 in
  let f_short = Flow.make ~id:0 ~src:0 ~dst:1 ~volume:6. ~release:0. ~deadline:2. in
  let f_long = Flow.make ~id:1 ~src:0 ~dst:4 ~volume:6. ~release:0. ~deadline:2. in
  let inst = Dcn_core.Instance.make ~graph ~power:Model.quadratic ~flows:[ f_short; f_long ] in
  let res = Dcn_core.Baselines.sp_mcf inst in
  let rate id =
    match Dcn_core.Most_critical_first.find_rate res id with
    | Some r -> r
    | None -> Alcotest.failf "no rate recorded for flow %d" id
  in
  let s_short = rate 0 in
  let s_long = rate 1 in
  check_float "ratio = |P|^(1/alpha) = 2" 2. (s_short /. s_long)

(* --- EDF tie-breaking ------------------------------------------------ *)

let test_edf_identical_deadlines_tiebreak () =
  let tasks =
    [
      { Edf.task_id = 9; release = 0.; deadline = 4.; duration = 1. };
      { Edf.task_id = 2; release = 0.; deadline = 4.; duration = 1. };
    ]
  in
  match Edf.place ~free:[ (0., 4.) ] tasks with
  | Error _ -> Alcotest.fail "feasible"
  | Ok slots ->
    (match slots with
    | first :: _ -> Alcotest.(check int) "lower id first" 2 first.Edf.task_id
    | [] -> Alcotest.fail "no slots")

(* --- interval set pp and add_all ------------------------------------- *)

let test_iset_pp_and_add_all () =
  let s = Iset.add_all Iset.empty [ (0., 1.); (2., 3.) ] in
  let str = Format.asprintf "%a" Iset.pp s in
  Alcotest.(check bool) "prints both" true
    (String.length str > 5 && String.contains str '[')

(* --- gadgets at alpha 4 ----------------------------------------------- *)

let test_gadget_alpha4 () =
  let rng = Prng.create 15 in
  let tp = Dcn_core.Gadgets.solvable_three_partition ~m:2 ~b:20 ~rng in
  let inst = Dcn_core.Gadgets.three_partition_instance ~alpha:4. ~links:3 tp in
  let exact = (Dcn_core.Exact.search ~max_combinations:100_000 inst).Dcn_core.Exact.energy in
  check_float "Theorem 2 closed form at alpha 4"
    (Dcn_core.Gadgets.three_partition_opt_energy ~alpha:4. tp)
    exact

let test_gadget_generator_invalid () =
  let rng = Prng.create 1 in
  Alcotest.(check bool) "b too small" true
    (try ignore (Dcn_core.Gadgets.solvable_three_partition ~m:2 ~b:4 ~rng); false
     with Invalid_argument _ -> true)

(* --- exact solver bounds ---------------------------------------------- *)

let test_exact_max_hops_no_path () =
  let graph = Builders.line 5 in
  let f = Flow.make ~id:0 ~src:0 ~dst:4 ~volume:1. ~release:0. ~deadline:1. in
  let inst = Dcn_core.Instance.make ~graph ~power:Model.quadratic ~flows:[ f ] in
  Alcotest.(check bool) "max_hops too small raises" true
    (try ignore (Dcn_core.Exact.search ~max_hops:2 inst); false
     with Invalid_argument _ -> true)

(* --- RS link rates are interval density sums --------------------------- *)

let test_rs_link_rates_are_density_sums () =
  (* Two flows forced onto a line: in their shared interval the link
     rate must be exactly D1 + D2 (Algorithm 2 step 11). *)
  let graph = Builders.line 2 in
  let f1 = Flow.make ~id:0 ~src:0 ~dst:1 ~volume:4. ~release:0. ~deadline:4. in
  let f2 = Flow.make ~id:1 ~src:0 ~dst:1 ~volume:6. ~release:1. ~deadline:3. in
  let inst = Dcn_core.Instance.make ~graph ~power:Model.quadratic ~flows:[ f1; f2 ] in
  let rng = Prng.create 1 in
  let rs = Dcn_core.Random_schedule.solve ~instance:inst ~workspace:(Dcn_core.Solver_api.workspace ~rng ()) ~deadline:Dcn_engine.Deadline.never () in
  let profile =
    List.assoc 0 (Array.to_list (Schedule.profiles rs.Dcn_core.Solution.schedule))
  in
  check_float "outside overlap" 1. (Dcn_sched.Profile.rate_at profile 0.5);
  check_float "during overlap D1+D2" 4. (Dcn_sched.Profile.rate_at profile 2.);
  check_float "after overlap" 1. (Dcn_sched.Profile.rate_at profile 3.5)

(* --- numeric reference self-check -------------------------------------- *)

let test_numeric_ref_single_job_closed_form () =
  (* One job alone: optimum runs at density; energy = w^alpha / span^(alpha-1). *)
  let jobs = [ Dcn_speed_scaling.Job.make ~id:0 ~weight:6. ~release:0. ~deadline:2. ] in
  let e = Numeric_ref.ssp_energy ~alpha:2. jobs in
  Alcotest.(check bool)
    (Printf.sprintf "numeric %.4f vs closed form 18" e)
    true
    (Float.abs (e -. 18.) /. 18. < 0.01)

(* --- schedule energy splits -------------------------------------------- *)

let test_energy_split_consistency () =
  let graph = Builders.fat_tree 4 in
  let power = Model.make ~sigma:3. ~mu:1. ~alpha:2. () in
  let rng = Prng.create 19 in
  let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n:10 () in
  let inst = Dcn_core.Instance.make ~graph ~power ~flows in
  let rs = Dcn_core.Random_schedule.solve ~instance:inst ~workspace:(Dcn_core.Solver_api.workspace ~rng ()) ~deadline:Dcn_engine.Deadline.never () in
  let s = rs.Dcn_core.Solution.schedule in
  check_float "idle + dynamic = total"
    (Schedule.idle_energy s +. Schedule.dynamic_energy s)
    (Schedule.energy s)

(* --- workload argument validation -------------------------------------- *)

let test_workload_validation () =
  let graph = Builders.star ~leaves:3 in
  let rng = Prng.create 1 in
  let invalid f = Alcotest.(check bool) "invalid" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  invalid (fun () -> Dcn_flow.Workload.incast ~rng ~graph ~sources:0 ());
  invalid (fun () -> Dcn_flow.Workload.incast ~rng ~graph ~sources:5 ());
  invalid (fun () -> Dcn_flow.Workload.shuffle ~rng ~graph ~mappers:2 ~reducers:2 ());
  invalid (fun () -> Dcn_flow.Workload.stride ~graph ~stride:3 ());
  invalid (fun () -> Dcn_flow.Workload.trace ~load:0. ~rng ~graph ~horizon:(0., 10.) ());
  invalid (fun () -> Dcn_flow.Workload.trace ~rng ~graph ~horizon:(5., 5.) ());
  invalid (fun () ->
      Dcn_flow.Workload.staged ~rng ~graph ~stages:0 ~flows_per_stage:1 ~stage_length:1. ())

let test_workload_horizons_respected () =
  let graph = Builders.star ~leaves:4 in
  let rng = Prng.create 2 in
  let check_span flows lo hi =
    List.iter
      (fun (f : Flow.t) ->
        Alcotest.(check bool) "span" true (f.Flow.release >= lo && f.Flow.deadline <= hi))
      flows
  in
  check_span (Dcn_flow.Workload.all_to_all ~graph ~horizon:(3., 9.) ()) 3. 9.;
  check_span (Dcn_flow.Workload.incast ~rng ~graph ~sources:2 ~horizon:(1., 2.) ()) 1. 2.;
  check_span
    (Dcn_flow.Workload.shuffle ~rng ~graph ~mappers:2 ~reducers:1 ~horizon:(0., 5.) ())
    0. 5.

(* --- bounds edge cases --------------------------------------------------- *)

let test_bounds_single_flow_lambda_one () =
  let graph = Builders.line 3 in
  let f = Flow.make ~id:0 ~src:0 ~dst:2 ~volume:2. ~release:1. ~deadline:5. in
  let inst = Dcn_core.Instance.make ~graph ~power:Model.quadratic ~flows:[ f ] in
  let b = Dcn_core.Bounds.compute inst in
  check_float "lambda 1" 1. b.Dcn_core.Bounds.lambda;
  check_float "D = density" 0.5 b.Dcn_core.Bounds.max_density

(* --- certificate modes ---------------------------------------------------- *)

let test_check_all_modes () =
  (* Interval-density style: the exclusive certificate flags it, the
     default one passes. *)
  let graph = Builders.line 2 in
  let mk id = Flow.make ~id ~src:0 ~dst:1 ~volume:2. ~release:0. ~deadline:2. in
  let p = Option.get (Dcn_topology.Paths.shortest_path graph ~src:0 ~dst:1) in
  let plan f =
    { Schedule.flow = f; path = p; slots = [ { Schedule.start = 0.; stop = 2.; rate = 1. } ] }
  in
  let s =
    Schedule.make ~graph ~power:Model.quadratic ~horizon:(0., 2.)
      [ plan (mk 0); plan (mk 1) ]
  in
  Alcotest.(check (list string)) "fluid-feasible" [] (Test_sched.kinds (Test_sched.certify s));
  Alcotest.(check (list string)) "not circuit-feasible" [ "link_conflict" ]
    (Test_sched.kinds (Test_sched.certify ~exclusive:true s))

let suite =
  [
    ( "more/cross-checks",
      [
        Alcotest.test_case "yds alpha=3 numeric" `Quick test_yds_alpha3_matches_numeric;
        Alcotest.test_case "mcf alpha=4 numeric" `Quick test_mcf_alpha4_matches_numeric;
        Alcotest.test_case "virtual weight effect" `Quick test_mcf_virtual_weight_effect;
        Alcotest.test_case "edf tie-break" `Quick test_edf_identical_deadlines_tiebreak;
        Alcotest.test_case "iset pp" `Quick test_iset_pp_and_add_all;
        Alcotest.test_case "gadget alpha=4" `Quick test_gadget_alpha4;
        Alcotest.test_case "gadget generator invalid" `Quick test_gadget_generator_invalid;
        Alcotest.test_case "exact max_hops" `Quick test_exact_max_hops_no_path;
        Alcotest.test_case "rs density sums" `Quick test_rs_link_rates_are_density_sums;
        Alcotest.test_case "numeric ref closed form" `Quick
          test_numeric_ref_single_job_closed_form;
        Alcotest.test_case "energy split" `Quick test_energy_split_consistency;
        Alcotest.test_case "workload validation" `Quick test_workload_validation;
        Alcotest.test_case "workload horizons" `Quick test_workload_horizons_respected;
        Alcotest.test_case "bounds single flow" `Quick test_bounds_single_flow_lambda_one;
        Alcotest.test_case "check all modes" `Quick test_check_all_modes;
      ] );
  ]
