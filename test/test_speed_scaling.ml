(* Tests for Dcn_speed_scaling: EDF placement and the YDS optimal
   speed-scaling algorithm.  YDS is cross-checked against an independent
   numeric convex optimiser (gradient descent with penalty on the
   classical interval-demand constraints) and against feasible random
   perturbations. *)

open Dcn_speed_scaling

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* EDF                                                                *)
(* ------------------------------------------------------------------ *)

let task ~id ~r ~d ~len = { Edf.task_id = id; release = r; deadline = d; duration = len }

let total_run slots id =
  List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. (Edf.slots_of_task slots id)

let test_edf_single () =
  match Edf.place ~free:[ (0., 10.) ] [ task ~id:0 ~r:1. ~d:5. ~len:2. ] with
  | Error _ -> Alcotest.fail "feasible task rejected"
  | Ok slots ->
    check_float "runs exactly duration" 2. (total_run slots 0);
    List.iter
      (fun (s : Edf.slot) ->
        Alcotest.(check bool) "within span" true (s.start >= 1. && s.stop <= 5.))
      slots

let test_edf_priority_order () =
  (* Two tasks released together: the earlier deadline runs first. *)
  match
    Edf.place ~free:[ (0., 10.) ]
      [ task ~id:0 ~r:0. ~d:8. ~len:2.; task ~id:1 ~r:0. ~d:4. ~len:2. ]
  with
  | Error _ -> Alcotest.fail "feasible set rejected"
  | Ok slots ->
    (match slots with
    | first :: _ -> Alcotest.(check int) "earliest deadline first" 1 first.Edf.task_id
    | [] -> Alcotest.fail "no slots")

let test_edf_preemption () =
  (* A long lax task is preempted by an urgent arrival. *)
  match
    Edf.place ~free:[ (0., 10.) ]
      [ task ~id:0 ~r:0. ~d:10. ~len:5.; task ~id:1 ~r:1. ~d:3. ~len:2. ]
  with
  | Error _ -> Alcotest.fail "feasible set rejected"
  | Ok slots ->
    check_float "task 0 work" 5. (total_run slots 0);
    check_float "task 1 work" 2. (total_run slots 1);
    (* Task 1 must run exactly in [1,3]. *)
    Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
      "urgent runs in its window" [ (1., 3.) ] (Edf.slots_of_task slots 1)

let test_edf_respects_free_slots () =
  match
    Edf.place ~free:[ (0., 1.); (2., 3.) ] [ task ~id:0 ~r:0. ~d:3. ~len:2. ]
  with
  | Error _ -> Alcotest.fail "feasible task rejected"
  | Ok slots ->
    Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
      "runs in both free slots" [ (0., 1.); (2., 3.) ] (Edf.slots_of_task slots 0)

let test_edf_infeasible () =
  match Edf.place ~free:[ (0., 10.) ] [ task ~id:7 ~r:0. ~d:1. ~len:2. ] with
  | Ok _ -> Alcotest.fail "should be infeasible"
  | Error info ->
    Alcotest.(check int) "culprit" 7 info.Edf.missed_task;
    check_float "missed deadline" 1. info.Edf.missed_deadline;
    Alcotest.(check bool) "owes about 1" true (Float.abs (info.Edf.remaining -. 1.) < 1e-6)

let test_edf_infeasible_gap () =
  (* The task's whole span falls into a hole of the free time. *)
  match Edf.place ~free:[ (0., 1.); (5., 6.) ] [ task ~id:3 ~r:2. ~d:4. ~len:1. ] with
  | Ok _ -> Alcotest.fail "should be infeasible"
  | Error info -> Alcotest.(check int) "culprit" 3 info.Edf.missed_task

let test_edf_zero_duration () =
  match Edf.place ~free:[ (0., 1.) ] [ task ~id:0 ~r:0. ~d:1. ~len:0. ] with
  | Ok slots -> Alcotest.(check int) "no slots needed" 0 (List.length slots)
  | Error _ -> Alcotest.fail "zero work is trivially feasible"

let test_edf_feasible_helper () =
  Alcotest.(check bool) "feasible" true
    (Edf.feasible ~free:[ (0., 4.) ]
       [ task ~id:0 ~r:0. ~d:2. ~len:2.; task ~id:1 ~r:0. ~d:4. ~len:2. ]);
  Alcotest.(check bool) "infeasible" false
    (Edf.feasible ~free:[ (0., 4.) ]
       [ task ~id:0 ~r:0. ~d:2. ~len:2.; task ~id:1 ~r:0. ~d:3. ~len:2. ])

(* Property: when EDF succeeds, every task receives exactly its duration,
   inside its span, inside free time, with no two slots overlapping. *)
let gen_edf_instance =
  QCheck.make
    QCheck.Gen.(
      let* n = 1 -- 6 in
      let* tasks =
        list_repeat n
          (let* r = float_bound_inclusive 8. in
           let* len_span = float_bound_inclusive 4. in
           let* frac = float_bound_inclusive 1. in
           return (r, r +. 0.2 +. len_span, frac))
      in
      return tasks)

let prop_edf_conservation =
  QCheck.Test.make ~name:"edf: successful placement conserves work" ~count:300
    gen_edf_instance (fun raw ->
      let tasks =
        List.mapi
          (fun i (r, d, frac) ->
            (* duration <= span length, so a singleton is feasible, but
               a collection might not be: both outcomes are exercised. *)
            task ~id:i ~r ~d ~len:(frac *. (d -. r) /. 2.))
          raw
      in
      match Edf.place ~free:[ (0., 20.) ] tasks with
      | Error _ -> true
      | Ok slots ->
        let sorted =
          List.sort (fun (a : Edf.slot) b -> compare a.start b.start) slots
        in
        let rec disjoint = function
          | (a : Edf.slot) :: (b : Edf.slot) :: rest ->
            a.stop <= b.start +. 1e-9 && disjoint (b :: rest)
          | _ -> true
        in
        disjoint sorted
        && List.for_all
             (fun (tk : Edf.task) ->
               Float.abs (total_run slots tk.task_id -. tk.duration) < 1e-6
               && List.for_all
                    (fun (a, b) -> a >= tk.release -. 1e-9 && b <= tk.deadline +. 1e-9)
                    (Edf.slots_of_task slots tk.task_id))
             tasks)

(* ------------------------------------------------------------------ *)
(* YDS                                                                *)
(* ------------------------------------------------------------------ *)

let job ~id ~w ~r ~d = Job.make ~id ~weight:w ~release:r ~deadline:d

let test_yds_single_job () =
  let j = job ~id:0 ~w:6. ~r:2. ~d:4. in
  let res = Yds.schedule [ j ] in
  check_float "speed = density" 3. (Yds.speed_of res 0);
  Alcotest.(check int) "one group" 1 (List.length res.Yds.groups)

let test_yds_example1_instance () =
  (* The SS-SP instance derived from Example 1 of the paper: weights
     6*sqrt 2 and 8, spans [2,4] and [1,3].  The optimal schedule runs
     both jobs at speed (8 + 6 sqrt 2)/3 over the critical interval
     [1,4]. *)
  let s = (8. +. (6. *. sqrt 2.)) /. 3. in
  let jobs = [ job ~id:1 ~w:(6. *. sqrt 2.) ~r:2. ~d:4.; job ~id:2 ~w:8. ~r:1. ~d:3. ] in
  let res = Yds.schedule jobs in
  check_float "speed job 1" s (Yds.speed_of res 1);
  check_float "speed job 2" s (Yds.speed_of res 2);
  match res.Yds.groups with
  | [ g ] ->
    Alcotest.(check (pair (float 1e-9) (float 1e-9))) "critical interval" (1., 4.) g.Yds.window;
    check_float "intensity" s g.Yds.intensity
  | _ -> Alcotest.fail "expected a single critical group"

let test_yds_two_independent_jobs () =
  (* Disjoint spans: each job forms its own group at its own density. *)
  let jobs = [ job ~id:0 ~w:4. ~r:0. ~d:2.; job ~id:1 ~w:1. ~r:5. ~d:6. ] in
  let res = Yds.schedule jobs in
  check_float "first density" 2. (Yds.speed_of res 0);
  check_float "second density" 1. (Yds.speed_of res 1);
  Alcotest.(check int) "two groups" 2 (List.length res.Yds.groups)

let test_yds_nested_spans () =
  (* A tight job inside a lax one: the tight job forms the critical
     group; the lax one spreads over the remaining time. *)
  let jobs = [ job ~id:0 ~w:10. ~r:4. ~d:5.; job ~id:1 ~w:4. ~r:0. ~d:10. ] in
  let res = Yds.schedule jobs in
  check_float "tight job at 10" 10. (Yds.speed_of res 0);
  (* The lax job has 9 units of free time left ([0,4] and [5,10]). *)
  check_float "lax job spread" (4. /. 9.) (Yds.speed_of res 1)

let test_yds_intensities_non_increasing () =
  let jobs =
    [
      job ~id:0 ~w:10. ~r:4. ~d:5.;
      job ~id:1 ~w:4. ~r:0. ~d:10.;
      job ~id:2 ~w:2. ~r:1. ~d:3.;
      job ~id:3 ~w:6. ~r:6. ~d:9.;
    ]
  in
  let res = Yds.schedule jobs in
  let rec non_increasing = function
    | (a : Yds.group) :: b :: rest ->
      a.intensity >= b.intensity -. 1e-9 && non_increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "non-increasing" true (non_increasing res.Yds.groups)

let test_yds_duplicate_ids () =
  Alcotest.check_raises "duplicate ids" (Invalid_argument "Yds.schedule: duplicate job ids")
    (fun () -> ignore (Yds.schedule [ job ~id:0 ~w:1. ~r:0. ~d:1.; job ~id:0 ~w:1. ~r:0. ~d:1. ]))

let test_yds_energy () =
  let jobs = [ job ~id:0 ~w:4. ~r:0. ~d:2. ] in
  let res = Yds.schedule jobs in
  (* speed 2, energy = w * mu * s^(alpha-1) = 4 * 1 * 2 = 8 for alpha 2 *)
  check_float "energy" 8. (Yds.energy ~mu:1. ~alpha:2. jobs res)

(* --- independent numeric reference (see Numeric_ref) ----------- *)

let numeric_reference ~alpha jobs = Numeric_ref.ssp_energy ~alpha jobs

let test_yds_matches_numeric_example1 () =
  let jobs = [ job ~id:1 ~w:(6. *. sqrt 2.) ~r:2. ~d:4.; job ~id:2 ~w:8. ~r:1. ~d:3. ] in
  let res = Yds.schedule jobs in
  let e_yds = Yds.energy ~mu:1. ~alpha:2. jobs res in
  let e_num = numeric_reference ~alpha:2. jobs in
  Alcotest.(check bool)
    (Printf.sprintf "yds %.6f vs numeric %.6f" e_yds e_num)
    true
    (Float.abs (e_yds -. e_num) /. e_yds < 0.01)

let prop_yds_matches_numeric =
  QCheck.Test.make ~name:"yds: equals independent convex optimum" ~count:12
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let rng = Dcn_util.Prng.create seed in
      let n = 2 + Dcn_util.Prng.int rng 2 in
      let jobs =
        List.init n (fun id ->
            let r = Dcn_util.Prng.uniform rng ~lo:0. ~hi:8. in
            let d = r +. 0.5 +. Dcn_util.Prng.uniform rng ~lo:0. ~hi:4. in
            let w = 0.5 +. Dcn_util.Prng.uniform rng ~lo:0. ~hi:9.5 in
            job ~id ~w ~r ~d)
      in
      let res = Yds.schedule jobs in
      let e_yds = Yds.energy ~mu:1. ~alpha:2. jobs res in
      let e_num = numeric_reference ~alpha:2. jobs in
      (* numeric result is feasible, hence an upper bound on the optimum;
         YDS claims optimality, so it must not exceed it, and the
         optimiser should come close. *)
      e_yds <= e_num +. (0.02 *. e_num) && e_yds >= e_num *. 0.9)

let prop_yds_beats_constant_speed =
  QCheck.Test.make ~name:"yds: no worse than the best constant speed" ~count:100
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let rng = Dcn_util.Prng.create seed in
      let n = 2 + Dcn_util.Prng.int rng 5 in
      let jobs =
        List.init n (fun id ->
            let r = Dcn_util.Prng.uniform rng ~lo:0. ~hi:10. in
            let d = r +. 0.5 +. Dcn_util.Prng.uniform rng ~lo:0. ~hi:5. in
            job ~id ~w:(0.5 +. Dcn_util.Prng.uniform rng ~lo:0. ~hi:9.5) ~r ~d)
      in
      let res = Yds.schedule jobs in
      let alpha = 3. in
      let e_yds = Yds.energy ~mu:1. ~alpha jobs res in
      (* Constant speed = the first (maximal) intensity is feasible; its
         energy upper-bounds the optimum. *)
      let s_const = Yds.max_speed res in
      let e_const =
        List.fold_left
          (fun acc (j : Job.t) -> acc +. (j.weight *. (s_const ** (alpha -. 1.))))
          0. jobs
      in
      e_yds <= e_const +. 1e-6)

let prop_yds_slots_feasible =
  QCheck.Test.make ~name:"yds: execution slots complete every job in its span" ~count:100
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let rng = Dcn_util.Prng.create seed in
      let n = 1 + Dcn_util.Prng.int rng 7 in
      let jobs =
        List.init n (fun id ->
            let r = Dcn_util.Prng.uniform rng ~lo:0. ~hi:10. in
            let d = r +. 0.5 +. Dcn_util.Prng.uniform rng ~lo:0. ~hi:5. in
            job ~id ~w:(0.5 +. Dcn_util.Prng.uniform rng ~lo:0. ~hi:9.5) ~r ~d)
      in
      let res = Yds.schedule jobs in
      let sorted =
        List.sort (fun (a : Edf.slot) b -> compare a.start b.start) res.Yds.slots
      in
      let rec disjoint = function
        | (a : Edf.slot) :: (b : Edf.slot) :: rest ->
          a.stop <= b.start +. 1e-6 && disjoint (b :: rest)
        | _ -> true
      in
      disjoint sorted
      && List.for_all
           (fun (j : Job.t) ->
             let s = Yds.speed_of res j.id in
             let run =
               List.fold_left
                 (fun acc (a, b) -> acc +. (b -. a))
                 0.
                 (Edf.slots_of_task res.Yds.slots j.id)
             in
             Float.abs (run -. (j.weight /. s)) < 1e-6
             && List.for_all
                  (fun (a, b) -> a >= j.release -. 1e-9 && b <= j.deadline +. 1e-9)
                  (Edf.slots_of_task res.Yds.slots j.id))
           jobs)

(* ------------------------------------------------------------------ *)
(* Cross-checks and parameter variations (groups more/cross-checks,   *)
(* more/identifiers-and-boundaries)                                   *)
(* ------------------------------------------------------------------ *)

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

let test_edf_identical_deadlines_tiebreak () =
  let tasks = [ task ~id:9 ~r:0. ~d:4. ~len:1.; task ~id:2 ~r:0. ~d:4. ~len:1. ] in
  match Edf.place ~free:[ (0., 4.) ] tasks with
  | Error _ -> Alcotest.fail "feasible"
  | Ok slots ->
    (match slots with
    | first :: _ -> Alcotest.(check int) "lower id first" 2 first.Edf.task_id
    | [] -> Alcotest.fail "no slots")

let test_numeric_ref_single_job_closed_form () =
  (* One job alone: optimum runs at density; energy = w^alpha / span^(alpha-1). *)
  let jobs = [ Job.make ~id:0 ~weight:6. ~release:0. ~deadline:2. ] in
  let e = Numeric_ref.ssp_energy ~alpha:2. jobs in
  Alcotest.(check bool)
    (Printf.sprintf "numeric %.4f vs closed form 18" e)
    true
    (Float.abs (e -. 18.) /. 18. < 0.01)

(* YDS scales with mu in the energy functional only. *)
let test_yds_mu_scaling () =
  let jobs = [ Job.make ~id:0 ~weight:4. ~release:0. ~deadline:2. ] in
  let res = Yds.schedule jobs in
  check_float "mu=1" 8. (Yds.energy ~mu:1. ~alpha:2. jobs res);
  check_float "mu=3 scales linearly" 24. (Yds.energy ~mu:3. ~alpha:2. jobs res)

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "speed_scaling/edf",
      [
        Alcotest.test_case "single task" `Quick test_edf_single;
        Alcotest.test_case "priority order" `Quick test_edf_priority_order;
        Alcotest.test_case "preemption" `Quick test_edf_preemption;
        Alcotest.test_case "respects free slots" `Quick test_edf_respects_free_slots;
        Alcotest.test_case "infeasible" `Quick test_edf_infeasible;
        Alcotest.test_case "infeasible in gap" `Quick test_edf_infeasible_gap;
        Alcotest.test_case "zero duration" `Quick test_edf_zero_duration;
        Alcotest.test_case "feasible helper" `Quick test_edf_feasible_helper;
        qt prop_edf_conservation;
      ] );
    ( "speed_scaling/yds",
      [
        Alcotest.test_case "single job" `Quick test_yds_single_job;
        Alcotest.test_case "Example 1 instance" `Quick test_yds_example1_instance;
        Alcotest.test_case "independent jobs" `Quick test_yds_two_independent_jobs;
        Alcotest.test_case "nested spans" `Quick test_yds_nested_spans;
        Alcotest.test_case "intensities non-increasing" `Quick
          test_yds_intensities_non_increasing;
        Alcotest.test_case "duplicate ids" `Quick test_yds_duplicate_ids;
        Alcotest.test_case "energy formula" `Quick test_yds_energy;
        Alcotest.test_case "matches numeric (Example 1)" `Quick
          test_yds_matches_numeric_example1;
        qt prop_yds_matches_numeric;
        qt prop_yds_beats_constant_speed;
        qt prop_yds_slots_feasible;
      ] );
  ]

let more_cross_checks =
  [
    Alcotest.test_case "yds alpha=3 numeric" `Quick test_yds_alpha3_matches_numeric;
    Alcotest.test_case "edf tie-break" `Quick test_edf_identical_deadlines_tiebreak;
    Alcotest.test_case "numeric ref closed form" `Quick
      test_numeric_ref_single_job_closed_form;
  ]

let more_boundaries =
  [ Alcotest.test_case "yds mu scaling" `Quick test_yds_mu_scaling ]
