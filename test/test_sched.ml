(* Tests for Dcn_sched: rate profiles, schedule energy accounting
   (Eq. 5), and feasibility as certified by Dcn_check.Certify. *)

open Dcn_sched
module Builders = Dcn_topology.Builders
module Flow = Dcn_flow.Flow
module Model = Dcn_power.Model
module Certify = Dcn_check.Certify

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Profile                                                            *)
(* ------------------------------------------------------------------ *)

let test_profile_empty () =
  Alcotest.(check bool) "idle" true (Profile.is_idle Profile.empty);
  check_float "busy" 0. (Profile.busy_time Profile.empty);
  check_float "rate" 0. (Profile.rate_at Profile.empty 1.)

let test_profile_single_slot () =
  let p = Profile.of_slots [ (1., 3., 2.) ] in
  check_float "rate inside" 2. (Profile.rate_at p 2.);
  check_float "rate outside" 0. (Profile.rate_at p 3.5);
  check_float "busy" 2. (Profile.busy_time p);
  check_float "volume" 4. (Profile.volume p);
  check_float "max" 2. (Profile.max_rate p)

let test_profile_overlap_additive () =
  let p = Profile.of_slots [ (0., 2., 1.); (1., 3., 2.) ] in
  Alcotest.(check (list (triple (float 1e-9) (float 1e-9) (float 1e-9))))
    "segments" [ (0., 1., 1.); (1., 2., 3.); (2., 3., 2.) ] (Profile.segments p);
  check_float "volume" 6. (Profile.volume p)

let test_profile_gap () =
  let p = Profile.of_slots [ (0., 1., 1.); (2., 3., 1.) ] in
  check_float "idle in gap" 0. (Profile.rate_at p 1.5);
  check_float "busy skips gap" 2. (Profile.busy_time p)

let test_profile_coalesce () =
  let p = Profile.of_slots [ (0., 1., 2.); (1., 2., 2.) ] in
  Alcotest.(check int) "coalesced" 1 (List.length (Profile.segments p))

let test_profile_zero_rate_ignored () =
  let p = Profile.of_slots [ (0., 5., 0.) ] in
  Alcotest.(check bool) "idle" true (Profile.is_idle p)

let test_profile_cancellation () =
  (* Two identical slots sum; the sweep must not leave phantom
     segments after both end. *)
  let p = Profile.of_slots [ (0., 1., 1.); (0., 1., 1.) ] in
  Alcotest.(check (list (triple (float 1e-9) (float 1e-9) (float 1e-9))))
    "one segment at rate 2" [ (0., 1., 2.) ] (Profile.segments p)

let test_profile_dynamic_energy () =
  let p = Profile.of_slots [ (0., 2., 3.) ] in
  check_float "mu x^2 * t" 18. (Profile.dynamic_energy Model.quadratic p)

let test_profile_invalid () =
  Alcotest.(check bool) "negative rate" true
    (try ignore (Profile.of_slots [ (0., 1., -1.) ]); false
     with Invalid_argument _ -> true)

let prop_profile_volume_conserved =
  QCheck.Test.make ~name:"profile: volume equals sum of slot volumes" ~count:300
    QCheck.(
      small_list
        (triple (float_bound_inclusive 5.) (float_bound_inclusive 5.)
           (float_bound_inclusive 4.)))
    (fun raw ->
      let slots = List.map (fun (a, len, r) -> (a, a +. len, r)) raw in
      let p = Profile.of_slots slots in
      let expect =
        List.fold_left (fun acc (a, b, r) -> acc +. ((b -. a) *. r)) 0. slots
      in
      Float.abs (Profile.volume p -. expect) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Schedule                                                           *)
(* ------------------------------------------------------------------ *)

let line3 = Builders.line 3

let flow ?(id = 0) ?(src = 0) ?(dst = 2) ?(volume = 4.) ?(release = 0.) ?(deadline = 4.) ()
    =
  Flow.make ~id ~src ~dst ~volume ~release ~deadline

let path_of g ~src ~dst =
  match Dcn_topology.Paths.shortest_path g ~src ~dst with
  | Some p -> p
  | None -> Alcotest.fail "no path"

let simple_schedule ?(power = Model.quadratic) ?(rate = 1.) () =
  let f = flow () in
  let plan =
    {
      Schedule.flow = f;
      path = path_of line3 ~src:0 ~dst:2;
      slots = [ { Schedule.start = 0.; stop = 4.; rate } ];
    }
  in
  Schedule.make ~graph:line3 ~power ~horizon:(0., 4.) [ plan ]

(* Densities 1 and 2 share the line on [1,3]: one slot per flow at its
   density, plans in pair order, and the capacity verdict reads the peak
   rate 3 against the cap (no profile sweep without one). *)
let test_schedule_of_densities () =
  let path = path_of line3 ~src:0 ~dst:2 in
  let build power =
    Schedule.of_densities ~graph:line3 ~power ~horizon:(0., 4.)
      [ (flow (), path); (flow ~id:1 ~release:1. ~deadline:3. (), path) ]
  in
  let s = build Model.quadratic in
  Alcotest.(check (list int)) "plan order" [ 0; 1 ]
    (List.map (fun (p : Schedule.plan) -> p.flow.Flow.id) s.Schedule.plans);
  List.iter
    (fun (p : Schedule.plan) ->
      check_float "delivers its volume" p.flow.Flow.volume (Schedule.delivered p))
    s.plans;
  check_float "peak" 3. (Schedule.max_link_rate s);
  let uncapped = Schedule.capacity_verdict s in
  Alcotest.(check bool) "uncapped" true
    (uncapped.overload = neg_infinity && uncapped.within_cap);
  let at cap =
    Schedule.capacity_verdict
      (build (Model.make ~sigma:0. ~mu:1. ~alpha:2. ~cap ()))
  in
  Alcotest.(check bool) "within the tolerance" true (at (3. -. 1e-7)).within_cap;
  Alcotest.(check bool) "over the cap" false (at 2.9).within_cap;
  check_float "overload" 0.1 (at 2.9).overload

let test_schedule_energy_eq5 () =
  (* One flow at rate 1 for 4s over 2 links, f = x^2:
     dynamic = 2 links * 1^2 * 4 = 8; sigma = 0. *)
  let s = simple_schedule () in
  check_float "dynamic" 8. (Schedule.dynamic_energy s);
  check_float "idle" 0. (Schedule.idle_energy s);
  check_float "total" 8. (Schedule.energy s)

let test_schedule_idle_energy () =
  let power = Model.make ~sigma:2. ~mu:1. ~alpha:2. () in
  let s = simple_schedule ~power () in
  (* 2 active directed links * sigma 2 * horizon 4 = 16. *)
  check_float "idle" 16. (Schedule.idle_energy s);
  check_float "total" 24. (Schedule.energy s)

let test_schedule_active_links () =
  let s = simple_schedule () in
  Alcotest.(check int) "two active links" 2 (List.length (Schedule.active_links s));
  Alcotest.(check int) "profiles align" 2 (Array.length (Schedule.profiles s))

let test_schedule_delivered () =
  let s = simple_schedule () in
  check_float "delivered" 4.
    (Schedule.delivered (Option.get (Schedule.find_plan s 0)))

let test_schedule_invalid_path () =
  let f = flow () in
  let bad = path_of line3 ~src:0 ~dst:1 in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Schedule.make ~graph:line3 ~power:Model.quadratic ~horizon:(0., 4.)
            [ { Schedule.flow = f; path = bad; slots = [] } ]);
       false
     with Invalid_argument _ -> true)

let test_schedule_duplicate_flows () =
  let f = flow () in
  let p = path_of line3 ~src:0 ~dst:2 in
  let plan = { Schedule.flow = f; path = p; slots = [] } in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Schedule.make ~graph:line3 ~power:Model.quadratic ~horizon:(0., 4.)
            [ plan; plan ]);
       false
     with Invalid_argument _ -> true)

(* Certify a bare schedule against the instance of its own flows. *)
let certify ?(exclusive = false) (s : Schedule.t) =
  let inst =
    Dcn_core.Instance.make ~graph:s.graph ~power:s.power
      ~flows:(List.map (fun (p : Schedule.plan) -> p.flow) s.plans)
  in
  Certify.schedule ~config:{ Certify.default with exclusive } inst s

let kinds vs = List.sort_uniq compare (List.map Certify.kind vs)

let test_check_deadlines_ok () =
  let s = simple_schedule () in
  Alcotest.(check (list string)) "no violations" [] (kinds (certify s))

let test_check_wrong_volume () =
  let s = simple_schedule ~rate:0.5 () in
  (* delivers 2 of 4 *)
  match certify s with
  | [ Certify.Volume_mismatch { flow = 0; delivered = d; expected = 4. } ] ->
    check_float "half delivered" 2. d
  | other -> Alcotest.failf "unexpected: %d violations" (List.length other)

let test_check_slot_outside_span () =
  let f = flow ~release:1. () in
  let plan =
    {
      Schedule.flow = f;
      path = path_of line3 ~src:0 ~dst:2;
      slots = [ { Schedule.start = 0.; stop = 4.; rate = 1. } ];
    }
  in
  let s = Schedule.make ~graph:line3 ~power:Model.quadratic ~horizon:(0., 4.) [ plan ] in
  Alcotest.(check bool) "slot-outside-window reported" true
    (List.exists
       (function
         | Certify.Slot_outside_window { flow = 0; start = 0.; stop = 4. } -> true
         | _ -> false)
       (certify s))

let test_check_capacity () =
  let power = Model.make ~sigma:0. ~mu:1. ~alpha:2. ~cap:0.5 () in
  let s = simple_schedule ~power () in
  Alcotest.(check (list int)) "both links over capacity" [ 0; 2 ]
    (List.filter_map
       (function Certify.Capacity_exceeded { link; _ } -> Some link | _ -> None)
       (certify s))

let test_check_exclusive () =
  let f1 = flow ~id:0 ~dst:1 ~volume:2. () in
  let f2 = flow ~id:1 ~dst:1 ~volume:2. () in
  let p = path_of line3 ~src:0 ~dst:1 in
  let mk slots1 slots2 =
    Schedule.make ~graph:line3 ~power:Model.quadratic ~horizon:(0., 4.)
      [
        { Schedule.flow = f1; path = p; slots = slots1 };
        { Schedule.flow = f2; path = p; slots = slots2 };
      ]
  in
  let conflicts s = kinds (certify ~exclusive:true s) in
  let overlapping =
    mk
      [ { Schedule.start = 0.; stop = 2.; rate = 1. } ]
      [ { Schedule.start = 1.; stop = 3.; rate = 1. } ]
  in
  Alcotest.(check (list string)) "conflict detected" [ "link_conflict" ]
    (conflicts overlapping);
  let serial =
    mk
      [ { Schedule.start = 0.; stop = 2.; rate = 1. } ]
      [ { Schedule.start = 2.; stop = 4.; rate = 1. } ]
  in
  Alcotest.(check (list string)) "serial is exclusive" [] (conflicts serial);
  (* A long slot conflicts with a later short one it covers, at the
     short slot's start. *)
  let long_vs_short =
    mk
      [ { Schedule.start = 0.; stop = 4.; rate = 0.5 } ]
      [ { Schedule.start = 2.5; stop = 3.; rate = 4. } ]
  in
  match certify ~exclusive:true long_vs_short with
  | [ Certify.Link_conflict { at; flows = a, b; _ } ] ->
    check_float "long-slot conflict found" 2.5 at;
    Alcotest.(check (list int)) "between the two flows" [ 0; 1 ] (List.sort compare [ a; b ])
  | other -> Alcotest.failf "long vs short: %d violations" (List.length other)

let test_interval_density_style () =
  (* Random-Schedule style: two flows share a link at their densities;
     the exclusive certificate must flag it, the default one passes. *)
  let f1 = flow ~id:0 ~dst:1 ~volume:4. () in
  let f2 = flow ~id:1 ~dst:1 ~volume:8. () in
  let p = path_of line3 ~src:0 ~dst:1 in
  let plan f =
    {
      Schedule.flow = f;
      path = p;
      slots =
        [
          {
            Schedule.start = f.Flow.release;
            stop = f.Flow.deadline;
            rate = Flow.density f;
          };
        ];
    }
  in
  let s =
    Schedule.make ~graph:line3 ~power:Model.quadratic ~horizon:(0., 4.)
      [ plan f1; plan f2 ]
  in
  Alcotest.(check (list string)) "no violations" [] (kinds (certify s));
  (* link rate = 1 + 2 = 3 for 4s on one link: energy = 9 * 4 = 36 *)
  check_float "energy" 36. (Schedule.energy s);
  Alcotest.(check (list string)) "not exclusive (by design)" [ "link_conflict" ]
    (kinds (certify ~exclusive:true s))

(* ------------------------------------------------------------------ *)
(* Quantize                                                           *)
(* ------------------------------------------------------------------ *)

let test_quantize_exact_levels () =
  (* Fluid rate 1 with a level at exactly 1: no overhead at all. *)
  let s = simple_schedule () in
  let ladder = Dcn_power.Discrete.make Model.quadratic ~levels:[ 1.; 2. ] in
  let q = Quantize.report ladder s in
  Alcotest.(check bool) "feasible" true q.Quantize.feasible;
  check_float "hold = fluid" q.Quantize.fluid_energy q.Quantize.hold_energy;
  check_float "work = fluid" q.Quantize.fluid_energy q.Quantize.work_energy

let test_quantize_rounding_up () =
  (* Fluid rate 1, only level 2 available: hold runs 2^2 for the whole
     4s over 2 links = 32 (vs fluid 8); work ships 4 volume per link at
     speed 2 -> 2s at power 4 -> 16. *)
  let s = simple_schedule () in
  let ladder = Dcn_power.Discrete.make Model.quadratic ~levels:[ 2. ] in
  let q = Quantize.report ladder s in
  Alcotest.(check bool) "feasible" true q.Quantize.feasible;
  check_float "hold" 32. q.Quantize.hold_energy;
  check_float "work" 16. q.Quantize.work_energy;
  check_float "hold overhead 4x" 4. q.Quantize.hold_overhead;
  check_float "work overhead 2x" 2. q.Quantize.work_overhead

let test_quantize_infeasible_top () =
  let s = simple_schedule () in
  let ladder = Dcn_power.Discrete.make Model.quadratic ~levels:[ 0.5 ] in
  let q = Quantize.report ladder s in
  Alcotest.(check bool) "not feasible" false q.Quantize.feasible

let test_quantize_finer_is_cheaper () =
  let s = simple_schedule ~rate:0.9 () in
  let overhead count =
    let ladder = Dcn_power.Discrete.geometric Model.quadratic ~count ~top:2. in
    (Quantize.report ladder s).Quantize.hold_overhead
  in
  Alcotest.(check bool) "more levels, less overhead" true (overhead 8 <= overhead 2 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Gantt                                                              *)
(* ------------------------------------------------------------------ *)

let test_gantt_renders () =
  let s = simple_schedule () in
  let chart = Gantt.render ~width:32 s in
  let lines = String.split_on_char '\n' chart in
  (* header + 2 link rows + trailing newline *)
  Alcotest.(check int) "rows" 4 (List.length lines);
  Alcotest.(check bool) "busy cells shown" true
    (String.exists (fun c -> c = '0') chart);
  let flows_chart = Gantt.render_flows ~width:32 s in
  Alcotest.(check bool) "transmitting marks" true
    (String.exists (fun c -> c = '=') flows_chart)

let test_gantt_conflict_marker () =
  (* Two flows overlapping on a link show '#'. *)
  let f1 = flow ~id:1 ~dst:1 ~volume:4. () in
  let f2 = flow ~id:2 ~dst:1 ~volume:4. () in
  let p = path_of line3 ~src:0 ~dst:1 in
  let s =
    Schedule.make ~graph:line3 ~power:Model.quadratic ~horizon:(0., 4.)
      [
        { Schedule.flow = f1; path = p; slots = [ { Schedule.start = 0.; stop = 4.; rate = 1. } ] };
        { Schedule.flow = f2; path = p; slots = [ { Schedule.start = 0.; stop = 4.; rate = 1. } ] };
      ]
  in
  Alcotest.(check bool) "overlap marked" true
    (String.exists (fun c -> c = '#') (Gantt.render ~width:16 s))

let test_gantt_truncation () =
  let f = flow () in
  let s =
    Schedule.make ~graph:line3 ~power:Model.quadratic ~horizon:(0., 4.)
      [
        {
          Schedule.flow = f;
          path = path_of line3 ~src:0 ~dst:2;
          slots = [ { Schedule.start = 0.; stop = 4.; rate = 1. } ];
        };
      ]
  in
  let chart = Gantt.render ~max_links:1 s in
  Alcotest.(check bool) "ellipsis" true (Test_util.contains chart "more links")

(* ------------------------------------------------------------------ *)
(* Odds and ends (groups more/misc, more/cross-checks,                *)
(* more/identifiers-and-boundaries)                                   *)
(* ------------------------------------------------------------------ *)

let test_schedule_find_plan_missing () =
  let f = Flow.make ~id:3 ~src:0 ~dst:2 ~volume:1. ~release:0. ~deadline:1. in
  let p = { Schedule.flow = f; path = path_of line3 ~src:0 ~dst:2; slots = [] } in
  let s = Schedule.make ~graph:line3 ~power:Model.quadratic ~horizon:(0., 1.) [ p ] in
  Alcotest.(check bool) "missing id is None" true
    (Schedule.find_plan s 99 = None);
  Alcotest.(check bool) "present id is found" true
    (match Schedule.find_plan s 3 with Some q -> q.Schedule.flow.Flow.id = 3 | None -> false)

let test_gantt_flows_span_markers () =
  let f = Flow.make ~id:0 ~src:0 ~dst:2 ~volume:1. ~release:2. ~deadline:4. in
  let plan =
    {
      Schedule.flow = f;
      path = path_of line3 ~src:0 ~dst:2;
      slots = [ { Schedule.start = 2.; stop = 3.; rate = 1. } ];
    }
  in
  let s = Schedule.make ~graph:line3 ~power:Model.quadratic ~horizon:(0., 8.) [ plan ] in
  let chart = Gantt.render_flows ~width:32 s in
  Alcotest.(check bool) "has waiting marker" true (String.contains chart '-');
  Alcotest.(check bool) "has transmit marker" true (String.contains chart '=')

let test_energy_split_consistency () =
  let graph = Builders.fat_tree 4 in
  let power = Model.make ~sigma:3. ~mu:1. ~alpha:2. () in
  let rng = Dcn_util.Prng.create 19 in
  let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n:10 () in
  let inst = Dcn_core.Instance.make ~graph ~power ~flows in
  let rs = Dcn_core.Random_schedule.solve ~rng inst in
  let s = rs.Dcn_core.Solution.schedule in
  Alcotest.(check (float 1e-6)) "idle + dynamic = total"
    (Schedule.idle_energy s +. Schedule.dynamic_energy s)
    (Schedule.energy s)

let test_check_all_modes () =
  (* Interval-density style: the exclusive certificate flags it, the
     default one passes. *)
  let graph = Builders.line 2 in
  let mk id = Flow.make ~id ~src:0 ~dst:1 ~volume:2. ~release:0. ~deadline:2. in
  let p = path_of graph ~src:0 ~dst:1 in
  let plan f =
    { Schedule.flow = f; path = p; slots = [ { Schedule.start = 0.; stop = 2.; rate = 1. } ] }
  in
  let s =
    Schedule.make ~graph ~power:Model.quadratic ~horizon:(0., 2.)
      [ plan (mk 0); plan (mk 1) ]
  in
  Alcotest.(check (list string)) "fluid-feasible" [] (kinds (certify s));
  Alcotest.(check (list string)) "not circuit-feasible" [ "link_conflict" ]
    (kinds (certify ~exclusive:true s))

(* Profile boundary semantics: right-continuous at starts, open at stops. *)
let test_profile_boundary_semantics () =
  let p = Profile.of_slots [ (1., 2., 3.) ] in
  check_float "at start" 3. (Profile.rate_at p 1.);
  check_float "at stop" 0. (Profile.rate_at p 2.);
  check_float "before" 0. (Profile.rate_at p 0.999)

(* Quantize with the exact fluid rates as ladder levels: zero overhead
   regardless of instance. *)
let prop_quantize_exact_ladder_no_overhead =
  QCheck.Test.make ~name:"quantize: exact ladder has no overhead" ~count:10
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let graph = Builders.fat_tree 4 in
      let rng = Dcn_util.Prng.create seed in
      let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n:6 () in
      let inst = Dcn_core.Instance.make ~graph ~power:Model.quadratic ~flows in
      let rs = Dcn_core.Random_schedule.solve ~rng inst in
      let sched = rs.Dcn_core.Solution.schedule in
      (* Collect every distinct positive segment rate as a level. *)
      let rates = ref [] in
      Array.iter
        (fun (_, p) ->
          List.iter (fun (_, _, r) -> if r > 0. then rates := r :: !rates)
            (Profile.segments p))
        (Schedule.profiles sched);
      match List.sort_uniq compare !rates with
      | [] -> true
      | levels ->
        let ladder = Dcn_power.Discrete.make Model.quadratic ~levels in
        let q = Quantize.report ladder sched in
        Float.abs (q.Quantize.hold_overhead -. 1.) < 1e-6
        && Float.abs (q.Quantize.work_overhead -. 1.) < 1e-6)

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "sched/quantize",
      [
        Alcotest.test_case "exact levels" `Quick test_quantize_exact_levels;
        Alcotest.test_case "rounding up" `Quick test_quantize_rounding_up;
        Alcotest.test_case "infeasible top" `Quick test_quantize_infeasible_top;
        Alcotest.test_case "finer is cheaper" `Quick test_quantize_finer_is_cheaper;
      ] );
    ( "sched/gantt",
      [
        Alcotest.test_case "renders" `Quick test_gantt_renders;
        Alcotest.test_case "conflict marker" `Quick test_gantt_conflict_marker;
        Alcotest.test_case "truncation" `Quick test_gantt_truncation;
      ] );
    ( "sched/profile",
      [
        Alcotest.test_case "empty" `Quick test_profile_empty;
        Alcotest.test_case "single slot" `Quick test_profile_single_slot;
        Alcotest.test_case "overlap additive" `Quick test_profile_overlap_additive;
        Alcotest.test_case "gap" `Quick test_profile_gap;
        Alcotest.test_case "coalesce" `Quick test_profile_coalesce;
        Alcotest.test_case "zero rate ignored" `Quick test_profile_zero_rate_ignored;
        Alcotest.test_case "cancellation" `Quick test_profile_cancellation;
        Alcotest.test_case "dynamic energy" `Quick test_profile_dynamic_energy;
        Alcotest.test_case "invalid" `Quick test_profile_invalid;
        qt prop_profile_volume_conserved;
      ] );
    ( "sched/schedule",
      [
        Alcotest.test_case "energy Eq.5" `Quick test_schedule_energy_eq5;
        Alcotest.test_case "of_densities + capacity verdict" `Quick
          test_schedule_of_densities;
        Alcotest.test_case "idle energy" `Quick test_schedule_idle_energy;
        Alcotest.test_case "active links" `Quick test_schedule_active_links;
        Alcotest.test_case "delivered" `Quick test_schedule_delivered;
        Alcotest.test_case "invalid path" `Quick test_schedule_invalid_path;
        Alcotest.test_case "duplicate flows" `Quick test_schedule_duplicate_flows;
        Alcotest.test_case "deadlines ok" `Quick test_check_deadlines_ok;
        Alcotest.test_case "wrong volume" `Quick test_check_wrong_volume;
        Alcotest.test_case "slot outside span" `Quick test_check_slot_outside_span;
        Alcotest.test_case "capacity" `Quick test_check_capacity;
        Alcotest.test_case "exclusive" `Quick test_check_exclusive;
        Alcotest.test_case "interval-density style" `Quick test_interval_density_style;
      ] );
  ]

let more_misc =
  [
    Alcotest.test_case "find_plan missing" `Quick test_schedule_find_plan_missing;
    Alcotest.test_case "gantt flow markers" `Quick test_gantt_flows_span_markers;
  ]

let more_cross_checks =
  [
    Alcotest.test_case "energy split" `Quick test_energy_split_consistency;
    Alcotest.test_case "check all modes" `Quick test_check_all_modes;
  ]

let more_boundaries =
  [
    Alcotest.test_case "profile boundaries" `Quick test_profile_boundary_semantics;
    QCheck_alcotest.to_alcotest prop_quantize_exact_ladder_no_overhead;
  ]
