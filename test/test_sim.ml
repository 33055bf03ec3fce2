(* Tests for Dcn_sim.Fluid: the simulator must agree with the analytic
   energy accounting, verify Theorem 4 for Random-Schedule output, and
   catch broken schedules. *)

module Fluid = Dcn_sim.Fluid
module Schedule = Dcn_sched.Schedule
module Builders = Dcn_topology.Builders
module Flow = Dcn_flow.Flow
module Model = Dcn_power.Model
module Prng = Dcn_util.Prng

let check_float = Alcotest.(check (float 1e-6))

let line3 = Builders.line 3

let path g ~src ~dst =
  match Dcn_topology.Paths.shortest_path g ~src ~dst with
  | Some p -> p
  | None -> Alcotest.fail "no path"

let mk_schedule ?(power = Model.quadratic) plans =
  Schedule.make ~graph:line3 ~power ~horizon:(0., 4.) plans

let full_plan ?(rate = 1.) f =
  {
    Schedule.flow = f;
    path = path line3 ~src:f.Flow.src ~dst:f.Flow.dst;
    slots = [ { Schedule.start = f.Flow.release; stop = f.Flow.deadline; rate } ];
  }

let test_sim_matches_analytic () =
  let f = Flow.make ~id:0 ~src:0 ~dst:2 ~volume:4. ~release:0. ~deadline:4. in
  let s = mk_schedule [ full_plan f ] in
  let r = Fluid.run s in
  check_float "energy matches Schedule.energy" (Schedule.energy s) r.Fluid.energy;
  Alcotest.(check bool) "deadlines met" true r.Fluid.all_deadlines_met;
  Alcotest.(check int) "two active links" 2 (List.length r.Fluid.link_stats);
  check_float "max rate" 1. r.Fluid.max_rate

let test_sim_flow_stats () =
  let f = Flow.make ~id:7 ~src:0 ~dst:2 ~volume:4. ~release:0. ~deadline:4. in
  let s = mk_schedule [ full_plan f ] in
  let r = Fluid.run s in
  match r.Fluid.flow_stats with
  | [ fs ] ->
    Alcotest.(check int) "id" 7 fs.Fluid.flow_id;
    check_float "delivered" 4. fs.Fluid.delivered;
    (match fs.Fluid.completion with
    | Some t -> check_float "completes at deadline" 4. t
    | None -> Alcotest.fail "no completion");
    Alcotest.(check bool) "met" true fs.Fluid.met_deadline
  | _ -> Alcotest.fail "expected one flow stat"

let test_sim_detects_missed_deadline () =
  (* Rate too small: only half the volume arrives. *)
  let f = Flow.make ~id:0 ~src:0 ~dst:2 ~volume:8. ~release:0. ~deadline:4. in
  let s = mk_schedule [ full_plan ~rate:1. f ] in
  let r = Fluid.run s in
  Alcotest.(check bool) "missed" false r.Fluid.all_deadlines_met;
  match r.Fluid.flow_stats with
  | [ fs ] ->
    check_float "delivered half" 4. fs.Fluid.delivered;
    Alcotest.(check bool) "no completion" true (fs.Fluid.completion = None)
  | _ -> Alcotest.fail "expected one flow stat"

let test_sim_capacity_flag () =
  let power = Model.make ~sigma:0. ~mu:1. ~alpha:2. ~cap:0.5 () in
  let f = Flow.make ~id:0 ~src:0 ~dst:2 ~volume:4. ~release:0. ~deadline:4. in
  let s = mk_schedule ~power [ full_plan f ] in
  let r = Fluid.run s in
  Alcotest.(check bool) "over capacity" false r.Fluid.capacity_respected

let test_sim_aggregates_link_rates () =
  (* Two flows overlap on the first link: peak = sum of rates. *)
  let f1 = Flow.make ~id:0 ~src:0 ~dst:1 ~volume:4. ~release:0. ~deadline:4. in
  let f2 = Flow.make ~id:1 ~src:0 ~dst:2 ~volume:8. ~release:0. ~deadline:4. in
  let s = mk_schedule [ full_plan ~rate:1. f1; full_plan ~rate:2. f2 ] in
  let r = Fluid.run s in
  check_float "peak on shared link" 3. r.Fluid.max_rate;
  (* energy: link0 3^2*4 = 36, link1 2^2*4 = 16. *)
  check_float "energy" 52. r.Fluid.energy

let test_sim_idle_energy () =
  let power = Model.make ~sigma:1. ~mu:1. ~alpha:2. () in
  let f = Flow.make ~id:0 ~src:0 ~dst:2 ~volume:1. ~release:1. ~deadline:2. in
  let plan =
    {
      Schedule.flow = f;
      path = path line3 ~src:0 ~dst:2;
      slots = [ { Schedule.start = 1.; stop = 2.; rate = 1. } ];
    }
  in
  let s = Schedule.make ~graph:line3 ~power ~horizon:(0., 4.) [ plan ] in
  let r = Fluid.run s in
  (* sigma charged over the whole horizon for both active links. *)
  check_float "idle" 8. r.Fluid.idle_energy;
  check_float "dynamic" 2. r.Fluid.dynamic_energy

(* Agreement property: simulator and analytic accounting coincide on
   Most-Critical-First and Random-Schedule outputs. *)
let prop_sim_agrees_with_mcf =
  QCheck.Test.make ~name:"fluid sim: agrees with Most-Critical-First energy" ~count:20
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let graph = Builders.fat_tree 4 in
      let rng = Prng.create seed in
      let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n:6 () in
      let inst = Dcn_core.Instance.make ~graph ~power:Model.quadratic ~flows in
      let res = Dcn_core.Baselines.sp_mcf inst in
      let r = Fluid.run res.Dcn_core.Solution.schedule in
      (not (Dcn_core.Solution.placement_complete res))
      || Dcn_util.Approx.close_rel ~rtol:1e-6 r.Fluid.energy
           res.Dcn_core.Solution.energy
         && r.Fluid.all_deadlines_met)

let prop_sim_rs_theorem4 =
  QCheck.Test.make ~name:"fluid sim: Random-Schedule meets deadlines (Theorem 4)"
    ~count:10
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let graph = Builders.fat_tree 4 in
      let rng = Prng.create seed in
      let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n:8 () in
      let inst = Dcn_core.Instance.make ~graph ~power:Model.quadratic ~flows in
      let rs =
        Dcn_core.Random_schedule.solve
          ~config:
            {
              Dcn_core.Random_schedule.attempts = 10;
              fw_config =
                { Dcn_mcf.Frank_wolfe.default_config with max_iters = 40 };
            }
          ~rng inst
      in
      let r = Fluid.run rs.Dcn_core.Solution.schedule in
      r.Fluid.all_deadlines_met
      && Dcn_util.Approx.close_rel ~rtol:1e-6 r.Fluid.energy
           rs.Dcn_core.Solution.energy)

(* ------------------------------------------------------------------ *)
(* Packet-level simulator                                             *)
(* ------------------------------------------------------------------ *)

let example1_schedule () =
  let graph = Builders.line 3 in
  let f1 = Flow.make ~id:1 ~src:0 ~dst:2 ~volume:6. ~release:2. ~deadline:4. in
  let f2 = Flow.make ~id:2 ~src:0 ~dst:1 ~volume:8. ~release:1. ~deadline:3. in
  let inst = Dcn_core.Instance.make ~graph ~power:Model.quadratic ~flows:[ f1; f2 ] in
  (Dcn_core.Baselines.sp_mcf inst).Dcn_core.Solution.schedule

let test_packet_delivers_everything () =
  let r = Dcn_sim.Packet.run (example1_schedule ()) in
  Alcotest.(check bool) "all delivered" true r.Dcn_sim.Packet.all_delivered;
  List.iter
    (fun (fr : Dcn_sim.Packet.flow_report) ->
      Alcotest.(check int) "no loss" fr.packets fr.delivered)
    r.Dcn_sim.Packet.flow_reports

let test_packet_counts () =
  (* Volumes 6 and 8 at packet size 1.0: 6 + 8 packets. *)
  let r =
    Dcn_sim.Packet.run ~config:{ Dcn_sim.Packet.packet_size = 1.0 } (example1_schedule ())
  in
  let total = List.fold_left (fun acc (fr : Dcn_sim.Packet.flow_report) -> acc + fr.packets) 0 r.Dcn_sim.Packet.flow_reports in
  Alcotest.(check int) "14 packets" 14 total

let test_packet_lateness_shrinks_with_packet_size () =
  let sched = example1_schedule () in
  let late size =
    (Dcn_sim.Packet.run ~config:{ Dcn_sim.Packet.packet_size = size } sched)
      .Dcn_sim.Packet.max_lateness
  in
  let l1 = late 1.0 and l01 = late 0.1 in
  Alcotest.(check bool) "smaller packets, less lateness" true (l01 < l1);
  Alcotest.(check bool) "fluid limit approached" true (l01 < 0.1)

let test_packet_pipeline_bound () =
  let r = Dcn_sim.Packet.run (example1_schedule ()) in
  Alcotest.(check bool) "within pipeline slack" true
    r.Dcn_sim.Packet.within_pipeline_slack

let test_packet_priority_order () =
  (* Two flows share a single link, disjoint slot windows by MCF; the
     earlier-starting flow has priority (paper Section III: priority by
     r'_i).  At coarse packet size, its packets must never queue behind
     the later flow. *)
  let graph = Builders.line 2 in
  let f1 = Flow.make ~id:1 ~src:0 ~dst:1 ~volume:4. ~release:0. ~deadline:4. in
  let f2 = Flow.make ~id:2 ~src:0 ~dst:1 ~volume:4. ~release:0. ~deadline:8. in
  let inst = Dcn_core.Instance.make ~graph ~power:Model.quadratic ~flows:[ f1; f2 ] in
  let sched = (Dcn_core.Baselines.sp_mcf inst).Dcn_core.Solution.schedule in
  let r = Dcn_sim.Packet.run sched in
  Alcotest.(check bool) "delivered" true r.Dcn_sim.Packet.all_delivered;
  Alcotest.(check bool) "bounded lateness" true r.Dcn_sim.Packet.within_pipeline_slack

let test_packet_invalid_size () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Dcn_sim.Packet.run ~config:{ Dcn_sim.Packet.packet_size = 0. }
            (example1_schedule ()));
       false
     with Invalid_argument _ -> true)

let prop_packet_conservation =
  QCheck.Test.make ~name:"packet sim: every packet of every flow arrives" ~count:15
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let graph = Builders.fat_tree 4 in
      let rng = Prng.create seed in
      let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n:6 () in
      let inst = Dcn_core.Instance.make ~graph ~power:Model.quadratic ~flows in
      let res = Dcn_core.Baselines.sp_mcf inst in
      let r =
        Dcn_sim.Packet.run
          ~config:{ Dcn_sim.Packet.packet_size = 2.0 }
          res.Dcn_core.Solution.schedule
      in
      r.Dcn_sim.Packet.all_delivered)

(* ------------------------------------------------------------------ *)
(* Fragmented slots, coarse packets, early completion (groups         *)
(* more/misc, more/identifiers-and-boundaries)                        *)
(* ------------------------------------------------------------------ *)

let test_fluid_multiple_slots () =
  let f = Flow.make ~id:0 ~src:0 ~dst:2 ~volume:3. ~release:0. ~deadline:6. in
  let plan =
    {
      Schedule.flow = f;
      path = path line3 ~src:0 ~dst:2;
      slots =
        [
          { Schedule.start = 0.; stop = 1.; rate = 1. };
          { Schedule.start = 2.; stop = 3.; rate = 1. };
          { Schedule.start = 4.; stop = 5.; rate = 1. };
        ];
    }
  in
  let s = Schedule.make ~graph:line3 ~power:Model.quadratic ~horizon:(0., 6.) [ plan ] in
  let r = Fluid.run s in
  Alcotest.(check bool) "deadline met" true r.Fluid.all_deadlines_met;
  match r.Fluid.flow_stats with
  | [ fs ] -> (
    Alcotest.(check (float 1e-9)) "delivered 3" 3. fs.Fluid.delivered;
    match fs.Fluid.completion with
    | Some t -> Alcotest.(check (float 1e-9)) "completes at 5" 5. t
    | None -> Alcotest.fail "no completion")
  | _ -> Alcotest.fail "one flow expected"

let test_packet_single_huge_packet () =
  (* Packet bigger than the whole flow: exactly one packet. *)
  let g = Builders.line 2 in
  let f = Flow.make ~id:0 ~src:0 ~dst:1 ~volume:3. ~release:0. ~deadline:3. in
  let plan =
    {
      Schedule.flow = f;
      path = path g ~src:0 ~dst:1;
      slots = [ { Schedule.start = 0.; stop = 3.; rate = 1. } ];
    }
  in
  let s = Schedule.make ~graph:g ~power:Model.quadratic ~horizon:(0., 3.) [ plan ] in
  let r = Dcn_sim.Packet.run ~config:{ Dcn_sim.Packet.packet_size = 10. } s in
  match r.Dcn_sim.Packet.flow_reports with
  | [ fr ] ->
    Alcotest.(check int) "one packet" 1 fr.Dcn_sim.Packet.packets;
    Alcotest.(check int) "delivered" 1 fr.Dcn_sim.Packet.delivered
  | _ -> Alcotest.fail "one flow expected"

(* Fluid: early completion is reported before the deadline. *)
let test_fluid_early_completion () =
  let graph = Builders.line 2 in
  let f = Flow.make ~id:0 ~src:0 ~dst:1 ~volume:2. ~release:0. ~deadline:10. in
  let plan =
    {
      Schedule.flow = f;
      path = path graph ~src:0 ~dst:1;
      slots = [ { Schedule.start = 0.; stop = 1.; rate = 2. } ];
    }
  in
  let s = Schedule.make ~graph ~power:Model.quadratic ~horizon:(0., 10.) [ plan ] in
  let r = Fluid.run s in
  match r.Fluid.flow_stats with
  | [ fs ] -> (
    match fs.Fluid.completion with
    | Some t -> check_float "completes at 1" 1. t
    | None -> Alcotest.fail "no completion")
  | _ -> Alcotest.fail "one flow"

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "sim/packet",
      [
        Alcotest.test_case "delivers everything" `Quick test_packet_delivers_everything;
        Alcotest.test_case "packet counts" `Quick test_packet_counts;
        Alcotest.test_case "lateness shrinks" `Quick
          test_packet_lateness_shrinks_with_packet_size;
        Alcotest.test_case "pipeline bound" `Quick test_packet_pipeline_bound;
        Alcotest.test_case "priority order" `Quick test_packet_priority_order;
        Alcotest.test_case "invalid size" `Quick test_packet_invalid_size;
        qt prop_packet_conservation;
      ] );
    ( "sim/fluid",
      [
        Alcotest.test_case "matches analytic" `Quick test_sim_matches_analytic;
        Alcotest.test_case "flow stats" `Quick test_sim_flow_stats;
        Alcotest.test_case "missed deadline" `Quick test_sim_detects_missed_deadline;
        Alcotest.test_case "capacity flag" `Quick test_sim_capacity_flag;
        Alcotest.test_case "aggregates link rates" `Quick test_sim_aggregates_link_rates;
        Alcotest.test_case "idle energy" `Quick test_sim_idle_energy;
        qt prop_sim_agrees_with_mcf;
        qt prop_sim_rs_theorem4;
      ] );
  ]

let more_misc =
  [
    Alcotest.test_case "fluid fragmented slots" `Quick test_fluid_multiple_slots;
    Alcotest.test_case "packet huge packet" `Quick test_packet_single_huge_packet;
  ]

let more_boundaries =
  [ Alcotest.test_case "fluid early completion" `Quick test_fluid_early_completion ]
