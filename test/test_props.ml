(* Third batch: randomised end-to-end invariants tying several
   subsystems together. *)

module Builders = Dcn_topology.Builders
module Flow = Dcn_flow.Flow
module Model = Dcn_power.Model
module Schedule = Dcn_sched.Schedule
module Prng = Dcn_util.Prng
open Dcn_core

let quick_fw =
  { Dcn_mcf.Frank_wolfe.default_config with max_iters = 40 }

let seed_gen = QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))

let small_instance ?(n = 8) seed =
  let graph = Builders.fat_tree 4 in
  let rng = Prng.create seed in
  let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n () in
  (Instance.make ~graph ~power:Model.quadratic ~flows, rng)

(* Theorem 2's structure holds for random solvable instances, not just
   the hand-picked one: enumeration always finds exactly the closed
   form. *)
let prop_gadget_random_instances =
  QCheck.Test.make ~name:"gadgets: exact = closed form on random yes-instances" ~count:5
    seed_gen (fun seed ->
      let rng = Prng.create seed in
      let tp = Gadgets.solvable_three_partition ~m:2 ~b:20 ~rng in
      let inst = Gadgets.three_partition_instance ~links:3 tp in
      let exact = (Exact.search ~max_combinations:100_000 inst).Exact.energy in
      Float.abs (exact -. Gadgets.three_partition_opt_energy tp) < 1e-6)

(* Serialisation is solver-transparent. *)
let prop_serialize_solver_transparent =
  QCheck.Test.make ~name:"serialize: reloaded instances solve identically" ~count:10
    seed_gen (fun seed ->
      let inst, _ = small_instance seed in
      let back = Serialize.instance_of_string (Serialize.instance_to_string inst) in
      let e1 = (Baselines.sp_mcf inst).Solution.energy in
      let e2 = (Baselines.sp_mcf back).Solution.energy in
      Float.abs (e1 -. e2) < 1e-9 *. Float.max 1. e1)

(* Schedules round-trip through the v1 text format: re-importing
   against the same instance reproduces the text verbatim (and hence
   the schedule, field by field). *)
let prop_schedule_roundtrip =
  QCheck.Test.make ~name:"serialize: schedule_of_string inverts schedule_to_string"
    ~count:10 seed_gen (fun seed ->
      let inst, rng = small_instance seed in
      let rs =
        Random_schedule.solve
          ~config:{ Random_schedule.attempts = 3; fw_config = quick_fw }
          ~rng inst
      in
      let text = Serialize.schedule_to_string rs.Solution.schedule in
      let back = Serialize.schedule_of_string inst text in
      Serialize.schedule_to_string back = text
      && Float.abs (Schedule.energy back -. Schedule.energy rs.Solution.schedule)
         < 1e-9 *. Float.max 1. (Schedule.energy rs.Solution.schedule))

(* The v1 parser rejects schedules that name flows the instance does
   not have. *)
let prop_schedule_roundtrip_unknown_flow =
  QCheck.Test.make ~name:"serialize: schedule parser rejects unknown flow ids"
    ~count:5 seed_gen (fun seed ->
      let inst, _ = small_instance ~n:4 seed in
      let text = "dcnsched-schedule v1\nplan 9999 0\nslot 0 1 1\n" in
      try
        ignore (Serialize.schedule_of_string inst text);
        false
      with Failure _ -> true)

(* Admission control partitions the flow set. *)
let prop_online_partitions =
  QCheck.Test.make ~name:"online: accepted and rejected partition the flows" ~count:15
    seed_gen (fun seed ->
      let graph = Builders.fat_tree 4 in
      let power = Model.make ~sigma:0. ~mu:1. ~alpha:2. ~cap:1.5 () in
      let rng = Prng.create seed in
      let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n:15 () in
      let inst = Instance.make ~graph ~power ~flows in
      let online = Online.solve inst in
      let all = List.sort compare (List.map (fun (f : Flow.t) -> f.id) flows) in
      List.sort compare (Solution.accepted online @ Solution.rejected online) = all)

(* Splitting leaves the fractional LB (per-interval demands) unchanged
   up to solver tolerance. *)
let prop_split_lb_invariant =
  QCheck.Test.make ~name:"split: fractional LB invariant under splitting" ~count:5
    seed_gen (fun seed ->
      let inst, _ = small_instance ~n:6 seed in
      let lb1 =
        (Lower_bound.compute ~fw_config:quick_fw inst).Lower_bound.fractional_cost
      in
      let split_flows = Dcn_flow.Split.workload inst.Instance.flows ~parts:2 in
      let inst2 =
        Instance.make ~graph:inst.Instance.graph ~power:inst.Instance.power
          ~flows:split_flows
      in
      let lb2 =
        (Lower_bound.compute ~fw_config:quick_fw inst2).Lower_bound.fractional_cost
      in
      Float.abs (lb1 -. lb2) /. Float.max 1. lb1 < 0.03)

(* The fluid simulator and the certificate agree on capacity. *)
let prop_sim_checker_capacity_agree =
  QCheck.Test.make ~name:"fluid sim: capacity verdict matches Certify" ~count:15
    seed_gen (fun seed ->
      let graph = Builders.fat_tree 4 in
      let power = Model.make ~sigma:0. ~mu:1. ~alpha:2. ~cap:1.2 () in
      let rng = Prng.create seed in
      let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n:10 () in
      let inst = Instance.make ~graph ~power ~flows in
      let rs = Random_schedule.solve ~config:{ Random_schedule.attempts = 3; fw_config = quick_fw } ~rng inst in
      let s = rs.Solution.schedule in
      let sim = Dcn_sim.Fluid.run s in
      sim.Dcn_sim.Fluid.capacity_respected
      = not
          (List.exists
             (function Dcn_check.Certify.Capacity_exceeded _ -> true | _ -> false)
             (Dcn_check.Certify.schedule inst s)))

(* Greedy-EAR is never (materially) worse than deterministic SP under
   pure speed scaling: SP is in EAR's search space for every flow, so
   each greedy step picks something at most as expensive marginally.
   (Not a theorem for the final sum — allow generous slack and flag
   only large regressions.) *)
let prop_ear_not_catastrophic_vs_sp =
  QCheck.Test.make ~name:"greedy-ear: within 2x of SP+MCF on small instances" ~count:10
    seed_gen (fun seed ->
      let inst, _ = small_instance ~n:10 seed in
      let ear = (Greedy_ear.solve inst).Solution.energy in
      let sp = (Baselines.sp_mcf inst).Solution.energy in
      ear <= 2. *. sp)

(* Packetisation conserves data at several granularities. *)
let prop_packet_sizes_all_deliver =
  QCheck.Test.make ~name:"packet sim: delivery at multiple packet sizes" ~count:8
    seed_gen (fun seed ->
      let inst, _ = small_instance ~n:5 seed in
      let res = Baselines.sp_mcf inst in
      List.for_all
        (fun packet_size ->
          (Dcn_sim.Packet.run ~config:{ Dcn_sim.Packet.packet_size }
             res.Solution.schedule)
            .Dcn_sim.Packet.all_delivered)
        [ 5.0; 1.0; 0.25 ])

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "props/end-to-end",
      [
        qt prop_gadget_random_instances;
        qt prop_serialize_solver_transparent;
        qt prop_schedule_roundtrip;
        qt prop_schedule_roundtrip_unknown_flow;
        qt prop_online_partitions;
        qt prop_split_lb_invariant;
        qt prop_sim_checker_capacity_agree;
        qt prop_ear_not_catastrophic_vs_sp;
        qt prop_packet_sizes_all_deliver;
      ] );
  ]
