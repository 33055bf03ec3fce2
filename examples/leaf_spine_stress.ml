(* Capacity-bound staged coflows on a leaf-spine fabric.

   With finite link capacity C, the randomised rounding of Algorithm 2
   can overload a link; the paper's remedy is to redraw until feasible.
   This example drives a leaf-spine fabric with staged batches of flows
   at increasing load and watches the rounding: attempts used, final
   feasibility, peak link utilisation, and how the deadline guarantee
   holds up in the simulator.

   Run with:  dune exec examples/leaf_spine_stress.exe *)

module Workload = Dcn_flow.Workload
module Schedule = Dcn_sched.Schedule
module RS = Dcn_core.Random_schedule
module Solution = Dcn_core.Solution

let () =
  let graph = Dcn_topology.Builders.leaf_spine ~spines:3 ~leaves:4 ~hosts_per_leaf:4 in
  let cap = 8. in
  let power = Dcn_power.Model.make ~sigma:0. ~mu:1. ~alpha:2. ~cap () in
  Format.printf "leaf-spine 3x4, 16 hosts, link capacity %g@.@." cap;

  List.iter
    (fun flows_per_stage ->
      let rng = Dcn_util.Prng.create (100 + flows_per_stage) in
      let flows =
        Workload.staged ~rng ~graph ~stages:3 ~flows_per_stage ~stage_length:10.
          ~volume:15. ()
      in
      let inst = Dcn_core.Instance.make ~graph ~power ~flows in
      let rs =
        RS.solve
          ~config:{ RS.default_config with attempts = 50 }
          ~rng inst
      in
      let peak = Schedule.max_link_rate rs.Solution.schedule in
      let report = Dcn_sim.Fluid.run rs.Solution.schedule in
      Format.printf
        "%2d flows/stage: %s after %2d draw(s), peak link rate %6.2f/%g, deadlines %s@."
        flows_per_stage
        (if rs.Solution.feasible then "feasible  " else "INFEASIBLE")
        (Solution.attempts_used rs) peak cap
        (if report.Dcn_sim.Fluid.all_deadlines_met then "met" else "MISSED"))
    [ 4; 8; 16; 24; 32 ]
