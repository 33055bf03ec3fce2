(* Partition-aggregate search traffic on a fat-tree.

   The paper's introduction motivates deadline-constrained flows with
   interactive services: a front-end fans a query out to many workers
   whose responses must all arrive before a latency budget expires
   (Section I; the D3/D2TCP/pFabric line of work).  This example builds
   that pattern — waves of incast flows on a k = 4 fat-tree — and
   compares joint scheduling + routing (Random-Schedule) with
   shortest-path routing (SP+MCF), checking the deadline guarantee of
   Theorem 4 in the simulator.

   Run with:  dune exec examples/fat_tree_search.exe *)

module Flow = Dcn_flow.Flow
module Workload = Dcn_flow.Workload
module RS = Dcn_core.Random_schedule

let () =
  let graph = Dcn_topology.Builders.fat_tree 4 in
  let power = Dcn_power.Model.make ~sigma:0. ~mu:1. ~alpha:2. () in
  let rng = Dcn_util.Prng.create 2024 in

  (* Three query waves, 50 ms apart, each with an 8-worker fan-in and a
     40 ms deadline (time unit: ms; volume unit: arbitrary). *)
  let waves = 3 and workers = 8 in
  let flows =
    List.concat
      (List.init waves (fun wave ->
           let t0 = 50. *. float_of_int wave in
           let wave_flows =
             Workload.incast ~rng ~graph ~sources:workers
               ~horizon:(t0, t0 +. 40.) ~volume:12. ()
           in
           List.map
             (fun (f : Flow.t) ->
               Flow.make
                 ~id:((wave * workers) + f.id)
                 ~src:f.src ~dst:f.dst ~volume:f.volume ~release:f.release
                 ~deadline:f.deadline)
             wave_flows))
  in
  let inst = Dcn_core.Instance.make ~graph ~power ~flows in
  Format.printf "%a@.@." Dcn_core.Instance.pp inst;

  let sp = Dcn_core.Baselines.sp_mcf inst in
  let rs = RS.solve ~rng inst in
  let lb = Dcn_core.Lower_bound.of_relaxation (Option.get (Dcn_core.Solution.relaxation rs)) in
  Format.printf "Energy:@.";
  Format.printf "  lower bound   %10.2f@." lb.Dcn_core.Lower_bound.value;
  Format.printf "  Random-Sched  %10.2f  (%.3fx LB)@." rs.Dcn_core.Solution.energy
    (rs.Dcn_core.Solution.energy /. lb.Dcn_core.Lower_bound.value);
  Format.printf "  SP + MCF      %10.2f  (%.3fx LB)@."
    sp.Dcn_core.Solution.energy
    (sp.Dcn_core.Solution.energy /. lb.Dcn_core.Lower_bound.value);

  (* Where did Random-Schedule route the fan-in?  Count the distinct
     paths per aggregator. *)
  let distinct_paths =
    List.length (List.sort_uniq compare (List.map snd (Dcn_core.Solution.paths rs)))
  in
  Format.printf "@.%d flows routed over %d distinct paths@." (List.length flows)
    distinct_paths;

  (* Theorem 4: every response meets its wave's deadline. *)
  let report = Dcn_sim.Fluid.run rs.Dcn_core.Solution.schedule in
  Format.printf "@.Simulator: %a@." Dcn_sim.Fluid.pp_report report;
  List.iter
    (fun (fs : Dcn_sim.Fluid.flow_stat) ->
      if not fs.met_deadline then
        Format.printf "  !! flow %d missed its deadline@." fs.flow_id)
    report.Dcn_sim.Fluid.flow_stats;
  assert report.Dcn_sim.Fluid.all_deadlines_met;
  Format.printf "All %d worker responses met their deadlines.@." (List.length flows)
