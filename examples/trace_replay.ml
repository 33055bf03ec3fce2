(* Replaying a production-like trace through every algorithm.

   Poisson arrivals, heavy-tailed (bounded-Pareto) flow sizes — the
   mice-and-elephants mix of real data centers — on a leaf-spine fabric.
   All four routing/scheduling policies run on the same trace:

   - SP+MCF      deterministic shortest paths, optimal DCFS rates
   - ECMP+MCF    random minimum-hop paths, optimal DCFS rates
   - Greedy-EAR  online energy-aware routing, density rates
   - RS          the paper's Random-Schedule (relaxation + rounding)

   and the fractional LB normalises everything.

   Run with:  dune exec examples/trace_replay.exe *)

module Workload = Dcn_flow.Workload
module Table = Dcn_util.Table

let () =
  let graph = Dcn_topology.Builders.leaf_spine ~spines:4 ~leaves:6 ~hosts_per_leaf:6 in
  let power = Dcn_power.Model.make ~sigma:0. ~mu:1. ~alpha:2. () in
  let rng = Dcn_util.Prng.create 99 in
  let flows = Workload.trace ~load:2. ~rng ~graph ~horizon:(0., 120.) () in
  let inst = Dcn_core.Instance.make ~graph ~power ~flows in
  Format.printf "%a@." Dcn_core.Instance.pp inst;
  let vols =
    Array.of_list (List.map (fun (f : Dcn_flow.Flow.t) -> f.volume) flows)
  in
  Format.printf "flow sizes: %a@.@." Dcn_util.Stats.pp_summary
    (Dcn_util.Stats.summarize vols);

  let rs = Dcn_core.Random_schedule.solve ~rng inst in
  let lb =
    (Dcn_core.Lower_bound.of_relaxation
       (Option.get (Dcn_core.Solution.relaxation rs)))
      .Dcn_core.Lower_bound.value
  in
  let sp = Dcn_core.Baselines.sp_mcf inst in
  let ecmp = Dcn_core.Baselines.ecmp_mcf ~rng inst in
  let ear = Dcn_core.Greedy_ear.solve inst in
  let rows =
    [
      ("lower bound", lb);
      ("Random-Schedule", rs.Dcn_core.Solution.energy);
      ("Greedy-EAR (online)", ear.Dcn_core.Solution.energy);
      ("ECMP + MCF", ecmp.Dcn_core.Solution.energy);
      ("SP + MCF", sp.Dcn_core.Solution.energy);
    ]
  in
  print_endline
    (Table.render
       ~headers:[ "policy"; "energy"; "vs LB" ]
       ~rows:
         (List.map
            (fun (name, e) ->
              [ name; Table.cell_f ~decimals:1 e; Table.cell_f (e /. lb) ])
            rows)
       ());

  (* The deadline guarantee survives the trace too. *)
  let report = Dcn_sim.Fluid.run rs.Dcn_core.Solution.schedule in
  Format.printf "@.Simulator: %a@." Dcn_sim.Fluid.pp_report report;
  assert report.Dcn_sim.Fluid.all_deadlines_met
