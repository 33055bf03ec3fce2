module Table = Dcn_util.Table
module Prng = Dcn_util.Prng

type row = {
  load : float;
  n_flows : int;
  sp : float;
  ecmp : float;
  ear : float;
  rs : float;
  deadlines_met : bool;
}

let run ?(alpha = 2.) ?(seed = 77) ?(horizon = 60.) ~loads () =
  let graph = Dcn_topology.Builders.leaf_spine ~spines:4 ~leaves:6 ~hosts_per_leaf:4 in
  let power = Dcn_power.Model.make ~sigma:0. ~mu:1. ~alpha () in
  List.map
    (fun load ->
      let rng = Prng.create seed in
      let flows = Dcn_flow.Workload.trace ~load ~rng ~graph ~horizon:(0., horizon) () in
      let inst = Dcn_core.Instance.make ~graph ~power ~flows in
      let rs =
        Dcn_core.Random_schedule.solve
          ~config:
            { Dcn_core.Random_schedule.attempts = 20; fw_config = Fig2.experiment_fw_config }
          ~rng inst
      in
      let lb =
        (Dcn_core.Lower_bound.of_relaxation
           (Option.get (Dcn_core.Solution.relaxation rs)))
          .Dcn_core.Lower_bound.value
      in
      let sp = Dcn_core.Baselines.sp_mcf inst in
      let ecmp = Dcn_core.Baselines.ecmp_mcf ~rng inst in
      let ear = Dcn_core.Greedy_ear.solve inst in
      let sim = Dcn_sim.Fluid.run rs.Dcn_core.Solution.schedule in
      {
        load;
        n_flows = List.length flows;
        sp = sp.Dcn_core.Solution.energy /. lb;
        ecmp = ecmp.Dcn_core.Solution.energy /. lb;
        ear = ear.Dcn_core.Solution.energy /. lb;
        rs = rs.Dcn_core.Solution.energy /. lb;
        deadlines_met = sim.Dcn_sim.Fluid.all_deadlines_met;
      })
    loads

let render rows =
  let headers =
    [ "load"; "flows"; "SP+MCF/LB"; "ECMP+MCF/LB"; "Greedy-EAR/LB"; "RS/LB"; "deadlines" ]
  in
  let row r =
    [
      Table.cell_f ~decimals:1 r.load;
      string_of_int r.n_flows;
      Table.cell_f r.sp;
      Table.cell_f r.ecmp;
      Table.cell_f r.ear;
      Table.cell_f r.rs;
      (if r.deadlines_met then "met" else "MISSED");
    ]
  in
  "Production-like traces (Poisson arrivals, bounded-Pareto sizes, leaf-spine)\n"
  ^ Table.render ~headers ~rows:(List.map row rows) ()
