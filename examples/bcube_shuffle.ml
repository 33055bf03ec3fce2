(* MapReduce shuffle on a BCube with power-down.

   BCube [15 in the paper] is a server-centric topology with multiple
   links per host — plenty of path diversity for the router to exploit.
   This example runs a mappers-to-reducers shuffle with a non-zero idle
   power (sigma > 0, the full Eq. 1 model), where consolidating traffic
   onto few links and switching the rest off matters as much as speed
   scaling.  It reports the energy split and the active-link counts of
   Random-Schedule vs shortest-path routing.

   Run with:  dune exec examples/bcube_shuffle.exe *)

module Workload = Dcn_flow.Workload
module Schedule = Dcn_sched.Schedule
module RS = Dcn_core.Random_schedule

let () =
  let graph = Dcn_topology.Builders.bcube ~n:4 ~level:1 in
  (* sigma chosen so the optimal operating rate (Lemma 3) is 4: links
     prefer to be either off or reasonably loaded. *)
  let power = Dcn_power.Model.make ~sigma:16. ~mu:1. ~alpha:2. () in
  let rng = Dcn_util.Prng.create 7 in
  let flows =
    Workload.shuffle ~rng ~graph ~mappers:6 ~reducers:4 ~volume:20. ~horizon:(0., 30.) ()
  in
  let inst = Dcn_core.Instance.make ~graph ~power ~flows in
  Format.printf "%a@." Dcn_core.Instance.pp inst;
  Format.printf "optimal operating rate R_opt = %g (Lemma 3)@.@."
    (Dcn_power.Model.r_opt power);

  let sp = Dcn_core.Baselines.sp_mcf inst in
  let rs = RS.solve ~rng inst in
  let lb = Dcn_core.Lower_bound.of_relaxation (Option.get (Dcn_core.Solution.relaxation rs)) in

  let describe label energy schedule =
    Format.printf "%s: energy %8.1f = idle %8.1f + dynamic %8.1f, %d active links@."
      label energy
      (Schedule.idle_energy schedule)
      (Schedule.dynamic_energy schedule)
      (List.length (Schedule.active_links schedule))
  in
  describe "Random-Schedule" rs.Dcn_core.Solution.energy rs.Dcn_core.Solution.schedule;
  describe "SP + MCF       " sp.Dcn_core.Solution.energy
    sp.Dcn_core.Solution.schedule;
  Format.printf "lower bound    : %8.1f@.@." lb.Dcn_core.Lower_bound.value;

  let report = Dcn_sim.Fluid.run rs.Dcn_core.Solution.schedule in
  Format.printf "Simulator: %a@." Dcn_sim.Fluid.pp_report report;
  assert report.Dcn_sim.Fluid.all_deadlines_met
