(* Three groups keep the names their cases ran under before they moved
   into the suites of the code they test, so the cases keep their
   test ids. *)
let moved =
  [
    ( "more/misc",
      Test_topology.more_misc @ Test_util.more_misc @ Test_flow.more_misc
      @ Test_sched.more_misc @ Test_core.more_misc @ Test_experiments.more_misc
      @ Test_mcf.more_misc @ Test_sim.more_misc );
    ( "more/cross-checks",
      Test_speed_scaling.more_cross_checks @ Test_core.more_cross_checks
      @ Test_util.more_cross_checks @ Test_sched.more_cross_checks
      @ Test_flow.more_cross_checks );
    ( "more/identifiers-and-boundaries",
      Test_core.more_boundaries @ Test_sched.more_boundaries
      @ Test_util.more_boundaries @ Test_speed_scaling.more_boundaries
      @ Test_sim.more_boundaries );
  ]

let () =
  Alcotest.run "dcnsched"
    (List.concat
       [
         Test_util.suite;
         Test_topology.suite;
         Test_power.suite;
         Test_flow.suite;
         Test_speed_scaling.suite;
         Test_mcf.suite;
         Test_sched.suite;
         Test_core.suite;
         Test_sim.suite;
         Test_experiments.suite;
         moved;
         Test_props.suite;
         Test_regression.suite;
         Test_engine.suite;
         Test_trace.suite;
         Test_profile.suite;
         Test_check.suite;
         Test_resilience.suite;
         Test_serve.suite;
         Test_coflow.suite;
         Test_obs.suite;
         Test_durable.suite;
         Test_sweep.suite;
       ])
