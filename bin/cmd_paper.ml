(* The paper's experiments (DESIGN.md): `fig2` regenerates the Figure 2
   series, `gadgets` runs the Theorem 2/3 reductions, `ablation` the
   extra studies, `small-exact` the approximation-vs-optimum comparison
   and `example1` the paper's worked example. *)

open Cmdliner
module Json = Dcn_engine.Json

let fig2 =
  let quick_t =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small network (k=4) and fewer seeds.")
  in
  let seeds_t =
    Arg.(value & opt int 0 & info [ "seeds" ] ~doc:"Number of seeds (0 = preset default).")
  in
  let counts_t =
    Arg.(
      value
      & opt (list int) []
      & info [ "counts" ] ~doc:"Comma-separated flow counts (empty = preset).")
  in
  let csv_t =
    Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Also write the series as CSV to $(docv)." ~docv:"FILE")
  in
  let run alpha quick seeds counts csv trace report jobs =
    Cli.run ~command:"fig2" ~jobs ~trace ~report @@ fun pool ->
    let params =
      if quick then Dcn_experiments.Fig2.quick_params ~alpha
      else Dcn_experiments.Fig2.default_params ~alpha
    in
    let params =
      { params with
        Dcn_experiments.Fig2.seeds =
          (if seeds = 0 then params.Dcn_experiments.Fig2.seeds
           else List.init seeds (fun i -> 1000 + i));
        flow_counts = (if counts = [] then params.Dcn_experiments.Fig2.flow_counts else counts);
      }
    in
    let res =
      Dcn_experiments.Fig2.run
        ~progress:(fun msg -> Printf.eprintf "[fig2] %s\n%!" msg)
        ~pool params
    in
    print_endline (Dcn_experiments.Fig2.render res);
    Option.iter
      (fun path -> Observe.write_file path (Dcn_experiments.Fig2.to_csv res))
      csv;
    ([ ("fig2", Dcn_experiments.Fig2.to_json res) ], Ok ())
  in
  Cli.cmd "fig2" ~doc:"Regenerate Figure 2 of the paper (E1/E2)."
    Term.(
      const run $ Cli.alpha_t $ quick_t $ seeds_t $ counts_t $ csv_t
      $ Observe.trace_t $ Observe.report_t $ Cli.jobs_t)

let gadgets =
  let run alpha seed trace report =
    Cli.run ~command:"gadgets" ~trace ~report @@ fun _ ->
    let tp = Dcn_experiments.Gadget_runs.three_partition ~seed ~alpha () in
    print_endline (Dcn_experiments.Gadget_runs.render_three_partition tp);
    let p = Dcn_experiments.Gadget_runs.partition ~alpha () in
    print_endline (Dcn_experiments.Gadget_runs.render_partition p);
    ( [
        ( "gadgets",
          Json.Obj
            [
              ("three_partition", Dcn_experiments.Gadget_runs.three_partition_to_json tp);
              ("partition", Dcn_experiments.Gadget_runs.partition_to_json p);
            ] );
      ],
      Ok () )
  in
  Cli.cmd "gadgets" ~doc:"Run the Theorem 2/3 hardness gadgets (E4/E5)."
    Term.(const run $ Cli.alpha_t $ Cli.seed_t $ Observe.trace_t $ Observe.report_t)

let ablation =
  let run alpha trace report jobs =
    Cli.run ~command:"ablation" ~jobs ~trace ~report @@ fun pool ->
    let module A = Dcn_experiments.Ablation in
    let show render rows =
      print_endline (render rows);
      print_newline ();
      rows
    in
    let pd = show A.render_power_down (A.power_down ~alpha ~pool ~sigmas:[ 0.; 10.; 50.; 200. ] ()) in
    let cap = show A.render_capacity (A.capacity_stress ~alpha ~pool ~caps:[ infinity; 10.; 6.; 4. ] ()) in
    let refi = show A.render_refinement (A.refinement ~alpha ~pool ~ns:[ 10; 20; 40 ] ()) in
    let rout = show A.render_routing (A.routing_comparison ~alpha ~pool ~ns:[ 10; 20; 40 ] ()) in
    let lb = show A.render_lb (A.lb_tightness ~alpha ~pool ~ns:[ 10; 20; 40 ] ()) in
    let spl = show A.render_splitting (A.splitting ~alpha ~pool ~parts:[ 1; 2; 4; 8 ] ()) in
    let rl = show A.render_rate_levels (A.rate_levels ~alpha ~pool ~counts:[ 2; 4; 8; 16 ] ()) in
    let adm = show A.render_admission (A.admission ~alpha ~pool ~loads:[ 0.5; 1.; 2.; 4. ] ()) in
    let fl = show A.render_failures (A.failures ~alpha ~pool ~counts:[ 0; 4; 8; 12 ] ()) in
    ( [
        ( "ablation",
          Json.Obj
            [
              ("power_down", A.power_down_to_json pd);
              ("capacity", A.capacity_to_json cap);
              ("refinement", A.refinement_to_json refi);
              ("routing", A.routing_to_json rout);
              ("lb_tightness", A.lb_to_json lb);
              ("splitting", A.splitting_to_json spl);
              ("rate_levels", A.rate_levels_to_json rl);
              ("admission", A.admission_to_json adm);
              ("failures", A.failures_to_json fl);
            ] );
      ],
      Ok () )
  in
  Cli.cmd "ablation" ~doc:"Run all the E7 ablations (power-down, capacity, refinement, routing, LB tightness, splitting, discrete rates, admission, failures)."
    Term.(const run $ Cli.alpha_t $ Observe.trace_t $ Observe.report_t $ Cli.jobs_t)

let small_exact =
  let run alpha trace report =
    Cli.run ~command:"small-exact" ~trace ~report @@ fun _ ->
    let rows =
      Dcn_experiments.Small_exact.run ~alpha ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8 ] ()
    in
    print_endline (Dcn_experiments.Small_exact.render rows);
    ([ ("small_exact", Dcn_experiments.Small_exact.to_json rows) ], Ok ())
  in
  Cli.cmd "small-exact" ~doc:"Compare Random-Schedule with the exact optimum (E8)."
    Term.(const run $ Cli.alpha_t $ Observe.trace_t $ Observe.report_t)

let example1 =
  let run trace report =
    Cli.run ~command:"example1" ~trace ~report @@ fun _ ->
    let graph = Dcn_topology.Builders.line 3 in
    let power = Dcn_power.Model.quadratic in
    let f1 = Dcn_flow.Flow.make ~id:1 ~src:0 ~dst:2 ~volume:6. ~release:2. ~deadline:4. in
    let f2 = Dcn_flow.Flow.make ~id:2 ~src:0 ~dst:1 ~volume:8. ~release:1. ~deadline:3. in
    let inst = Dcn_core.Instance.make ~graph ~power ~flows:[ f1; f2 ] in
    let res = Dcn_core.Baselines.sp_mcf inst in
    let s2 = (8. +. (6. *. sqrt 2.)) /. 3. in
    Printf.printf "Example 1 (Figure 1): line A-B-C, f(x) = x^2\n";
    Printf.printf "  flow 1: A->C, w=6, span [2,4]   flow 2: A->B, w=8, span [1,3]\n";
    Printf.printf "  computed rates: s1 = %.6f, s2 = %.6f\n"
      (Option.value ~default:nan (Dcn_core.Solution.find_rate res 1))
      (Option.value ~default:nan (Dcn_core.Solution.find_rate res 2));
    Printf.printf "  paper's optimum: s1 = %.6f, s2 = %.6f (sqrt 2 * s1 = s2 = (8+6*sqrt 2)/3)\n"
      (s2 /. sqrt 2.) s2;
    Printf.printf "  energy: %.6f\n" res.Dcn_core.Solution.energy;
    ([ ("example1", Dcn_core.Serialize.solution_to_json res) ], Ok ())
  in
  Cli.cmd "example1" ~doc:"Run the paper's worked Example 1 (E3)."
    Term.(const run $ Observe.trace_t $ Observe.report_t)
