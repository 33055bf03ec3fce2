(* `generate` writes a seeded instance file; `solve` runs the algorithms
   on one, generated or read back. *)

open Cmdliner
module Json = Dcn_engine.Json

let flows_t = Arg.(value & opt int 20 & info [ "flows" ] ~doc:"Number of flows.")

let pattern_t =
  Arg.(
    value
    & opt
        (enum
           [
             ("random", `Random);
             ("incast", `Incast);
             ("shuffle", `Shuffle);
             ("stride", `Stride);
             ("trace", `Trace);
           ])
        `Random
    & info [ "pattern" ] ~doc:"Workload pattern: random, incast, shuffle, stride, trace.")

let build_instance graph n alpha sigma pattern seed =
  let power = Dcn_power.Model.make ~sigma ~mu:1. ~alpha () in
  let rng = Dcn_util.Prng.create seed in
  let flows =
    match pattern with
    | `Random -> Dcn_flow.Workload.paper_random ~rng ~graph ~n ()
    | `Incast -> Dcn_flow.Workload.incast ~rng ~graph ~sources:n ~horizon:(0., 10.) ()
    | `Shuffle ->
      Dcn_flow.Workload.shuffle ~rng ~graph ~mappers:(max 1 (n / 4)) ~reducers:4
        ~horizon:(0., 10.) ()
    | `Stride -> Dcn_flow.Workload.stride ~graph ~stride:1 ~horizon:(0., 10.) ()
    | `Trace -> Dcn_flow.Workload.trace ~rng ~graph ~horizon:(0., 50.) ()
  in
  Dcn_core.Instance.make ~graph ~power ~flows

let generate =
  let out_t =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc:"Output file (default stdout).")
  in
  let run graph n alpha sigma pattern seed out trace report =
    Cli.run ~command:"generate" ~trace ~report @@ fun _ ->
    let inst = build_instance graph n alpha sigma pattern seed in
    let text = Dcn_core.Serialize.instance_to_string inst in
    (match out with
    | None -> print_string text
    | Some path ->
      Observe.write_file path text;
      Format.printf "wrote %s (%a)@." path Dcn_core.Instance.pp inst);
    ( [
        ( "instance",
          Json.Obj
            [
              ("nodes", Json.Int (Dcn_topology.Graph.num_nodes graph));
              ("links", Json.Int (Dcn_topology.Graph.num_links graph));
              ("flows", Json.Int (Dcn_core.Instance.num_flows inst));
            ] );
      ],
      Ok () )
  in
  Cli.cmd "generate" ~doc:"Generate an instance file (see `solve --instance`)."
    Term.(
      const run $ Cli.topo_t $ flows_t $ Cli.alpha_t $ Cli.sigma_t $ pattern_t
      $ Cli.seed_t $ out_t $ Observe.trace_t $ Observe.report_t)

let solve =
  let instance_t =
    Arg.(
      value
      & opt (some file) None
      & info [ "instance" ] ~doc:"Read the instance from a file instead of generating one.")
  in
  let gantt_t =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print ASCII Gantt charts of the RS schedule.")
  in
  let run graph n alpha sigma pattern seed instance_file gantt trace report jobs =
    Cli.run ~command:"solve" ~jobs ~trace ~report @@ fun pool ->
    let rng = Dcn_util.Prng.create seed in
    let inst =
      match instance_file with
      | Some path -> Cli.parse_file path Dcn_core.Serialize.instance_of_string
      | None -> build_instance graph n alpha sigma pattern seed
    in
    Format.printf "%a@." Dcn_core.Instance.pp inst;
    let sp = Dcn_core.Baselines.sp_mcf inst in
    Printf.printf "SP+MCF : energy %.4f (placement %s)\n" sp.Dcn_core.Solution.energy
      (if Dcn_core.Solution.placement_complete sp then "complete" else "partial");
    let rs = Dcn_core.Random_schedule.solve ~pool ~rng inst in
    Printf.printf "RS     : energy %.4f (%s, %d attempt(s))\n"
      rs.Dcn_core.Solution.energy
      (if rs.Dcn_core.Solution.feasible then "feasible" else "INFEASIBLE")
      (Dcn_core.Solution.attempts_used rs);
    let lb =
      Dcn_core.Lower_bound.of_relaxation
        (Option.get (Dcn_core.Solution.relaxation rs))
    in
    Printf.printf "LB     : %.4f  =>  RS/LB %.3f, SP+MCF/LB %.3f\n"
      lb.Dcn_core.Lower_bound.value
      (rs.Dcn_core.Solution.energy /. lb.Dcn_core.Lower_bound.value)
      (sp.Dcn_core.Solution.energy /. lb.Dcn_core.Lower_bound.value);
    let sim = Dcn_sim.Fluid.run rs.Dcn_core.Solution.schedule in
    Format.printf "sim    : %a@." Dcn_sim.Fluid.pp_report sim;
    if gantt then begin
      print_newline ();
      print_string (Dcn_sched.Gantt.render rs.Dcn_core.Solution.schedule);
      print_newline ();
      print_string (Dcn_sched.Gantt.render_flows rs.Dcn_core.Solution.schedule)
    end;
    ( [
        ( "solutions",
          Json.List
            [
              Dcn_core.Serialize.solution_to_json sp;
              Dcn_core.Serialize.solution_to_json rs;
            ] );
        ("lower_bound", Json.float lb.Dcn_core.Lower_bound.value);
        ( "sim",
          Json.Obj
            [
              ("energy", Json.float sim.Dcn_sim.Fluid.energy);
              ("all_deadlines_met", Json.Bool sim.Dcn_sim.Fluid.all_deadlines_met);
              ("capacity_respected", Json.Bool sim.Dcn_sim.Fluid.capacity_respected);
            ] );
      ],
      Ok () )
  in
  Cli.cmd "solve" ~doc:"Solve a configurable instance with both algorithms."
    Term.(
      const run $ Cli.topo_t $ flows_t $ Cli.alpha_t $ Cli.sigma_t $ pattern_t
      $ Cli.seed_t $ instance_t $ gantt_t $ Observe.trace_t $ Observe.report_t
      $ Cli.jobs_t)
