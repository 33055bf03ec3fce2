(* dcn — command-line front end.

   Subcommands map to the experiments of DESIGN.md: `fig2` regenerates
   the paper's Figure 2 series, `gadgets` runs the Theorem 2/3
   reductions, `ablation` the extra studies, `small-exact` the
   approximation-vs-optimum comparison, `example1` the paper's worked
   example, and `solve` runs the algorithms on a configurable
   topology/workload. *)

open Cmdliner

let parse_topology s =
  match String.split_on_char ':' s with
  | [ "fat-tree"; k ] -> Ok (Dcn_topology.Builders.fat_tree (int_of_string k))
  | [ "bcube"; n; l ] ->
    Ok (Dcn_topology.Builders.bcube ~n:(int_of_string n) ~level:(int_of_string l))
  | [ "dcell"; n; l ] ->
    Ok (Dcn_topology.Builders.dcell ~n:(int_of_string n) ~level:(int_of_string l))
  | [ "leaf-spine"; s; l; h ] ->
    Ok
      (Dcn_topology.Builders.leaf_spine ~spines:(int_of_string s)
         ~leaves:(int_of_string l) ~hosts_per_leaf:(int_of_string h))
  | [ "line"; n ] -> Ok (Dcn_topology.Builders.line (int_of_string n))
  | [ "parallel"; k ] -> Ok (Dcn_topology.Builders.parallel ~links:(int_of_string k))
  | [ "star"; n ] -> Ok (Dcn_topology.Builders.star ~leaves:(int_of_string n))
  | _ ->
    Error
      (`Msg
        "expected fat-tree:K | bcube:N:L | dcell:N:L | leaf-spine:S:L:H | line:N | parallel:K | star:N")

let topology_conv =
  Arg.conv
    ( (fun s -> try parse_topology s with Failure _ -> Error (`Msg "bad topology spec")),
      fun ppf g -> Dcn_topology.Graph.pp ppf g )

let alpha_t =
  Arg.(value & opt float 2. & info [ "alpha" ] ~doc:"Power exponent $(docv) (> 1)." ~docv:"A")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let jobs_t =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ]
        ~doc:
          "Parallelism (worker domains + the caller). 0 reads the DCN_JOBS \
           environment variable (a positive integer, or 0 for one per core) and \
           falls back to 1. Results are bit-identical for every value.")

let policy_conv =
  Arg.conv
    ( (fun s ->
        match Dcn_resilience.Repair.policy_of_string s with
        | Some p -> Ok p
        | None ->
          Error
            (`Msg
              "expected drop-latest-deadline | drop-largest-residual | \
               reject-new")),
      fun ppf p ->
        Format.pp_print_string ppf (Dcn_resilience.Repair.policy_to_string p) )

let policy_t =
  Arg.(
    value
    & opt policy_conv Dcn_resilience.Repair.Drop_latest_deadline
    & info [ "policy" ]
        ~doc:
          "Admission policy under degradation: $(b,drop-latest-deadline), \
           $(b,drop-largest-residual) or $(b,reject-new)."
        ~docv:"POLICY")

(* Every subcommand resolves --jobs the same way and tears the pool down
   on the way out.  Returns a [result] so commands plug into
   [Term.term_result] and bad arguments exit through cmdliner's standard
   error path (usage + status 124) instead of a raw [exit]. *)
let with_jobs jobs f =
  if jobs < 0 then Error (`Msg (Printf.sprintf "--jobs must be >= 0 (got %d)" jobs))
  else
    let jobs = if jobs = 0 then Dcn_engine.Pool.default_jobs () else jobs in
    Ok (Dcn_engine.Pool.with_pool ~jobs f)

(* Every command body runs under this guard so predictable failures —
   unreadable or malformed files, invalid model parameters, workloads a
   topology cannot host — exit through cmdliner's error path (message +
   status 124) instead of escaping as a raw exception and a backtrace.
   Genuine bugs still escape: only the typed, user-input-shaped
   exceptions are translated. *)
let guard f =
  match f () with
  | v -> v
  | exception Sys_error m -> Error (`Msg m)
  | exception Failure m -> Error (`Msg m)
  | exception Invalid_argument m -> Error (`Msg m)
  | exception Dcn_core.Instance.Invalid e ->
    Error (`Msg ("invalid instance: " ^ Dcn_core.Instance.error_to_string e))

module Json = Dcn_engine.Json

(* ----------------------------- fig2 ------------------------------- *)

let fig2_cmd =
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
    guard @@ fun () ->
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
    with_jobs jobs @@ fun pool ->
    Observe.run ~command:"fig2" ~trace ~report @@ fun () ->
    let res =
      Dcn_experiments.Fig2.run
        ~progress:(fun msg -> Printf.eprintf "[fig2] %s\n%!" msg)
        ~pool params
    in
    print_endline (Dcn_experiments.Fig2.render res);
    (match csv with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Dcn_experiments.Fig2.to_csv res);
      close_out oc;
      Printf.eprintf "wrote %s\n%!" path);
    [ ("fig2", Dcn_experiments.Fig2.to_json res) ]
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Regenerate Figure 2 of the paper (E1/E2).")
    Term.(
      term_result
        (const run $ alpha_t $ quick_t $ seeds_t $ counts_t $ csv_t
       $ Observe.trace_t $ Observe.report_t $ jobs_t))

(* ---------------------------- gadgets ----------------------------- *)

let gadgets_cmd =
  let run alpha seed trace report =
    guard @@ fun () ->
    Result.ok
    @@ Observe.run ~command:"gadgets" ~trace ~report
    @@ fun () ->
    let tp = Dcn_experiments.Gadget_runs.three_partition ~seed ~alpha () in
    print_endline (Dcn_experiments.Gadget_runs.render_three_partition tp);
    let p = Dcn_experiments.Gadget_runs.partition ~alpha () in
    print_endline (Dcn_experiments.Gadget_runs.render_partition p);
    [
      ( "gadgets",
        Json.Obj
          [
            ("three_partition", Dcn_experiments.Gadget_runs.three_partition_to_json tp);
            ("partition", Dcn_experiments.Gadget_runs.partition_to_json p);
          ] );
    ]
  in
  Cmd.v
    (Cmd.info "gadgets" ~doc:"Run the Theorem 2/3 hardness gadgets (E4/E5).")
    Term.(term_result (const run $ alpha_t $ seed_t $ Observe.trace_t $ Observe.report_t))

(* ---------------------------- ablation ---------------------------- *)

let ablation_cmd =
  let run alpha trace report jobs =
    guard @@ fun () ->
    with_jobs jobs @@ fun pool ->
    Observe.run ~command:"ablation" ~trace ~report @@ fun () ->
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
    [
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
    ]
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run all the E7 ablations (power-down, capacity, refinement, routing, LB tightness, splitting, discrete rates, admission, failures).")
    Term.(term_result (const run $ alpha_t $ Observe.trace_t $ Observe.report_t $ jobs_t))

(* --------------------------- small-exact -------------------------- *)

let small_exact_cmd =
  let run alpha trace report =
    guard @@ fun () ->
    Result.ok
    @@ Observe.run ~command:"small-exact" ~trace ~report
    @@ fun () ->
    let rows =
      Dcn_experiments.Small_exact.run ~alpha ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8 ] ()
    in
    print_endline (Dcn_experiments.Small_exact.render rows);
    [ ("small_exact", Dcn_experiments.Small_exact.to_json rows) ]
  in
  Cmd.v
    (Cmd.info "small-exact" ~doc:"Compare Random-Schedule with the exact optimum (E8).")
    Term.(term_result (const run $ alpha_t $ Observe.trace_t $ Observe.report_t))

(* ---------------------------- example1 ---------------------------- *)

let example1_cmd =
  let run trace report =
    guard @@ fun () ->
    Result.ok
    @@ Observe.run ~command:"example1" ~trace ~report
    @@ fun () ->
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
    [ ("example1", Dcn_core.Serialize.solution_to_json res) ]
  in
  Cmd.v
    (Cmd.info "example1" ~doc:"Run the paper's worked Example 1 (E3).")
    Term.(term_result (const run $ Observe.trace_t $ Observe.report_t))

(* -------------------------- generate / solve ----------------------- *)

let topo_t =
  Arg.(
    value
    & opt topology_conv (Dcn_topology.Builders.fat_tree 4)
    & info [ "topology" ] ~doc:"Network: fat-tree:K, bcube:N:L, leaf-spine:S:L:H, ...")

let flows_t = Arg.(value & opt int 20 & info [ "flows" ] ~doc:"Number of flows.")

let sigma_t = Arg.(value & opt float 0. & info [ "sigma" ] ~doc:"Idle power per link.")

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

let generate_cmd =
  let out_t =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc:"Output file (default stdout).")
  in
  let run graph n alpha sigma pattern seed out trace report =
    guard @@ fun () ->
    Result.ok
    @@ Observe.run ~command:"generate" ~trace ~report
    @@ fun () ->
    let inst = build_instance graph n alpha sigma pattern seed in
    let text = Dcn_core.Serialize.instance_to_string inst in
    (match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Format.printf "wrote %s (%a)@." path Dcn_core.Instance.pp inst);
    [
      ( "instance",
        Json.Obj
          [
            ("nodes", Json.Int (Dcn_topology.Graph.num_nodes graph));
            ("links", Json.Int (Dcn_topology.Graph.num_links graph));
            ("flows", Json.Int (Dcn_core.Instance.num_flows inst));
          ] );
    ]
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate an instance file (see `solve --instance`).")
    Term.(
      term_result
        (const run $ topo_t $ flows_t $ alpha_t $ sigma_t $ pattern_t $ seed_t
       $ out_t $ Observe.trace_t $ Observe.report_t))

let solve_cmd =
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
    guard @@ fun () ->
    with_jobs jobs @@ fun pool ->
    Observe.run ~command:"solve" ~trace ~report @@ fun () ->
    let rng = Dcn_util.Prng.create seed in
    let inst =
      match instance_file with
      | Some path ->
        let ic = open_in path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        Dcn_core.Serialize.instance_of_string text
      | None -> build_instance graph n alpha sigma pattern seed
    in
    Format.printf "%a@." Dcn_core.Instance.pp inst;
    let sp = Dcn_core.Baselines.sp_mcf inst in
    Printf.printf "SP+MCF : energy %.4f (placement %s)\n" sp.Dcn_core.Solution.energy
      (if Dcn_core.Solution.placement_complete sp then "complete" else "partial");
    let rs =
      Dcn_core.Random_schedule.solve ~instance:inst
        ~workspace:(Dcn_core.Solver_api.workspace ~pool ~rng ())
        ~deadline:Dcn_engine.Deadline.never ()
    in
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
    [
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
    ]
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve a configurable instance with both algorithms.")
    Term.(
      term_result
        (const run $ topo_t $ flows_t $ alpha_t $ sigma_t $ pattern_t $ seed_t
       $ instance_t $ gantt_t $ Observe.trace_t $ Observe.report_t $ jobs_t))

(* ------------------------- trace analytics ------------------------ *)

(* `dcn trace {summary,export,diff}`: consume --trace files via
   Dcn_engine.Profile. *)

let load_records path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Dcn_engine.Trace.records_of_json (Json.of_string text)

(* Cmdliner's `file` converter already rejects missing paths; this
   catches unparsable ones. *)
let with_records path f =
  match load_records path with
  | records -> f records
  | exception Failure m -> Error (`Msg (Printf.sprintf "%s: %s" path m))

let trace_file_t index name =
  Arg.(
    required
    & pos index (some file) None
    & info [] ~docv:name ~doc:"A trace file written by $(b,--trace).")

let trace_summary_cmd =
  let top_t =
    Arg.(
      value
      & opt int 0
      & info [ "top" ] ~doc:"Show only the top $(docv) spans by self time (0 = all)."
          ~docv:"N")
  in
  let format_t =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
      & info [ "format" ]
          ~doc:
            "Output format: $(b,table) (human-readable) or $(b,json) (the \
             same profile, machine-readable — the shape `dcn stats` shares).")
  in
  let run file top format =
    guard @@ fun () ->
    with_records file @@ fun records ->
    let profile = Dcn_engine.Profile.of_records records in
    (match format with
    | `Table -> print_string (Dcn_engine.Profile.summary ~top profile)
    | `Json ->
      print_endline
        (Json.to_string ~pretty:true (Dcn_engine.Profile.to_json ~top profile)));
    Ok ()
  in
  Cmd.v
    (Cmd.info "summary"
       ~doc:
         "Profile a trace: per-span call counts, total/self time, latency \
          quantiles, GC allocation, counters.  Frank-Wolfe counters: \
          $(b,fw.iters) counts iterations; $(b,fw.ls_evals) counts line-search \
          derivative evaluations, summed over the commodities that each \
          iteration's pairwise sweep tries to move (one search per \
          iteration when no commodity is warm-started).")
    Term.(term_result (const run $ trace_file_t 0 "TRACE.json" $ top_t $ format_t))

let trace_export_cmd =
  let format_t =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome) ]) `Chrome
      & info [ "format" ] ~doc:"Output format; only $(b,chrome) (trace-event JSON, \
                                loadable in Perfetto) for now.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~doc:"Write to $(docv) instead of stdout." ~docv:"FILE")
  in
  let run file `Chrome out =
    guard @@ fun () ->
    with_records file @@ fun records ->
    let text =
      Json.to_string ~pretty:true (Dcn_engine.Profile.to_chrome records)
    in
    (match out with
    | None -> print_string text
    | Some path -> Observe.write_file path text);
    Ok ()
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Convert a trace to a standard viewer format.")
    Term.(term_result (const run $ trace_file_t 0 "TRACE.json" $ format_t $ out_t))

let trace_diff_cmd =
  let tolerance_t =
    Arg.(
      value
      & opt float 0.25
      & info [ "tolerance" ]
          ~doc:
            "Relative self/total time growth above which a span counts as a \
             regression (exit is then non-zero)."
          ~docv:"FRAC")
  in
  let run a b tolerance =
    guard @@ fun () ->
    if tolerance < 0. then Error (`Msg "--tolerance must be >= 0")
    else
      with_records a @@ fun ra ->
      with_records b @@ fun rb ->
      let module P = Dcn_engine.Profile in
      let deltas = P.diff ~a:(P.of_records ra) ~b:(P.of_records rb) in
      print_string (P.render_diff ~tolerance deltas);
      match P.regressions ~tolerance deltas with
      | [] -> Ok ()
      | bad ->
        Error
          (`Msg
            (Printf.sprintf "%d span(s) regressed beyond %.0f%%: %s"
               (List.length bad)
               (100. *. tolerance)
               (String.concat ", " (List.map (fun (d : P.span_delta) -> d.P.d_name) bad))))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two traces span-by-span (A is the baseline); non-zero exit \
          when B regressed beyond --tolerance.")
    Term.(
      term_result
        (const run $ trace_file_t 0 "A.json" $ trace_file_t 1 "B.json" $ tolerance_t))

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Analyse --trace files: profile summary, Chrome export, diff.")
    [ trace_summary_cmd; trace_export_cmd; trace_diff_cmd ]

(* ------------------------- certify / fuzz ------------------------- *)

let read_text path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let certify_cmd =
  let instance_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "instance" ] ~doc:"The instance file the schedule solves." ~docv:"FILE")
  in
  let schedule_t =
    Arg.(
      value
      & opt (some file) None
      & info [ "schedule" ]
          ~doc:
            "Certify this schedule file against the instance.  Without it, run \
             the full differential oracle (every solver) on the instance."
          ~docv:"FILE")
  in
  let partial_t =
    Arg.(
      value & flag
      & info [ "partial" ] ~doc:"Allow instance flows without a plan (online admission).")
  in
  let exclusive_t =
    Arg.(
      value & flag
      & info [ "exclusive" ] ~doc:"Enforce virtual-circuit link exclusivity.")
  in
  let coflows_t =
    Arg.(
      value
      & opt (some file) None
      & info [ "coflows" ]
          ~doc:
            "Membership file ({\"coflows\":[{\"id\":..,\"flows\":[..]},..]}); \
             the certificate then also requires all-or-nothing admission: a \
             schedule planning part of a coflow is a typed partial_coflow \
             violation.  Requires --schedule; combine with --partial when \
             the instance carries rejected coflows too."
          ~docv:"FILE")
  in
  let run instance_file schedule_file coflows_file partial exclusive seed trace
      report =
    guard @@ fun () ->
    let inst = Dcn_core.Serialize.instance_of_string (read_text instance_file) in
    let members =
      match coflows_file with
      | None -> None
      | Some path -> (
        match
          Dcn_coflow.Coflow.members_of_json (Json.of_string (read_text path))
        with
        | Ok members -> Some members
        | Error m -> failwith (Printf.sprintf "%s: %s" path m))
    in
    if members <> None && schedule_file = None then
      failwith "--coflows requires --schedule";
    let failed = ref "" in
    Observe.run ~command:"certify" ~trace ~report (fun () ->
        match schedule_file with
        | Some path ->
          let sched = Dcn_core.Serialize.schedule_of_string inst (read_text path) in
          let config = { Dcn_check.Certify.default with partial; exclusive } in
          let violations =
            Dcn_check.Certify.schedule ~config inst sched
            @
            match members with
            | None -> []
            | Some members ->
              Dcn_check.Certify.coflow_consistency ~members sched
          in
          if violations = [] then Printf.printf "certificate OK: %s\n" path
          else begin
            failed :=
              Printf.sprintf "%d violation(s)" (List.length violations);
            List.iter
              (fun v ->
                Format.printf "violation: %a@." Dcn_check.Certify.pp_violation v)
              violations
          end;
          [
            ( "certify",
              Json.Obj
                ([
                   ("instance", Json.Str instance_file);
                   ("schedule", Json.Str path);
                 ]
                @ (match coflows_file with
                  | None -> []
                  | Some f -> [ ("coflows", Json.Str f) ])
                @ [
                    ( "certificate",
                      Dcn_check.Certify.violations_to_json violations );
                  ]) );
          ]
        | None ->
          let label = Filename.basename instance_file in
          let oracle =
            Dcn_check.Oracle.run ~solver_seed:seed ~label inst
          in
          List.iter
            (fun (r : Dcn_check.Oracle.solver_result) ->
              Printf.printf "%-14s energy %10.4f  %s\n" r.Dcn_check.Oracle.solver
                r.Dcn_check.Oracle.energy
                (if r.Dcn_check.Oracle.violations = [] then "certified"
                 else
                   String.concat "; "
                     (List.map Dcn_check.Certify.kind r.Dcn_check.Oracle.violations)))
            oracle.Dcn_check.Oracle.results;
          Printf.printf "lower bound    %10.4f\n" oracle.Dcn_check.Oracle.lower_bound;
          List.iter
            (fun c ->
              Format.printf "cross: %a@." Dcn_check.Oracle.pp_cross c)
            oracle.Dcn_check.Oracle.cross;
          if not (Dcn_check.Oracle.ok oracle) then
            failed :=
              Printf.sprintf "kinds: %s"
                (String.concat ", " (Dcn_check.Oracle.violation_kinds oracle));
          [ ("certify", Dcn_check.Oracle.to_json oracle) ]);
    if !failed = "" then Ok ()
    else Error (`Msg (Printf.sprintf "certification failed (%s)" !failed))
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Independently re-verify a schedule (paths, windows, volumes, \
          capacity, energy, lower bound) or differential-test every solver on \
          an instance; non-zero exit on any violation.")
    Term.(
      term_result
        (const run $ instance_t $ schedule_t $ coflows_t $ partial_t
       $ exclusive_t $ seed_t $ Observe.trace_t $ Observe.report_t))

let fuzz_cmd =
  let runs_t =
    Arg.(
      value & opt int 50
      & info [ "runs" ]
          ~doc:
            "Number of random instances; 0 skips them (a campaign of \
             --faults and/or --coflows alone)."
          ~docv:"N")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ]
          ~doc:
            "Directory for counterexample artifacts (instance, shrunk instance, \
             report) of every failing case."
          ~docv:"DIR")
  in
  let no_shrink_t =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Skip delta-debugging of failing cases.")
  in
  let ensure_dir path =
    if not (Sys.file_exists path) then Sys.mkdir path 0o755
  in
  let faults_t =
    Arg.(
      value
      & opt int 0
      & info [ "faults" ]
          ~doc:
            "Additionally replay $(docv) fault-injection scenarios (commit, \
             strike, repair, certify) from the same seed; uncertified repairs \
             fail the run.  See $(b,dcn resilience) for the dedicated command."
          ~docv:"N")
  in
  let coflows_t =
    Arg.(
      value
      & opt int 0
      & info [ "coflows" ]
          ~doc:
            "Additionally draw $(docv) seeded coflow workloads and cross-check \
             the all-or-nothing admission walk: both variants (sigma-greedy, \
             sigma-energy) run on each case and every admitted set must pass \
             the conjunction certificate — member clauses plus admission \
             consistency.  A partially planned coflow fails the run."
          ~docv:"N")
  in
  let run runs seed out no_shrink faults coflows trace report jobs =
    guard @@ fun () ->
    if runs < 0 then Error (`Msg "--runs must be >= 0")
    else if faults < 0 then Error (`Msg "--faults must be >= 0")
    else if coflows < 0 then Error (`Msg "--coflows must be >= 0")
    else if runs = 0 && faults = 0 && coflows = 0 then
      Error (`Msg "fuzz: --runs, --faults and --coflows are all 0")
    else
      Result.join
      @@ with_jobs jobs
      @@ fun pool ->
      let failures = ref 0 in
      let campaign_failures = ref 0 in
      let coflow_failures = ref 0 in
      Observe.run ~command:"fuzz" ~trace ~report (fun () ->
          (* --runs 0 skips the instance batch: a coflow- or fault-only
             campaign. *)
          let cases =
            if runs = 0 then [||] else Dcn_check.Gen.batch ~seed ~n:runs
          in
          let reports = Dcn_check.Oracle.run_batch ~pool cases in
          let shrunk = ref [] in
          Array.iteri
            (fun i oracle ->
              if not (Dcn_check.Oracle.ok oracle) then begin
                incr failures;
                let case = cases.(i) in
                let kinds = Dcn_check.Oracle.violation_kinds oracle in
                Printf.eprintf "[fuzz] case %d (%s) FAILED: %s\n%!" i
                  case.Dcn_check.Gen.label
                  (String.concat ", " kinds);
                let min_result =
                  if no_shrink then None
                  else
                    (* Shrink while the oracle still reports at least one
                       of the original violation kinds. *)
                    let pred inst =
                      let o =
                        Dcn_check.Oracle.run
                          ~solver_seed:case.Dcn_check.Gen.solver_seed
                          ~label:case.Dcn_check.Gen.label inst
                      in
                      List.exists
                        (fun k -> List.mem k (Dcn_check.Oracle.violation_kinds o))
                        kinds
                    in
                    Some
                      (Dcn_check.Shrink.minimize pred case.Dcn_check.Gen.instance)
                in
                (match out with
                | None -> ()
                | Some dir ->
                  ensure_dir dir;
                  let base = Filename.concat dir (Printf.sprintf "case-%03d" i) in
                  Observe.write_file (base ^ ".instance")
                    (Dcn_core.Serialize.instance_to_string
                       case.Dcn_check.Gen.instance);
                  (match min_result with
                  | Some m ->
                    Observe.write_file (base ^ ".min.instance")
                      (Dcn_core.Serialize.instance_to_string
                         m.Dcn_check.Shrink.instance)
                  | None -> ());
                  Observe.write_file (base ^ ".json")
                    (Json.to_string ~pretty:true
                       (Json.Obj
                          [
                            ("oracle", Dcn_check.Oracle.to_json oracle);
                            ( "shrink",
                              match min_result with
                              | None -> Json.Null
                              | Some m ->
                                Dcn_check.Shrink.steps_to_json
                                  m.Dcn_check.Shrink.steps );
                          ])));
                match min_result with
                | Some m ->
                  let flows, cables = Dcn_check.Shrink.size m.Dcn_check.Shrink.instance in
                  Printf.eprintf
                    "[fuzz]   shrunk to %d flow(s), %d cable(s) in %d step(s)\n%!"
                    flows cables
                    (List.length m.Dcn_check.Shrink.steps);
                  shrunk :=
                    (i, List.length m.Dcn_check.Shrink.steps, flows, cables)
                    :: !shrunk
                | None -> ()
              end)
            reports;
          if runs > 0 then
            Printf.printf "fuzz: %d/%d case(s) certified (seed %d)\n"
              (runs - !failures) runs seed;
          let resilience_section =
            if faults = 0 then []
            else begin
              let t =
                Dcn_resilience.Campaign.run ~pool
                  ~policy:Dcn_resilience.Repair.Drop_latest_deadline ~seed
                  ~n:faults ()
              in
              campaign_failures := t.Dcn_resilience.Campaign.uncertified;
              Printf.printf
                "fuzz: %d/%d fault repair(s) certified (%d repaired, %d \
                 degraded, %d irreparable)\n"
                (faults - t.Dcn_resilience.Campaign.uncertified)
                faults t.Dcn_resilience.Campaign.repaired
                t.Dcn_resilience.Campaign.degraded
                t.Dcn_resilience.Campaign.irreparable;
              [ ("resilience", Dcn_resilience.Campaign.to_json t) ]
            end
          in
          let coflow_section =
            if coflows = 0 then []
            else begin
              let cases = Dcn_check.Gen.coflow_batch ~seed ~n:coflows in
              let rows =
                Array.map
                  (fun (case : Dcn_check.Gen.coflow_case) ->
                    let cs =
                      List.map
                        (fun (job, flows) ->
                          Dcn_coflow.Coflow.make ~id:job ~flows ())
                        case.Dcn_check.Gen.jobs
                    in
                    let check variant =
                      let adm =
                        Dcn_coflow.Admission.run
                          ~seed:case.Dcn_check.Gen.solver_seed ~pool ~variant
                          ~graph:case.Dcn_check.Gen.graph
                          ~power:case.Dcn_check.Gen.power cs
                      in
                      let cert =
                        Dcn_coflow.Certificate.admission_result ~coflows:cs
                          ~graph:case.Dcn_check.Gen.graph
                          ~power:case.Dcn_check.Gen.power adm
                      in
                      if not cert.Dcn_coflow.Certificate.ok then
                        Printf.eprintf "[fuzz] coflow case %d (%s) %s FAILED: %s\n%!"
                          case.Dcn_check.Gen.index case.Dcn_check.Gen.label
                          adm.Dcn_coflow.Admission.variant
                          (String.concat ", "
                             (List.map Dcn_check.Certify.kind
                                cert.Dcn_coflow.Certificate.violations));
                      (adm, cert)
                    in
                    let results =
                      List.map check
                        [
                          Dcn_coflow.Admission.Baseline;
                          Dcn_coflow.Admission.Energy_aware;
                        ]
                    in
                    if
                      not
                        (List.for_all
                           (fun (_, c) -> c.Dcn_coflow.Certificate.ok)
                           results)
                    then incr coflow_failures;
                    Json.Obj
                      [
                        ("case", Json.Int case.Dcn_check.Gen.index);
                        ("label", Json.Str case.Dcn_check.Gen.label);
                        ( "pareto",
                          Dcn_coflow.Admission.pareto_json (List.map fst results)
                        );
                        ( "ok",
                          Json.Bool
                            (List.for_all
                               (fun (_, c) -> c.Dcn_coflow.Certificate.ok)
                               results) );
                      ])
                  cases
              in
              Printf.printf "fuzz: %d/%d coflow case(s) certified (both variants)\n"
                (coflows - !coflow_failures) coflows;
              [
                ( "coflow",
                  Json.Obj
                    [
                      ("runs", Json.Int coflows);
                      ("seed", Json.Int seed);
                      ("cases", Json.List (Array.to_list rows));
                    ] );
              ]
            end
          in
          resilience_section @ coflow_section
          @ [
            ( "fuzz",
              Json.Obj
                [
                  ("runs", Json.Int runs);
                  ("seed", Json.Int seed);
                  ("batch", Dcn_check.Oracle.batch_to_json reports);
                  ( "shrunk",
                    Json.List
                      (List.rev_map
                         (fun (i, steps, flows, cables) ->
                           Json.Obj
                             [
                               ("case", Json.Int i);
                               ("steps", Json.Int steps);
                               ("flows", Json.Int flows);
                               ("cables", Json.Int cables);
                             ])
                         !shrunk) );
                ] );
          ]);
      if !failures = 0 && !campaign_failures = 0 && !coflow_failures = 0 then
        Ok ()
      else if !failures > 0 then
        Error
          (`Msg
            (Printf.sprintf "fuzz: %d/%d case(s) failed certification" !failures
               runs))
      else if !campaign_failures > 0 then
        Error
          (`Msg
            (Printf.sprintf "fuzz: %d/%d fault repair(s) failed certification"
               !campaign_failures faults))
      else
        Error
          (`Msg
            (Printf.sprintf "fuzz: %d/%d coflow case(s) failed certification"
               !coflow_failures coflows))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the solver family on random instances; failing \
          cases are delta-debugged to minimal counterexamples.  Deterministic \
          for a given --runs/--seed at every --jobs level.")
    Term.(
      term_result
        (const run $ runs_t $ seed_t $ out_t $ no_shrink_t $ faults_t
       $ coflows_t $ Observe.trace_t $ Observe.report_t $ jobs_t))

(* ---------------------------- resilience -------------------------- *)

let resilience_cmd =
  let module Campaign = Dcn_resilience.Campaign in
  let module Repair = Dcn_resilience.Repair in
  let faults_t =
    Arg.(
      value & opt int 50
      & info [ "faults" ] ~doc:"Number of fault scenarios." ~docv:"N")
  in
  let budget_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ]
          ~doc:
            "Wall-clock budget in milliseconds for each scenario's commit \
             solve; expired stages fall down the watchdog chain (exact -> \
             random-schedule -> greedy-ear).  0 deterministically exercises \
             the full fallback path."
          ~docv:"MS")
  in
  let run faults seed policy budget trace report jobs =
    guard @@ fun () ->
    if faults < 1 then Error (`Msg "--faults must be >= 1")
    else
      Result.join
      @@ with_jobs jobs
      @@ fun pool ->
      let campaign = ref None in
      Observe.run ~command:"resilience" ~trace ~report (fun () ->
          let t =
            Campaign.run ~pool ?budget_ms:budget ~policy ~seed ~n:faults ()
          in
          campaign := Some t;
          Array.iter
            (fun (row : Campaign.row) ->
              Printf.printf "%3d  %-44s %-12s %-11s %s\n" row.Campaign.index
                row.Campaign.label
                (Dcn_resilience.Fault.kind row.Campaign.event)
                (Repair.outcome_kind row.Campaign.outcome)
                (match row.Campaign.outcome with
                | Repair.Repaired d | Repair.Degraded d ->
                  Printf.sprintf "salvaged %.2f, dropped %d%s" d.Repair.salvaged
                    (List.length d.Repair.dropped)
                    (if d.Repair.violations = [] then ""
                     else Printf.sprintf ", %d VIOLATION(S)"
                         (List.length d.Repair.violations))
                | Repair.Irreparable { reason; _ } -> reason))
            t.Campaign.rows;
          Printf.printf
            "resilience: %d scenario(s): %d repaired, %d degraded, %d \
             irreparable (policy %s, seed %d)\n"
            faults t.Campaign.repaired t.Campaign.degraded t.Campaign.irreparable
            (Repair.policy_to_string policy)
            seed;
          [ ("resilience", Campaign.to_json t) ]);
      match !campaign with
      | Some t when not (Campaign.ok t) ->
        Error
          (`Msg
            (Printf.sprintf "resilience: %d repair(s) failed certification"
               t.Campaign.uncertified))
      | _ -> Ok ()
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:
         "Run a deterministic fault-injection campaign: commit a schedule \
          (under an optional watchdog budget), strike it with a seeded fault \
          (cable cut, capacity degradation, flow burst), repair with graceful \
          degradation, and certify every re-plan.  Bit-identical for a given \
          --faults/--seed at every --jobs level; non-zero exit if any repair \
          fails certification.")
    Term.(
      term_result
        (const run $ faults_t $ seed_t $ policy_t $ budget_t $ Observe.trace_t
       $ Observe.report_t $ jobs_t))

(* --------------------------- serve / replay ----------------------- *)

(* The line discipline of every newline-delimited JSON stream the CLI
   reads (events, telemetry snapshots): lines are numbered from 1, blank
   ones are skipped, and [f ~line_no ~line_base line] handles the rest
   ([line_base] is the line's offset in the stream).  A line [f] refuses
   with [Error msg] is malformed: --strict stops there, the default
   reports it on stderr and reads on.  Returns the number of malformed
   lines and the message that stopped a strict read. *)
let read_lines ?(stop = fun () -> false) ~command ~strict f ic =
  let line_no = ref 0 and base = ref 0 in
  let malformed = ref 0 and fatal = ref None in
  (try
     while !fatal = None && not (stop ()) do
       let line = input_line ic in
       incr line_no;
       let line_base = !base in
       base := !base + String.length line + 1;
       if String.trim line <> "" then
         match f ~line_no:!line_no ~line_base line with
         | Ok () -> ()
         | Error msg ->
           incr malformed;
           if strict then fatal := Some msg
           else Printf.eprintf "[%s] skipping %s\n%!" command msg
     done
   with End_of_file -> ());
  (!malformed, !fatal)

(* One event per line, handed to [f ~line_no].  A malformed line is
   reported with its line number, plus for a JSON syntax error the byte
   offset of the failure within the line and its absolute offset in the
   stream. *)
let read_events ?stop ~command ~strict f ic =
  read_lines ?stop ~command ~strict
    (fun ~line_no ~line_base line ->
      match Dcn_serve.Event.of_line line with
      | Ok event -> Ok (f ~line_no event)
      | Error { offset = Some byte; message } ->
        Error
          (Printf.sprintf "event at line %d, byte %d (stream offset %d): %s"
             line_no byte (line_base + byte) message)
      | Error { offset = None; message } ->
        Error (Printf.sprintf "event at line %d: %s" line_no message))
    ic

let cap_t =
  Arg.(
    value
    & opt float infinity
    & info [ "cap" ]
        ~doc:
          "Link capacity; arrivals that would push a link beyond it go \
           through the admission policy.  Default: unbounded."
        ~docv:"C")

let strict_t =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Stop at the first malformed event line (default: report the \
           position on stderr and keep going).")

(* Live telemetry surfaces (ROADMAP: observability).  --stats-every N
   emits one snapshot line every N events; --stats FILE sends those
   lines to FILE instead of interleaving with the outcome stream;
   --metrics FILE rewrites a Prometheus text exposition atomically at
   each snapshot.  Any of the three enables the registry; a final
   snapshot always closes the run so short streams still yield data. *)

let stats_every_t =
  Arg.(
    value
    & opt int 0
    & info [ "stats-every" ]
        ~doc:
          "Emit a telemetry snapshot (one $(i,{\"stats\":...}) JSON line) \
           every $(docv) events.  0 emits only the final snapshot (when \
           --stats or --metrics is set)."
        ~docv:"N")

let stats_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats" ]
        ~doc:
          "Write snapshot lines to $(docv) instead of stdout; flushed per \
           line, so $(b,dcn stats) can tail it live."
        ~docv:"FILE")

let metrics_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ]
        ~doc:
          "Rewrite $(docv) atomically with the registry's Prometheus text \
           exposition at every snapshot."
        ~docv:"FILE")

(* SIGUSR1 requests an immediate snapshot at the next event boundary;
   guarded because not every platform exposes the signal. *)
let usr1_snapshot = Atomic.make false

let install_usr1 () =
  try
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> Atomic.set usr1_snapshot true))
  with Invalid_argument _ | Sys_error _ -> ()

(* SIGTERM/SIGINT request a graceful drain: the serving loop stops
   taking input at the next event boundary, finishes in-flight events,
   writes a final checkpoint (with --wal) and snapshot, and exits 0 — a
   clean drain is a success, distinct from the guard's error statuses.
   A second signal forces an immediate exit with status 130, skipping
   the final checkpoint.  Guarded like SIGUSR1 for platforms without
   the signals. *)
let drain_requested = Atomic.make false
let drain_since = ref Float.nan

let obs_drain_ms =
  Dcn_obs.Registry.gauge ~help:"graceful drain duration" "serve.drain_ms"

let install_drain () =
  let handle _ =
    if Atomic.exchange drain_requested true then Stdlib.exit 130
    else drain_since := Dcn_engine.Deadline.now ()
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handle)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ]

(* Stamp [serve.drain_ms] once the loop has wound down. *)
let finish_drain () =
  if Atomic.get drain_requested then
    Dcn_obs.Registry.set obs_drain_ms
      (Float.max 0. (1e3 *. (Dcn_engine.Deadline.now () -. !drain_since)))

(* Run [f] with an [after_event] hook that drives the snapshot cadence.
   When no stats surface was requested the hook is [ignore] and the
   registry stays disabled — the serving loop pays one closure call per
   event and {!Dcn_obs.Registry} ops stay one-branch no-ops. *)
let with_stats ~stats_every ~stats_file ~metrics_file f =
  if stats_every <= 0 && stats_file = None && metrics_file = None then
    f ~after_event:ignore
  else begin
    Dcn_obs.Registry.enable ();
    Atomic.set usr1_snapshot false;
    install_usr1 ();
    let oc, close =
      match stats_file with
      | None -> (stdout, ignore)
      | Some path ->
        let oc = open_out path in
        (oc, fun () -> close_out oc)
    in
    let seq = ref 0 in
    let snapshot () =
      incr seq;
      let snap = Dcn_obs.Snapshot.scrape ~seq:!seq () in
      output_string oc (Dcn_obs.Expose.wire_line snap);
      output_char oc '\n';
      flush oc;
      match metrics_file with
      | None -> ()
      | Some path ->
        Dcn_obs.Expose.write_atomic ~path (Dcn_obs.Expose.prometheus snap)
    in
    let events = ref 0 in
    let after_event () =
      incr events;
      if Atomic.exchange usr1_snapshot false then snapshot ()
      else if stats_every > 0 && !events mod stats_every = 0 then snapshot ()
    in
    Fun.protect ~finally:close (fun () ->
        let result = f ~after_event in
        snapshot ();
        result)
  end

let serve_session_result ~command ~strict ~parse_errors ~fatal session =
  match fatal with
  | Some msg -> Error (`Msg (Printf.sprintf "%s: malformed %s" command msg))
  | None ->
    if not (Dcn_serve.Session.ok session) then
      Error (`Msg (Printf.sprintf "%s: some committed epochs failed certification" command))
    else if strict && parse_errors > 0 then
      Error (`Msg (Printf.sprintf "%s: %d malformed event line(s)" command parse_errors))
    else Ok ()

let serve_section ~strict ~parse_errors session =
  Json.Obj
    [
      ("strict", Json.Bool strict);
      ("parse_errors", Json.Int parse_errors);
      ("session", Dcn_serve.Session.report session);
    ]

(* ----------------------- durable serve flags ---------------------- *)

let socket_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ]
        ~doc:
          "Serve the event protocol on a Unix-domain socket at $(docv) \
           instead of stdin: any number of clients, one JSON event per line \
           in, one JSON reply line per event out, per connection.  Malformed \
           lines earn a positioned error reply; a client disconnecting — \
           even mid-line — never ends the session.  The server runs until \
           SIGTERM/SIGINT."
        ~docv:"PATH")

let wal_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ]
        ~doc:
          "Make the session crash-safe: append every accepted event to a \
           write-ahead log in $(docv), fsync'd $(i,before) it is applied, \
           and checkpoint periodically.  On start, recover the previous \
           session from the latest checkpoint plus the WAL tail — \
           bit-identical to an uninterrupted run; torn tails are detected by \
           checksum and truncated, never crashed on."
        ~docv:"DIR")

let checkpoint_every_t =
  Arg.(
    value
    & opt int 50
    & info [ "checkpoint-every" ]
        ~doc:"With --wal: checkpoint the session every $(docv) committed events."
        ~docv:"N")

let queue_t =
  Arg.(
    value
    & opt int 64
    & info [ "queue" ]
        ~doc:
          "Socket mode: pending-event queue capacity; overflow is shed per \
           --shed-policy with a typed reply."
        ~docv:"N")

let shed_policy_conv =
  Arg.conv
    ( (fun s ->
        match Dcn_resilience.Repair.shed_policy_of_string s with
        | Some p -> Ok p
        | None -> Error (`Msg "expected shed-newest | shed-oldest")),
      fun ppf p ->
        Format.pp_print_string ppf
          (Dcn_resilience.Repair.shed_policy_to_string p) )

let shed_policy_t =
  Arg.(
    value
    & opt shed_policy_conv Dcn_resilience.Repair.Shed_newest
    & info [ "shed-policy" ]
        ~doc:
          "Overload-shedding policy when the socket queue is full: \
           $(b,shed-newest) refuses the arriving event, $(b,shed-oldest) \
           evicts the oldest queued one."
        ~docv:"POLICY")

let idle_timeout_t =
  Arg.(
    value
    & opt float 30.
    & info [ "idle-timeout" ]
        ~doc:
          "Socket mode: drop a connection silent for more than $(docv) \
           seconds (0 disables)."
        ~docv:"SECONDS")

let serve_cmd =
  let run graph alpha sigma cap policy seed strict stats_every stats_file
      metrics_file socket wal checkpoint_every queue shed_policy idle_timeout
      trace report jobs =
    guard @@ fun () ->
    Result.join
    @@ with_jobs jobs
    @@ fun pool ->
    with_stats ~stats_every ~stats_file ~metrics_file
    @@ fun ~after_event ->
    let power = Dcn_power.Model.make ~sigma ~mu:1. ~alpha ~cap () in
    install_drain ();
    (* The session lives bare in memory or behind a durable store; this
       is the one place the two differ.  Either way a batch of events is
       applied in order and each outcome numbered: by its WAL sequence
       number behind a store (so after a recovery replies continue the
       durable sequence, which clients correlate with WAL/checkpoint
       state), by the count of applied events in memory. *)
    let session, apply_batch, close, recovery =
      match wal with
      | None ->
        let s = Dcn_serve.Session.create ~pool ~graph ~power ~policy ~seed () in
        let applied = ref 0 in
        let apply_batch events f =
          List.iter
            (fun event ->
              let out = Dcn_serve.Session.apply s event in
              incr applied;
              f ~seq:!applied event out)
            events
        in
        (s, apply_batch, ignore, [])
      | Some dir -> (
        match
          Dcn_durable.Store.open_ ~pool ~dir ~checkpoint_every ~graph ~power
            ~policy ~seed ()
        with
        | Error m -> failwith ("serve: " ^ m)
        | Ok (store, r) ->
          let recovery = Dcn_durable.Store.recovery_to_json r in
          if r.Dcn_durable.Store.recovered then
            Printf.eprintf "[serve] recovered %s: %s\n%!" dir
              (Json.to_string recovery);
          ( Dcn_durable.Store.session store,
            Dcn_durable.Store.apply_batch store,
            (fun () -> Dcn_durable.Store.close store),
            [ ("recovery", recovery) ] ))
    in
    (* One reply line per applied event, through [write]. *)
    let answer write ~seq event out =
      write
        (Json.Obj
           (("seq", Json.Int seq)
            :: ("uptime_ms", Json.float (Dcn_serve.Session.uptime_ms session))
            :: ("event", Json.Str (Dcn_serve.Event.kind event))
            ::
            (match Dcn_serve.Session.outcome_to_json out with
            | Json.Obj fields -> fields
            | j -> [ ("outcome", j) ])));
      after_event ()
    in
    let draining () = Atomic.get drain_requested in
    let result = ref (0, None) in
    (* [close] writes the final checkpoint — on every clean path
       including drain, but not on a forced (second-signal) exit: the
       WAL alone still recovers the committed state. *)
    Fun.protect ~finally:close (fun () ->
        Observe.run ~command:"serve" ~trace ~report (fun () ->
            let parse_errors, fatal, transport =
              match socket with
              | None ->
                (* The batch of one: the same path as a socket batch. *)
                let print json = print_endline (Json.to_string json) in
                let parse_errors, fatal =
                  read_events ~stop:draining ~command:"serve" ~strict
                    (fun ~line_no:_ event ->
                      apply_batch [ event ] (answer print))
                    stdin
                in
                (parse_errors, fatal, [])
              | Some path ->
                let stats =
                  Dcn_durable.Transport.serve ~idle_timeout
                    ~queue_capacity:queue ~shed_policy ~socket:path
                    ~drain:draining
                    ~apply:(fun events reply ->
                      apply_batch events (answer reply))
                    ()
                in
                ( stats.Dcn_durable.Transport.parse_errors,
                  None,
                  [ ("transport", Dcn_durable.Transport.stats_to_json stats) ] )
            in
            finish_drain ();
            result := (parse_errors, fatal);
            ("serve", serve_section ~strict ~parse_errors session)
            :: (transport @ recovery)));
    let parse_errors, fatal = !result in
    serve_session_result ~command:"serve" ~strict ~parse_errors ~fatal session
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived scheduler session: newline-delimited JSON events \
          (arrival, cancel, advance) on stdin — or on a Unix-domain socket \
          with $(b,--socket), serving any number of clients — one JSON \
          outcome (schedule delta, drops, certification) per event.  \
          Arrivals are admitted under --policy; each event re-solves only \
          the timeline intervals its flow's span overlaps, warm-started from \
          the previous fractional solution; every committed epoch is \
          independently re-certified.  $(b,--wal) makes the session \
          crash-safe (write-ahead log + checkpoints; recovery is \
          bit-identical).  Bit-identical for a given event stream and --seed \
          at every --jobs level (outcome lines carry a wall-clock uptime_ms \
          field, which is the one exception); non-zero exit if any epoch \
          fails certification.  --stats-every/--stats/--metrics stream live \
          telemetry (see $(b,dcn stats)); SIGUSR1 forces a snapshot at the \
          next event; SIGTERM/SIGINT drain gracefully (finish in-flight \
          events, final checkpoint, exit 0 — a second signal forces exit \
          130).")
    Term.(
      term_result
        (const run $ topo_t $ alpha_t $ sigma_t $ cap_t $ policy_t $ seed_t
       $ strict_t $ stats_every_t $ stats_file_t $ metrics_file_t $ socket_t
       $ wal_t $ checkpoint_every_t $ queue_t $ shed_policy_t $ idle_timeout_t
       $ Observe.trace_t $ Observe.report_t $ jobs_t))

let replay_cmd =
  let events_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"EVENTS"
          ~doc:"An event log: one JSON event per line (see $(b,dcn serve)).")
  in
  let run graph alpha sigma cap policy seed strict stats_every stats_file
      metrics_file events_file trace report jobs =
    guard @@ fun () ->
    Result.join
    @@ with_jobs jobs
    @@ fun pool ->
    with_stats ~stats_every ~stats_file ~metrics_file
    @@ fun ~after_event ->
    let power = Dcn_power.Model.make ~sigma ~mu:1. ~alpha ~cap () in
    let session =
      Dcn_serve.Session.create ~pool ~graph ~power ~policy ~seed ()
    in
    let outcome = ref (0, None) and split = ref [] in
    Observe.run ~command:"replay" ~trace ~report (fun () ->
        let on_event ~line_no event =
          let out = Dcn_serve.Session.apply session event in
          Format.printf "%4d  %-13s %a@." line_no
            (Dcn_serve.Event.kind event)
            Dcn_serve.Session.pp_outcome out;
          after_event ()
        in
        outcome :=
          In_channel.with_open_text events_file
            (read_events ~command:"replay" ~strict on_event);
        let parse_errors, _ = !outcome in
        let session_report = Dcn_serve.Session.report session in
        let count name =
          match Json.member name session_report with
          | Some (Json.Int n) -> n
          | _ -> 0
        in
        Printf.printf
          "replay: %d committed, %d degraded, %d rejected, %d malformed; \
           coflows %d admitted, %d rejected, %d live (policy %s, seed %d)\n"
          (count "committed") (count "degraded") (count "rejected")
          parse_errors (count "coflows_admitted") (count "coflows_rejected")
          (count "coflows")
          (Dcn_resilience.Repair.policy_to_string policy)
          seed;
        (* All-or-nothing consistency of the final schedule, re-checked
           from the raw plans against the session's membership table. *)
        (match Dcn_serve.Session.schedule session with
        | Some sched ->
          split :=
            Dcn_check.Certify.coflow_consistency
              ~members:(Dcn_serve.Session.active_coflows session)
              sched;
          List.iter
            (fun v ->
              Format.printf "violation: %a@." Dcn_check.Certify.pp_violation v)
            !split
        | None -> ());
        [ ("replay", serve_section ~strict ~parse_errors session) ]);
    let parse_errors, fatal = !outcome in
    Result.bind
      (serve_session_result ~command:"replay" ~strict ~parse_errors ~fatal
         session)
      (fun () ->
        if !split = [] then Ok ()
        else
          Error (`Msg "replay: the final schedule splits a committed coflow"))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a recorded event log through a scheduler session offline — \
          same admission, incremental re-solve and per-epoch certification as \
          $(b,dcn serve), with a human-readable outcome per event.  Coflow \
          arrivals admit all-or-nothing and shedding takes whole coflows; the \
          final schedule's admission consistency is re-checked.  \
          Bit-identical for a given log and --seed at every --jobs level; \
          non-zero exit if an epoch fails certification or the final \
          schedule splits a committed coflow.  --stats-every/--stats/--metrics \
          stream the same live telemetry as $(b,dcn serve).")
    Term.(
      term_result
        (const run $ topo_t $ alpha_t $ sigma_t $ cap_t $ policy_t $ seed_t
       $ strict_t $ stats_every_t $ stats_file_t $ metrics_file_t $ events_t
       $ Observe.trace_t $ Observe.report_t $ jobs_t))

(* ------------------------------ crash ----------------------------- *)

let crash_cmd =
  let events_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"EVENTS"
          ~doc:"An event log: one JSON event per line (see $(b,dcn serve)).")
  in
  let kills_t =
    Arg.(
      value
      & opt int 25
      & info [ "kills" ]
          ~doc:"Number of crash points to inject (clamped to the log length)."
          ~docv:"N")
  in
  let window_t =
    Arg.(
      value
      & opt int 5
      & info [ "window" ]
          ~doc:
            "Events redelivered after each recovery and compared \
             byte-for-byte to the reference outcome stream."
          ~docv:"N")
  in
  let crash_every_t =
    Arg.(
      value
      & opt int 10
      & info [ "checkpoint-every" ]
          ~doc:"Checkpoint cadence of the durable store under test." ~docv:"N")
  in
  let dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ]
          ~doc:
            "Scratch directory for the campaign's store directories \
             (default: under the system temp dir, keyed by --seed)."
          ~docv:"DIR")
  in
  let run graph alpha sigma cap policy seed kills window checkpoint_every dir
      events_file trace report jobs =
    guard @@ fun () ->
    Result.join
    @@ with_jobs jobs
    @@ fun pool ->
    let module C = Dcn_durable.Crash in
    let power = Dcn_power.Model.make ~sigma ~mu:1. ~alpha ~cap () in
    let events =
      let events = ref [] in
      let _, fatal =
        In_channel.with_open_text events_file
          (read_events ~command:"crash" ~strict:true (fun ~line_no:_ e ->
               events := e :: !events))
      in
      (match fatal with
      | Some msg -> failwith (Printf.sprintf "%s: malformed %s" events_file msg)
      | None -> ());
      List.rev !events
    in
    let dir =
      match dir with
      | Some d -> d
      | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "dcn-crash-%d" seed)
    in
    let result = ref None in
    Observe.run ~command:"crash" ~trace ~report (fun () ->
        let c =
          C.run ~pool ~window ~checkpoint_every ~dir ~graph ~power ~policy
            ~seed ~kills events
        in
        result := Some c;
        List.iter (fun r -> Format.printf "%a@." C.pp_row r) c.C.rows;
        let survived =
          List.length (List.filter (fun (r : C.row) -> r.C.ok) c.C.rows)
        in
        Printf.printf
          "crash: %d/%d kills recovered bit-identical and re-certified over \
           %d events (seed %d, checkpoint every %d, window %d)\n"
          survived c.C.kills c.C.events seed c.C.checkpoint_every c.C.window;
        [ ("crash", C.to_json c) ]);
    match !result with
    | Some c when not c.C.ok ->
      Error (`Msg "crash: some kills failed to recover bit-identically")
    | _ -> Ok ()
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:
         "Crash-injection campaign against the durable serving store: replay \
          $(i,EVENTS) through a write-ahead-logged session, kill it at \
          --kills seeded event boundaries (some with torn or bit-flipped WAL \
          tails), recover each from checkpoint + log tail, and verify the \
          recovered state is bit-identical to an uninterrupted run, the \
          recovered schedule re-certifies clean, and redelivered events \
          produce byte-identical outcomes.  Deterministic for a given log, \
          --seed and flags, at every --jobs level; non-zero exit if any kill \
          fails.")
    Term.(
      term_result
        (const run $ topo_t $ alpha_t $ sigma_t $ cap_t $ policy_t $ seed_t
       $ kills_t $ window_t $ crash_every_t $ dir_t $ events_t
       $ Observe.trace_t $ Observe.report_t $ jobs_t))

(* ------------------------------ coflow ---------------------------- *)

let coflow_count_t =
  Arg.(
    value
    & opt int 6
    & info [ "coflows" ]
        ~doc:"Number of coflow jobs in the generated shuffle trace." ~docv:"N")

let coflow_variant_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "variant" ]
        ~doc:
          "Run only $(docv): $(b,sigma-greedy) (the DCoflow-style baseline) \
           or $(b,sigma-energy) (Relaxation + randomised rounding over the \
           admitted set).  Default: both, for the completion/energy Pareto \
           comparison."
        ~docv:"V")

let coflow_variants = function
  | None ->
    [ Dcn_coflow.Admission.Baseline; Dcn_coflow.Admission.Energy_aware ]
  | Some s -> (
    match Dcn_coflow.Admission.variant_of_string s with
    | Ok v -> [ v ]
    | Error m -> failwith m)

(* The seeded shuffle-heavy trace every coflow subcommand shares: a pure
   function of (topology, seed, count), so solve/report runs on the same
   arguments see the same workload. *)
let coflow_trace ~graph ~seed ~count =
  let rng = Dcn_util.Prng.create seed in
  Dcn_coflow.Coflow.shuffle_trace ~rng ~graph ~jobs:count ~horizon:(0., 10.) ()

let coflow_run_variants ~pool ~graph ~power ~seed ~variants cs =
  List.map
    (fun variant ->
      let adm = Dcn_coflow.Admission.run ~seed ~pool ~variant ~graph ~power cs in
      let cert =
        Dcn_coflow.Certificate.admission_result ~coflows:cs ~graph ~power adm
      in
      (adm, cert))
    variants

let render_admission (adm : Dcn_coflow.Admission.t)
    (cert : Dcn_coflow.Certificate.report) =
  Printf.printf
    "%-12s  admitted %d/%d (completion %.0f%%), energy %.4f, certificate %s\n"
    adm.Dcn_coflow.Admission.variant
    (List.length adm.Dcn_coflow.Admission.admitted)
    (List.length adm.Dcn_coflow.Admission.order)
    (100. *. adm.Dcn_coflow.Admission.completion_rate)
    adm.Dcn_coflow.Admission.energy
    (if cert.Dcn_coflow.Certificate.ok then "OK"
     else
       Printf.sprintf "%d VIOLATION(S)"
         (List.length cert.Dcn_coflow.Certificate.violations));
  List.iter
    (fun ((c : Dcn_coflow.Coflow.t), reason) ->
      Printf.printf "              rejected coflow %d (%s): %s\n"
        c.Dcn_coflow.Coflow.id c.Dcn_coflow.Coflow.label reason)
    adm.Dcn_coflow.Admission.rejected

let coflow_result_json (adm, cert) =
  Json.Obj
    [
      ("admission", Dcn_coflow.Admission.to_json adm);
      ("certificate", Dcn_coflow.Certificate.to_json cert);
    ]

let certs_ok results =
  List.for_all (fun (_, c) -> c.Dcn_coflow.Certificate.ok) results

let coflow_solve_cmd =
  let dump_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ]
          ~doc:
            "Write the full-workload instance, the membership file and one \
             schedule per variant under $(docv) — the inputs of $(b,dcn \
             certify --partial --coflows)."
          ~docv:"DIR")
  in
  let run graph alpha sigma cap count variant dump seed trace report jobs =
    guard @@ fun () ->
    if count < 1 then Error (`Msg "--coflows must be >= 1")
    else
      Result.join
      @@ with_jobs jobs
      @@ fun pool ->
      let power = Dcn_power.Model.make ~sigma ~mu:1. ~alpha ~cap () in
      let failed = ref false in
      Observe.run ~command:"coflow-solve" ~trace ~report (fun () ->
          let cs = coflow_trace ~graph ~seed ~count in
          List.iter
            (fun c -> Format.printf "%a@." Dcn_coflow.Coflow.pp c)
            cs;
          let results =
            coflow_run_variants ~pool ~graph ~power ~seed
              ~variants:(coflow_variants variant) cs
          in
          List.iter (fun (adm, cert) -> render_admission adm cert) results;
          failed := not (certs_ok results);
          (match dump with
          | None -> ()
          | Some dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            let write name text =
              let path = Filename.concat dir name in
              Observe.write_file path text;
              Printf.eprintf "wrote %s\n%!" path
            in
            let inst =
              Dcn_core.Instance.make ~graph ~power
                ~flows:(Dcn_coflow.Coflow.flatten cs)
            in
            write "coflow.instance" (Dcn_core.Serialize.instance_to_string inst);
            write "coflow.members.json"
              (Json.to_string ~pretty:true
                 (Dcn_coflow.Coflow.members_to_json cs));
            List.iter
              (fun ((adm : Dcn_coflow.Admission.t), _) ->
                match adm.Dcn_coflow.Admission.solution with
                | None -> ()
                | Some sol ->
                  write
                    (Printf.sprintf "coflow.%s.schedule"
                       adm.Dcn_coflow.Admission.variant)
                    (Dcn_core.Serialize.schedule_to_string
                       sol.Dcn_core.Solution.schedule))
              results);
          [
            ( "coflow",
              Json.Obj
                [
                  ("coflows", Json.Int count);
                  ("seed", Json.Int seed);
                  ( "trace",
                    Json.List (List.map Dcn_coflow.Coflow.to_json cs) );
                  ("results", Json.List (List.map coflow_result_json results));
                  ( "pareto",
                    Dcn_coflow.Admission.pareto_json (List.map fst results) );
                ] );
          ]);
      if !failed then
        Error (`Msg "coflow solve: some admitted sets failed certification")
      else Ok ()
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Generate a seeded shuffle/incast coflow trace and run sigma-order \
          all-or-nothing admission on it — the DCoflow-style baseline \
          (greedy-ear) and the energy-aware variant (Relaxation + randomised \
          rounding) — reporting coflow completion rate and Eq. (5) energy \
          for each, with every admitted set's conjunction certificate \
          re-verified.  Deterministic for a given --seed at every --jobs \
          level; non-zero exit on any violation.")
    Term.(
      term_result
        (const run $ topo_t $ alpha_t $ sigma_t $ cap_t $ coflow_count_t
       $ coflow_variant_t $ dump_t $ seed_t $ Observe.trace_t
       $ Observe.report_t $ jobs_t))

let coflow_report_cmd =
  let caps_t =
    Arg.(
      value
      & opt (list float) [ infinity ]
      & info [ "caps" ]
          ~doc:
            "Comma-separated link capacities to sweep; each level runs both \
             variants on the same trace, tracing the completion-rate / \
             energy Pareto frontier as capacity tightens."
          ~docv:"C1,C2,..")
  in
  let run graph alpha sigma caps count seed trace report jobs =
    guard @@ fun () ->
    if count < 1 then Error (`Msg "--coflows must be >= 1")
    else if caps = [] then Error (`Msg "--caps must not be empty")
    else
      Result.join
      @@ with_jobs jobs
      @@ fun pool ->
      let failed = ref false in
      Observe.run ~command:"coflow-report" ~trace ~report (fun () ->
          let cs = coflow_trace ~graph ~seed ~count in
          Printf.printf "%-10s %-12s %10s %12s %9s\n" "cap" "variant"
            "admitted" "completion" "energy";
          let sections =
            List.map
              (fun cap ->
                let power = Dcn_power.Model.make ~sigma ~mu:1. ~alpha ~cap () in
                let results =
                  coflow_run_variants ~pool ~graph ~power ~seed
                    ~variants:(coflow_variants None) cs
                in
                if not (certs_ok results) then failed := true;
                List.iter
                  (fun ((adm : Dcn_coflow.Admission.t), _) ->
                    Printf.printf "%-10s %-12s %6d/%-3d %11.0f%% %9.3f\n"
                      (if Float.is_finite cap then Printf.sprintf "%g" cap
                       else "inf")
                      adm.Dcn_coflow.Admission.variant
                      (List.length adm.Dcn_coflow.Admission.admitted)
                      (List.length adm.Dcn_coflow.Admission.order)
                      (100. *. adm.Dcn_coflow.Admission.completion_rate)
                      adm.Dcn_coflow.Admission.energy)
                  results;
                Json.Obj
                  [
                    ("cap", Json.float cap);
                    ( "pareto",
                      Dcn_coflow.Admission.pareto_json (List.map fst results) );
                  ])
              caps
          in
          [
            ( "coflow",
              Json.Obj
                [
                  ("coflows", Json.Int count);
                  ("seed", Json.Int seed);
                  ("sweep", Json.List sections);
                ] );
          ]);
      if !failed then
        Error (`Msg "coflow report: some admitted sets failed certification")
      else Ok ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Sweep link capacity over a seeded coflow trace and report the \
          completion-rate / energy Pareto frontier of both admission \
          variants; every admitted set is certificate-checked.  \
          Deterministic at every --jobs level.")
    Term.(
      term_result
        (const run $ topo_t $ alpha_t $ sigma_t $ caps_t $ coflow_count_t
       $ seed_t $ Observe.trace_t $ Observe.report_t $ jobs_t))

let coflow_cmd =
  Cmd.group
    (Cmd.info "coflow"
       ~doc:
         "Coflow workloads: groups of flows under one collective deadline, \
          admitted all-or-nothing (solve, report; replay a coflow event log \
          with $(b,dcn replay)).")
    [ coflow_solve_cmd; coflow_report_cmd ]

let stats_cmd =
  let file_t =
    Arg.(
      value
      & pos 0 string "-"
      & info [] ~docv:"FILE"
          ~doc:
            "A snapshot stream: the stdout of $(b,dcn serve --stats-every) \
             or its --stats file.  $(b,-) reads stdin (the default), so \
             $(b,dcn serve ... | dcn stats) renders live.")
  in
  let top_t =
    Arg.(
      value
      & opt int 0
      & info [ "top" ]
          ~doc:"Show only the first $(docv) metrics by name (0 = all)."
          ~docv:"N")
  in
  let last_t =
    Arg.(
      value & flag
      & info [ "last" ] ~doc:"Render only the final snapshot of the stream.")
  in
  let run file top last strict =
    guard @@ fun () ->
    let render snap =
      print_string (Dcn_obs.Expose.render_table ~top snap);
      print_newline ()
    in
    (* The same line reader as `dcn serve` reading events: malformed
       stats lines are skipped with a position on stderr, --strict stops
       at the first one.  Lines that are valid JSON but not stats lines
       (interleaved per-event outcomes) are passed over silently. *)
    let process ic =
      let seen = ref 0 and last_snap = ref None in
      let _, fatal =
        read_lines ~command:"stats" ~strict
          (fun ~line_no ~line_base:_ line ->
            match Json.parse line with
            | Error e ->
              Error
                (Printf.sprintf "snapshot at line %d, byte %d: %s" line_no
                   e.Json.offset e.Json.message)
            | Ok (Json.Obj fields) when List.mem_assoc "stats" fields -> (
              match Dcn_obs.Snapshot.of_json (Json.Obj fields) with
              | Error m ->
                Error (Printf.sprintf "snapshot at line %d: %s" line_no m)
              | Ok snap ->
                incr seen;
                if last then last_snap := Some snap else render snap;
                Ok ())
            | Ok _ -> Ok ())
          ic
      in
      (match !last_snap with Some snap -> render snap | None -> ());
      (!seen, fatal)
    in
    let seen, fatal =
      if file = "-" then process stdin
      else
        let ic = open_in file in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> process ic)
    in
    match fatal with
    | Some msg ->
      Error (`Msg (Printf.sprintf "stats: malformed %s" msg))
    | None ->
      if seen = 0 then Error (`Msg "stats: no snapshot lines in the stream")
      else Ok ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Render a telemetry snapshot stream (from $(b,dcn serve \
          --stats-every) or $(b,dcn replay)) as aligned tables: the SLO \
          indicators — apply-latency quantiles, admission outcome rates, \
          interval reuse, deadline slack, energy against the fractional \
          lower bound — then the raw metrics.  Interleaved per-event \
          outcome lines are skipped; --strict fails at the first malformed \
          snapshot line.")
    Term.(term_result (const run $ file_t $ top_t $ last_t $ strict_t))

let () =
  (* DCN_SELFCHECK=1 makes every solver certify its own output. *)
  Dcn_check.Certify.selfcheck_from_env ();
  let doc = "energy-efficient deadline-constrained flow scheduling and routing" in
  let info = Cmd.info "dcn" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig2_cmd;
            gadgets_cmd;
            ablation_cmd;
            small_exact_cmd;
            example1_cmd;
            generate_cmd;
            solve_cmd;
            trace_cmd;
            certify_cmd;
            fuzz_cmd;
            resilience_cmd;
            serve_cmd;
            replay_cmd;
            crash_cmd;
            coflow_cmd;
            stats_cmd;
          ]))
