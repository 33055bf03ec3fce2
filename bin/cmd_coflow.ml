(* `dcn coflow {solve,report}`: sigma-order all-or-nothing admission of
   seeded coflow traces, every admitted set certificate-checked. *)

open Cmdliner
module Json = Dcn_engine.Json

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

let both_variants = [ Dcn_coflow.Admission.Baseline; Dcn_coflow.Admission.Energy_aware ]

let coflow_variants = function
  | None -> both_variants
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

(* Admit [cs] under each variant and certify each admitted set. *)
let run_variants ~pool ~graph ~power ~seed ~variants cs =
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

let verdict command results =
  if certs_ok results then Ok ()
  else Error (command ^ ": some admitted sets failed certification")

let solve =
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
  let run (graph, power) count variant dump seed trace report jobs =
    Cli.run ~command:"coflow-solve" ~jobs ~trace ~report @@ fun pool ->
    if count < 1 then failwith "--coflows must be >= 1";
    let cs = coflow_trace ~graph ~seed ~count in
    List.iter (fun c -> Format.printf "%a@." Dcn_coflow.Coflow.pp c) cs;
    let results =
      run_variants ~pool ~graph ~power ~seed ~variants:(coflow_variants variant) cs
    in
    List.iter (fun (adm, cert) -> render_admission adm cert) results;
    Option.iter
      (fun dir ->
        Cli.ensure_dir dir;
        let write name text = Observe.write_file (Filename.concat dir name) text in
        let inst =
          Dcn_core.Instance.make ~graph ~power ~flows:(Dcn_coflow.Coflow.flatten cs)
        in
        write "coflow.instance" (Dcn_core.Serialize.instance_to_string inst);
        write "coflow.members.json"
          (Json.to_string ~pretty:true (Dcn_coflow.Coflow.members_to_json cs));
        List.iter
          (fun ((adm : Dcn_coflow.Admission.t), _) ->
            Option.iter
              (fun sol ->
                write
                  (Printf.sprintf "coflow.%s.schedule" adm.Dcn_coflow.Admission.variant)
                  (Dcn_core.Serialize.schedule_to_string sol.Dcn_core.Solution.schedule))
              adm.Dcn_coflow.Admission.solution)
          results)
      dump;
    ( [
        ( "coflow",
          Json.Obj
            [
              ("coflows", Json.Int count);
              ("seed", Json.Int seed);
              ("trace", Json.List (List.map Dcn_coflow.Coflow.to_json cs));
              ("results", Json.List (List.map coflow_result_json results));
              ("pareto", Dcn_coflow.Admission.pareto_json (List.map fst results));
            ] );
      ],
      verdict "coflow solve" results )
  in
  Cli.cmd "solve"
    ~doc:
      "Generate a seeded shuffle/incast coflow trace and run sigma-order \
       all-or-nothing admission on it — the DCoflow-style baseline \
       (greedy-ear) and the energy-aware variant (Relaxation + randomised \
       rounding) — reporting coflow completion rate and Eq. (5) energy \
       for each, with every admitted set's conjunction certificate \
       re-verified.  Deterministic for a given --seed at every --jobs \
       level; non-zero exit on any violation."
    Term.(
      const run $ Cli.fabric_t $ coflow_count_t $ coflow_variant_t $ dump_t
      $ Cli.seed_t $ Observe.trace_t $ Observe.report_t $ Cli.jobs_t)

let report =
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
    Cli.run ~command:"coflow-report" ~jobs ~trace ~report @@ fun pool ->
    if count < 1 then failwith "--coflows must be >= 1";
    if caps = [] then failwith "--caps must not be empty";
    let cs = coflow_trace ~graph ~seed ~count in
    Printf.printf "%-10s %-12s %10s %12s %9s\n" "cap" "variant" "admitted"
      "completion" "energy";
    let levels =
      List.map
        (fun cap ->
          let power = Dcn_power.Model.make ~sigma ~mu:1. ~alpha ~cap () in
          let results =
            run_variants ~pool ~graph ~power ~seed ~variants:both_variants cs
          in
          List.iter
            (fun ((adm : Dcn_coflow.Admission.t), _) ->
              Printf.printf "%-10s %-12s %6d/%-3d %11.0f%% %9.3f\n"
                (if Float.is_finite cap then Printf.sprintf "%g" cap else "inf")
                adm.Dcn_coflow.Admission.variant
                (List.length adm.Dcn_coflow.Admission.admitted)
                (List.length adm.Dcn_coflow.Admission.order)
                (100. *. adm.Dcn_coflow.Admission.completion_rate)
                adm.Dcn_coflow.Admission.energy)
            results;
          ( results,
            Json.Obj
              [
                ("cap", Json.float cap);
                ("pareto", Dcn_coflow.Admission.pareto_json (List.map fst results));
              ] ))
        caps
    in
    ( [
        ( "coflow",
          Json.Obj
            [
              ("coflows", Json.Int count);
              ("seed", Json.Int seed);
              ("sweep", Json.List (List.map snd levels));
            ] );
      ],
      verdict "coflow report" (List.concat_map fst levels) )
  in
  Cli.cmd "report"
    ~doc:
      "Sweep link capacity over a seeded coflow trace and report the \
       completion-rate / energy Pareto frontier of both admission \
       variants; every admitted set is certificate-checked.  \
       Deterministic at every --jobs level."
    Term.(
      const run $ Cli.topo_t $ Cli.alpha_t $ Cli.sigma_t $ caps_t $ coflow_count_t
      $ Cli.seed_t $ Observe.trace_t $ Observe.report_t $ Cli.jobs_t)

let coflow =
  Cmd.group
    (Cmd.info "coflow"
       ~doc:
         "Coflow workloads: groups of flows under one collective deadline, \
          admitted all-or-nothing (solve, report; replay a coflow event log \
          with $(b,dcn replay)).")
    [ solve; report ]
