(* `certify` re-verifies a schedule or differential-tests every solver
   on an instance, `fuzz` runs seeded campaigns of both, `resilience`
   a seeded fault-injection campaign. *)

open Cmdliner
module Json = Dcn_engine.Json

let certify =
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
    Cli.run ~command:"certify" ~trace ~report @@ fun _ ->
    let inst = Cli.parse_file instance_file Dcn_core.Serialize.instance_of_string in
    let members =
      Option.map
        (fun path ->
          Cli.parse_file path (fun text ->
              match Dcn_coflow.Coflow.members_of_json (Json.of_string text) with
              | Ok members -> members
              | Error m -> failwith m))
        coflows_file
    in
    if members <> None && schedule_file = None then
      failwith "--coflows requires --schedule";
    let failed what = Error (Printf.sprintf "certification failed (%s)" what) in
    match schedule_file with
    | Some path ->
      let sched = Cli.parse_file path (Dcn_core.Serialize.schedule_of_string inst) in
      let config = { Dcn_check.Certify.default with partial; exclusive } in
      let violations =
        Dcn_check.Certify.schedule ~config inst sched
        @
        match members with
        | None -> []
        | Some members -> Dcn_check.Certify.coflow_consistency ~members sched
      in
      if violations = [] then Printf.printf "certificate OK: %s\n" path
      else
        List.iter
          (fun v -> Format.printf "violation: %a@." Dcn_check.Certify.pp_violation v)
          violations;
      ( [
          ( "certify",
            Json.Obj
              ([ ("instance", Json.Str instance_file); ("schedule", Json.Str path) ]
              @ (match coflows_file with
                | None -> []
                | Some f -> [ ("coflows", Json.Str f) ])
              @ [ ("certificate", Dcn_check.Certify.violations_to_json violations) ])
          );
        ],
        if violations = [] then Ok ()
        else failed (Printf.sprintf "%d violation(s)" (List.length violations)) )
    | None ->
      let label = Filename.basename instance_file in
      let oracle = Dcn_check.Oracle.run ~solver_seed:seed ~label inst in
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
        (fun c -> Format.printf "cross: %a@." Dcn_check.Oracle.pp_cross c)
        oracle.Dcn_check.Oracle.cross;
      ( [ ("certify", Dcn_check.Oracle.to_json oracle) ],
        if Dcn_check.Oracle.ok oracle then Ok ()
        else
          failed
            (Printf.sprintf "kinds: %s"
               (String.concat ", " (Dcn_check.Oracle.violation_kinds oracle))) )
  in
  Cli.cmd "certify"
    ~doc:
      "Independently re-verify a schedule (paths, windows, volumes, \
       capacity, energy, lower bound) or differential-test every solver on \
       an instance; non-zero exit on any violation."
    Term.(
      const run $ instance_t $ schedule_t $ coflows_t $ partial_t $ exclusive_t
      $ Cli.seed_t $ Observe.trace_t $ Observe.report_t)

let fuzz =
  let runs_t =
    Arg.(
      value & opt int 50
      & info [ "runs" ]
          ~doc:
            "Number of random instances; 0 skips them (a campaign of \
             --coflows alone)."
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
  (* A failing instance: report it, shrink it while the oracle still
     reports at least one of its violation kinds, write its artifacts
     under --out.  Returns the shrink summary. *)
  let failing ~no_shrink ~out i (case : Dcn_check.Gen.case) oracle =
    let kinds = Dcn_check.Oracle.violation_kinds oracle in
    Printf.eprintf "[fuzz] case %d (%s) FAILED: %s\n%!" i case.Dcn_check.Gen.label
      (String.concat ", " kinds);
    let min_result =
      if no_shrink then None
      else
        let pred inst =
          let o =
            Dcn_check.Oracle.run ~solver_seed:case.Dcn_check.Gen.solver_seed
              ~label:case.Dcn_check.Gen.label inst
          in
          List.exists (fun k -> List.mem k (Dcn_check.Oracle.violation_kinds o)) kinds
        in
        Some (Dcn_check.Shrink.minimize pred case.Dcn_check.Gen.instance)
    in
    Option.iter
      (fun dir ->
        Cli.ensure_dir dir;
        let base = Filename.concat dir (Printf.sprintf "case-%03d" i) in
        Observe.write_file (base ^ ".instance")
          (Dcn_core.Serialize.instance_to_string case.Dcn_check.Gen.instance);
        Option.iter
          (fun m ->
            Observe.write_file (base ^ ".min.instance")
              (Dcn_core.Serialize.instance_to_string m.Dcn_check.Shrink.instance))
          min_result;
        Observe.write_file (base ^ ".json")
          (Json.to_string ~pretty:true
             (Json.Obj
                [
                  ("oracle", Dcn_check.Oracle.to_json oracle);
                  ( "shrink",
                    match min_result with
                    | None -> Json.Null
                    | Some m -> Dcn_check.Shrink.steps_to_json m.Dcn_check.Shrink.steps );
                ])))
      out;
    Option.map
      (fun m ->
        let flows, cables = Dcn_check.Shrink.size m.Dcn_check.Shrink.instance in
        let steps = List.length m.Dcn_check.Shrink.steps in
        Printf.eprintf "[fuzz]   shrunk to %d flow(s), %d cable(s) in %d step(s)\n%!"
          flows cables steps;
        Json.Obj
          [
            ("case", Json.Int i);
            ("steps", Json.Int steps);
            ("flows", Json.Int flows);
            ("cables", Json.Int cables);
          ])
      min_result
  in
  (* One seeded coflow case through both admission variants; [true] when
     every admitted set certifies. *)
  let coflow_case ~pool (case : Dcn_check.Gen.coflow_case) =
    let cs =
      List.map
        (fun (job, flows) -> Dcn_coflow.Coflow.make ~id:job ~flows ())
        case.Dcn_check.Gen.jobs
    in
    let results =
      Cmd_coflow.run_variants ~pool ~graph:case.Dcn_check.Gen.graph
        ~power:case.Dcn_check.Gen.power ~seed:case.Dcn_check.Gen.solver_seed
        ~variants:Cmd_coflow.both_variants cs
    in
    List.iter
      (fun ((adm : Dcn_coflow.Admission.t), (cert : Dcn_coflow.Certificate.report)) ->
        if not cert.Dcn_coflow.Certificate.ok then
          Printf.eprintf "[fuzz] coflow case %d (%s) %s FAILED: %s\n%!"
            case.Dcn_check.Gen.index case.Dcn_check.Gen.label
            adm.Dcn_coflow.Admission.variant
            (String.concat ", "
               (List.map Dcn_check.Certify.kind cert.Dcn_coflow.Certificate.violations)))
      results;
    let ok = Cmd_coflow.certs_ok results in
    ( ok,
      Json.Obj
        [
          ("case", Json.Int case.Dcn_check.Gen.index);
          ("label", Json.Str case.Dcn_check.Gen.label);
          ("pareto", Dcn_coflow.Admission.pareto_json (List.map fst results));
          ("ok", Json.Bool ok);
        ] )
  in
  let run runs seed out no_shrink coflows trace report jobs =
    Cli.run ~command:"fuzz" ~jobs ~trace ~report @@ fun pool ->
    if runs < 0 then failwith "--runs must be >= 0";
    if coflows < 0 then failwith "--coflows must be >= 0";
    if runs = 0 && coflows = 0 then failwith "fuzz: --runs and --coflows are both 0";
    (* --runs 0 skips the instance batch: a coflow-only campaign. *)
    let cases = if runs = 0 then [||] else Dcn_check.Gen.batch ~seed ~n:runs in
    let reports = Dcn_check.Oracle.run_batch ~pool cases in
    let failed =
      List.filter
        (fun i -> not (Dcn_check.Oracle.ok reports.(i)))
        (List.init (Array.length reports) Fun.id)
    in
    let shrunk =
      List.filter_map (fun i -> failing ~no_shrink ~out i cases.(i) reports.(i)) failed
    in
    let failures = List.length failed in
    if runs > 0 then
      Printf.printf "fuzz: %d/%d case(s) certified (seed %d)\n" (runs - failures)
        runs seed;
    let coflow_failures, coflow_section =
      if coflows = 0 then (0, [])
      else begin
        let rows =
          Array.map (coflow_case ~pool) (Dcn_check.Gen.coflow_batch ~seed ~n:coflows)
        in
        let failures =
          Array.fold_left (fun n (ok, _) -> if ok then n else n + 1) 0 rows
        in
        Printf.printf "fuzz: %d/%d coflow case(s) certified (both variants)\n"
          (coflows - failures) coflows;
        ( failures,
          [
            ( "coflow",
              Json.Obj
                [
                  ("runs", Json.Int coflows);
                  ("seed", Json.Int seed);
                  ("cases", Json.List (Array.to_list (Array.map snd rows)));
                ] );
          ] )
      end
    in
    ( coflow_section
      @ [
          ( "fuzz",
            Json.Obj
              [
                ("runs", Json.Int runs);
                ("seed", Json.Int seed);
                ("batch", Dcn_check.Oracle.batch_to_json reports);
                ("shrunk", Json.List shrunk);
              ] );
        ],
      if failures > 0 then
        Error (Printf.sprintf "fuzz: %d/%d case(s) failed certification" failures runs)
      else if coflow_failures > 0 then
        Error
          (Printf.sprintf "fuzz: %d/%d coflow case(s) failed certification"
             coflow_failures coflows)
      else Ok () )
  in
  Cli.cmd "fuzz"
    ~doc:
      "Differentially fuzz the solver family on random instances; failing \
       cases are delta-debugged to minimal counterexamples.  Deterministic \
       for a given --runs/--seed at every --jobs level."
    Term.(
      const run $ runs_t $ Cli.seed_t $ out_t $ no_shrink_t $ coflows_t
      $ Observe.trace_t $ Observe.report_t $ Cli.jobs_t)

let resilience =
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
    Cli.run ~command:"resilience" ~jobs ~trace ~report @@ fun pool ->
    if faults < 1 then failwith "--faults must be >= 1";
    let t = Campaign.run ~pool ?budget_ms:budget ~policy ~seed ~n:faults () in
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
               else Printf.sprintf ", %d VIOLATION(S)" (List.length d.Repair.violations))
          | Repair.Irreparable { reason; _ } -> reason))
      t.Campaign.rows;
    Printf.printf
      "resilience: %d scenario(s): %d repaired, %d degraded, %d irreparable \
       (policy %s, seed %d)\n"
      faults t.Campaign.repaired t.Campaign.degraded t.Campaign.irreparable
      (Repair.policy_to_string policy)
      seed;
    ( [ ("resilience", Campaign.to_json t) ],
      if Campaign.ok t then Ok ()
      else
        Error
          (Printf.sprintf "resilience: %d repair(s) failed certification"
             t.Campaign.uncertified) )
  in
  Cli.cmd "resilience"
    ~doc:
      "Run a deterministic fault-injection campaign: commit a schedule \
       (under an optional watchdog budget), strike it with a seeded fault \
       (cable cut, capacity degradation, flow burst), repair with graceful \
       degradation, and certify every re-plan.  Bit-identical for a given \
       --faults/--seed at every --jobs level; non-zero exit if any repair \
       fails certification."
    Term.(
      const run $ faults_t $ Cli.seed_t $ Cli.policy_t $ budget_t
      $ Observe.trace_t $ Observe.report_t $ Cli.jobs_t)
