(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DESIGN.md experiments E1-E14) and times the algorithms
   with Bechamel (E9).

   Scale knobs (environment):
     DCN_BENCH_QUICK=1   small network (fat-tree k=4) and small counts
     DCN_BENCH_SEEDS=n   number of workload seeds per point (default 3;
                         the paper uses 10)

   Observability (environment):
     DCN_BENCH_REPORT=f  write per-experiment machine-readable results
                         (JSON) to f on exit
     DCN_BENCH_TRACE=f   write the structured event trace of the whole
                         run (JSON) to f on exit

   Regression gate (environment):
     DCN_BENCH_BASELINE=f   diff the fresh report against the committed
                            baseline report f and exit non-zero on a
                            mismatch (see EXPERIMENTS.md)
     DCN_BENCH_TOLERANCE=x  relative tolerance for numeric values in
                            the gate (default 1e-6)

   The paper's Figure 2 shape to look for: RS/LB low and flattening as
   the number of flows grows; SP+MCF/LB higher and growing; both
   effects stronger for alpha = 4. *)

let quick = Sys.getenv_opt "DCN_BENCH_QUICK" = Some "1"

let seeds =
  match Sys.getenv_opt "DCN_BENCH_SEEDS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 3)
  | None -> 3

(* Every section shares one pool sized by DCN_JOBS (default 1). *)
let pool = Dcn_engine.Pool.create ~jobs:(Dcn_engine.Pool.default_jobs ()) ()

module Json = Dcn_engine.Json

let report_path = Sys.getenv_opt "DCN_BENCH_REPORT"
let trace_path = Sys.getenv_opt "DCN_BENCH_TRACE"
let baseline_path = Sys.getenv_opt "DCN_BENCH_BASELINE"

let tolerance =
  match Sys.getenv_opt "DCN_BENCH_TOLERANCE" with
  | Some s -> (try float_of_string s with Failure _ -> 1e-6)
  | None -> 1e-6

let bench_trace =
  match trace_path with
  | None -> None
  | Some _ ->
    let t = Dcn_engine.Trace.create () in
    Dcn_engine.Trace.install t;
    Some t

(* Sections accumulate in run order; nothing is built unless a report
   was requested (or the baseline gate needs one to diff). *)
let collecting = report_path <> None || baseline_path <> None
let report_sections : (string * Json.t) list ref = ref []

(* Per-experiment stage metrics: a [Dcn_obs.Stage.since] cut at every
   section banner and at every [report] call, so each reported
   experiment gets only the stages it ran itself instead of everything
   accumulated by earlier sections.  The cumulative table at the end is
   untouched.  Stages only record while the metrics registry is enabled;
   E15 turns it on (after its telemetry-off leg) and leaves it on. *)
let last_metrics = ref []
let section_metrics : (string * Json.t) list ref = ref []

let metrics_cut () =
  let now = Dcn_obs.Stage.snapshot () in
  let delta = Dcn_obs.Stage.since ~base:!last_metrics now in
  last_metrics := now;
  delta

let report name json =
  let delta = metrics_cut () in
  if collecting then begin
    report_sections := (name, json) :: !report_sections;
    if delta <> [] then
      section_metrics :=
        (name, Dcn_obs.Stage.snapshot_to_json delta) :: !section_metrics
  end

(* Atomic, like bin/observe.ml: the gate must never read a truncated
   report. *)
let write_file path text =
  Dcn_util.Atomic_file.write ~path [ text ];
  Printf.eprintf "wrote %s\n%!" path

(* ------------------------- regression gate ------------------------ *)

(* Diffs the fresh report against the committed baseline: every
   baseline section must still be present, every baseline metrics stage
   must still be recorded, and every numeric leaf of the baseline's
   experiment sections must match within [tolerance] (relative).  Wall
   times never enter the comparison: "metrics"/"section_metrics" are
   checked for stage presence only, and "seconds" keys are skipped.
   Returns the failure messages (empty = gate passed). *)
let gate ~baseline ~fresh =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let timing_keys = [ "metrics"; "section_metrics" ] in
  let numeric = function
    | Json.Int _ | Json.Float _ -> true
    | Json.Str ("inf" | "-inf" | "nan") -> true
    | _ -> false
  in
  let rec walk path b f =
    match (b, f) with
    | Json.Obj bf, Json.Obj ff ->
      List.iter
        (fun (k, bv) ->
          if k <> "seconds" then
            match List.assoc_opt k ff with
            | None -> fail "%s.%s: missing from fresh report" path k
            | Some fv -> walk (path ^ "." ^ k) bv fv)
        bf
    | Json.List bl, Json.List fl ->
      if List.length bl <> List.length fl then
        fail "%s: %d element(s) -> %d" path (List.length bl) (List.length fl)
      else
        List.iteri
          (fun i (bv, fv) -> walk (Printf.sprintf "%s[%d]" path i) bv fv)
          (List.combine bl fl)
    | bv, fv when numeric bv && numeric fv ->
      let x = Json.to_float bv and y = Json.to_float fv in
      let same =
        (Float.is_nan x && Float.is_nan y)
        || x = y
        || Float.abs (x -. y) <= tolerance *. Float.max (Float.abs x) (Float.abs y)
      in
      if not same then fail "%s: %.17g -> %.17g (tolerance %g)" path x y tolerance
    | Json.Str bs, Json.Str fs ->
      if bs <> fs then fail "%s: %S -> %S" path bs fs
    | Json.Bool bb, Json.Bool fb ->
      if bb <> fb then fail "%s: %b -> %b" path bb fb
    | Json.Null, Json.Null -> ()
    | _ -> fail "%s: shape changed" path
  in
  let stages = function
    | Json.List rows ->
      List.filter_map (fun r -> Option.map Json.to_str (Json.member "stage" r)) rows
    | _ -> []
  in
  (match (Json.member "metrics" baseline, Json.member "metrics" fresh) with
  | Some b, Some (Json.List (_ :: _) as f) ->
    List.iter
      (fun s ->
        if not (List.mem s (stages f)) then fail "metrics: stage %S disappeared" s)
      (stages b)
  | Some _, _ -> fail "metrics: missing or empty in fresh report"
  | None, _ -> ());
  List.iter
    (fun (k, bv) ->
      if not (List.mem k timing_keys) then
        match Json.member k fresh with
        | None -> fail "section %S missing from fresh report" k
        | Some fv -> walk k bv fv)
    (Json.to_obj baseline);
  List.rev !failures

let run_gate fresh_json =
  match baseline_path with
  | None -> ()
  | Some path ->
    let baseline =
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      try Json.of_string text
      with Failure m ->
        Printf.eprintf "bench gate: %s is not valid JSON: %s\n%!" path m;
        exit 1
    in
    (match gate ~baseline ~fresh:fresh_json with
    | [] -> Printf.printf "bench gate: OK (matches %s within %g)\n%!" path tolerance
    | failures ->
      Printf.eprintf "bench gate: %d regression(s) vs %s:\n" (List.length failures)
        path;
      List.iter (fun m -> Printf.eprintf "  %s\n" m) failures;
      Printf.eprintf "%!";
      exit 1)

let flush_observability () =
  (match bench_trace with
  | None -> ()
  | Some t ->
    Dcn_engine.Trace.uninstall ();
    write_file (Option.get trace_path)
      (Json.to_string ~pretty:true (Dcn_engine.Trace.to_json t)));
  if collecting then begin
    let json =
      Json.Obj
        (("command", Json.Str "bench")
         :: List.rev !report_sections
        @ [
            ("metrics", Dcn_obs.Stage.to_json ());
            ("section_metrics", Json.Obj (List.rev !section_metrics));
          ])
    in
    (match report_path with
    | Some path -> write_file path (Json.to_string ~pretty:true json)
    | None -> ());
    run_gate json
  end

let section title =
  ignore (metrics_cut ());
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 72 '=') title (String.make 72 '=')

(* --------------------------- E1 / E2 ------------------------------ *)

let fig2 alpha =
  section
    (Printf.sprintf "E%d. Figure 2, alpha = %g (RS vs SP+MCF vs LB, %d seed(s))"
       (if alpha = 2. then 1 else 2)
       alpha seeds);
  let params =
    if quick then Dcn_experiments.Fig2.quick_params ~alpha
    else Dcn_experiments.Fig2.default_params ~alpha
  in
  let params =
    { params with Dcn_experiments.Fig2.seeds = List.init seeds (fun i -> 1000 + i) }
  in
  let res =
    Dcn_experiments.Fig2.run
      ~progress:(fun msg -> Printf.eprintf "  [%s]\n%!" msg)
      ~pool params
  in
  print_endline (Dcn_experiments.Fig2.render res);
  report (Printf.sprintf "fig2_alpha%g" alpha) (Dcn_experiments.Fig2.to_json res)

(* ----------------------------- E3 --------------------------------- *)

let example1 () =
  section "E3. Example 1 / Figure 1 (closed-form check)";
  let graph = Dcn_topology.Builders.line 3 in
  let power = Dcn_power.Model.quadratic in
  let f1 = Dcn_flow.Flow.make ~id:1 ~src:0 ~dst:2 ~volume:6. ~release:2. ~deadline:4. in
  let f2 = Dcn_flow.Flow.make ~id:2 ~src:0 ~dst:1 ~volume:8. ~release:1. ~deadline:3. in
  let inst = Dcn_core.Instance.make ~graph ~power ~flows:[ f1; f2 ] in
  let res = Dcn_core.Baselines.sp_mcf inst in
  let s2 = (8. +. (6. *. sqrt 2.)) /. 3. in
  Printf.printf "paper optimum : s1 = %.6f, s2 = %.6f\n" (s2 /. sqrt 2.) s2;
  Printf.printf "computed      : s1 = %.6f, s2 = %.6f\n"
    (Option.value ~default:nan (Dcn_core.Solution.find_rate res 1))
    (Option.value ~default:nan (Dcn_core.Solution.find_rate res 2));
  Printf.printf "energy        : %.6f (schedule integral %.6f)\n"
    res.Dcn_core.Solution.energy
    (Dcn_sched.Schedule.energy res.Dcn_core.Solution.schedule);
  report "example1" (Dcn_core.Serialize.solution_to_json res)

(* --------------------------- E4 / E5 ------------------------------ *)

let gadgets () =
  section "E4. Theorem 2 gadget (3-partition)";
  let tp = Dcn_experiments.Gadget_runs.three_partition () in
  print_endline (Dcn_experiments.Gadget_runs.render_three_partition tp);
  section "E5. Theorem 3 gadget (partition / inapproximability)";
  let p = Dcn_experiments.Gadget_runs.partition () in
  print_endline (Dcn_experiments.Gadget_runs.render_partition p);
  report "gadgets"
    (Json.Obj
       [
         ("three_partition", Dcn_experiments.Gadget_runs.three_partition_to_json tp);
         ("partition", Dcn_experiments.Gadget_runs.partition_to_json p);
       ])

(* ----------------------------- E6 --------------------------------- *)

let theorem4 () =
  section "E6. Theorem 4: Random-Schedule deadline guarantee (fluid simulation)";
  let graph = Dcn_topology.Builders.fat_tree 4 in
  let power = Dcn_power.Model.quadratic in
  let rows =
    List.map
      (fun seed ->
        let rng = Dcn_util.Prng.create seed in
        let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n:30 () in
        let inst = Dcn_core.Instance.make ~graph ~power ~flows in
        let rs =
          Dcn_core.Random_schedule.solve
            ~config:
              {
                Dcn_core.Random_schedule.attempts = 20;
                fw_config = Dcn_experiments.Fig2.experiment_fw_config;
              }
            ~rng inst
        in
        let report = Dcn_sim.Fluid.run rs.Dcn_core.Solution.schedule in
        [
          string_of_int seed;
          string_of_int (List.length flows);
          (if report.Dcn_sim.Fluid.all_deadlines_met then "met" else "MISSED");
          Printf.sprintf "%.2f" report.Dcn_sim.Fluid.max_rate;
          Printf.sprintf "%.1f" report.Dcn_sim.Fluid.energy;
        ])
      [ 11; 12; 13; 14; 15 ]
  in
  print_endline
    (Dcn_util.Table.render
       ~headers:[ "seed"; "flows"; "deadlines"; "max link rate"; "energy" ]
       ~rows ())

let packetization () =
  section "E6b. Packetisation: priority packet switching of DCFS schedules (Section III)";
  let graph = Dcn_topology.Builders.fat_tree 4 in
  let power = Dcn_power.Model.quadratic in
  let rng = Dcn_util.Prng.create 21 in
  let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n:12 () in
  let inst = Dcn_core.Instance.make ~graph ~power ~flows in
  let res = Dcn_core.Baselines.sp_mcf inst in
  let rows =
    List.map
      (fun packet_size ->
        let r =
          Dcn_sim.Packet.run ~config:{ Dcn_sim.Packet.packet_size }
            res.Dcn_core.Solution.schedule
        in
        [
          Printf.sprintf "%.2f" packet_size;
          (if r.Dcn_sim.Packet.all_delivered then "yes" else "NO");
          Printf.sprintf "%.4f" r.Dcn_sim.Packet.max_lateness;
          (if r.Dcn_sim.Packet.within_pipeline_slack then "yes" else "NO");
          string_of_int r.Dcn_sim.Packet.events;
          string_of_int r.Dcn_sim.Packet.max_queue;
        ])
      [ 2.0; 1.0; 0.5; 0.25; 0.1 ]
  in
  print_endline
    (Dcn_util.Table.render
       ~headers:
         [ "packet size"; "delivered"; "max lateness"; "within pipeline"; "events"; "max queue" ]
       ~rows ())

(* ----------------------------- E7 --------------------------------- *)

let ablations () =
  let module A = Dcn_experiments.Ablation in
  section "E7a. Ablation: power-down (sigma > 0)";
  let pd = A.power_down ~pool ~sigmas:[ 0.; 10.; 50.; 200. ] () in
  print_endline (A.render_power_down pd);
  section "E7b. Ablation: capacity stress (rounding redraws)";
  let cap = A.capacity_stress ~pool ~caps:[ infinity; 10.; 6.; 4. ] () in
  print_endline (A.render_capacity cap);
  section "E7c. Ablation: Most-Critical-First refinement of RS routes";
  let refi = A.refinement ~pool ~ns:[ 10; 20; 40 ] () in
  print_endline (A.render_refinement refi);
  section "E7d. Ablation: routing policies (SP vs ECMP vs Greedy-EAR vs Random-Schedule)";
  let rout = A.routing_comparison ~pool ~ns:[ 10; 20; 40 ] () in
  print_endline (A.render_routing rout);
  section "E7e. Ablation: lower-bound tightness (paper LB vs joint relaxation)";
  let lb = A.lb_tightness ~pool ~ns:[ 10; 20; 40 ] () in
  print_endline (A.render_lb lb);
  section "E7f. Ablation: flow splitting (Section II-B multi-path emulation)";
  let spl = A.splitting ~pool ~parts:[ 1; 2; 4; 8 ] () in
  print_endline (A.render_splitting spl);
  section "E7g. Ablation: discrete link speeds (rate adaptation)";
  let rl = A.rate_levels ~pool ~counts:[ 2; 4; 8; 16 ] () in
  print_endline (A.render_rate_levels rl);
  section "E7h. Ablation: online admission control under finite capacity";
  let adm = A.admission ~pool ~loads:[ 0.5; 1.; 2.; 4.; 8. ] () in
  print_endline (A.render_admission adm);
  section "E7i. Ablation: failure resilience (random cable failures)";
  let fl = A.failures ~pool ~counts:[ 0; 4; 8; 12 ] () in
  print_endline (A.render_failures fl);
  report "ablation"
    (Json.Obj
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
       ])

(* ----------------------------- E8 --------------------------------- *)

let small_exact () =
  section "E8. Random-Schedule vs exact optimum (exhaustive routing)";
  let rows = Dcn_experiments.Small_exact.run ~seeds:[ 1; 2; 3; 4; 5; 6 ] () in
  print_endline (Dcn_experiments.Small_exact.render rows);
  report "small_exact" (Dcn_experiments.Small_exact.to_json rows)

let bounds_check () =
  section "E8b. Worst-case bounds vs measured approximation (Theorems 3/6)";
  print_endline
    (Dcn_experiments.Bounds_check.render
       (Dcn_experiments.Bounds_check.run ~ns:[ 10; 20; 40 ] ()))

let trace_eval () =
  section "E10. Extension: production-like traces (heavy-tailed, Poisson)";
  print_endline
    (Dcn_experiments.Trace_eval.render
       (Dcn_experiments.Trace_eval.run ~loads:[ 0.5; 1.; 2.; 4. ] ()))

(* ----------------------------- E9 --------------------------------- *)

let runtime_benchmarks () =
  section "E9. Runtime micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let graph4 = Dcn_topology.Builders.fat_tree 4 in
  let power = Dcn_power.Model.quadratic in
  let instance_of n seed =
    let rng = Dcn_util.Prng.create seed in
    let flows = Dcn_flow.Workload.paper_random ~rng ~graph:graph4 ~n () in
    Dcn_core.Instance.make ~graph:graph4 ~power ~flows
  in
  let inst20 = instance_of 20 5 and inst40 = instance_of 40 5 in
  let fw_cfg = Dcn_experiments.Fig2.experiment_fw_config in
  let mk_rs inst () =
    let rng = Dcn_util.Prng.create 1 in
    ignore
      (Dcn_core.Random_schedule.solve
         ~config:{ Dcn_core.Random_schedule.attempts = 5; fw_config = fw_cfg }
         ~rng inst)
  in
  let mk_mcf inst () = ignore (Dcn_core.Baselines.sp_mcf inst) in
  let mk_fw n () =
    let rng = Dcn_util.Prng.create 2 in
    let hosts = Dcn_topology.Graph.hosts graph4 in
    let commodities =
      Array.init n (fun index ->
          let src = Dcn_util.Prng.pick rng hosts in
          let rec dst () =
            let d = Dcn_util.Prng.pick rng hosts in
            if d = src then dst () else d
          in
          Dcn_mcf.Commodity.make ~index ~src ~dst:(dst ())
            ~demand:(0.5 +. Dcn_util.Prng.float rng 2.))
    in
    ignore
      (Dcn_mcf.Frank_wolfe.solve ~config:fw_cfg
         {
           Dcn_mcf.Frank_wolfe.graph = graph4;
           commodities;
           cost = (fun x -> x *. x);
           cost_deriv = (fun x -> 2. *. x);
           capacity = infinity;
         })
  in
  let mk_yds n () =
    let rng = Dcn_util.Prng.create 3 in
    let jobs =
      List.init n (fun id ->
          let r = Dcn_util.Prng.uniform rng ~lo:0. ~hi:50. in
          let d = r +. 1. +. Dcn_util.Prng.uniform rng ~lo:0. ~hi:20. in
          Dcn_speed_scaling.Job.make ~id ~weight:(1. +. Dcn_util.Prng.float rng 9.)
            ~release:r ~deadline:d)
    in
    ignore (Dcn_speed_scaling.Yds.schedule jobs)
  in
  let tests =
    [
      Test.make ~name:"yds n=50" (Staged.stage (mk_yds 50));
      Test.make ~name:"frank-wolfe k=4 n=20" (Staged.stage (mk_fw 20));
      Test.make ~name:"most-critical-first n=20" (Staged.stage (mk_mcf inst20));
      Test.make ~name:"most-critical-first n=40" (Staged.stage (mk_mcf inst40));
      Test.make ~name:"random-schedule n=20" (Staged.stage (mk_rs inst20));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 2.) ~kde:None () in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let analyzed = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name ols_result acc ->
            let time_ns =
              match Analyze.OLS.estimates ols_result with
              | Some [ t ] -> t
              | _ -> nan
            in
            [ name; Printf.sprintf "%.3f" (time_ns /. 1e6) ] :: acc)
          analyzed [])
      tests
  in
  print_endline
    (Dcn_util.Table.render ~headers:[ "algorithm"; "time (ms/run)" ]
       ~rows:(List.concat rows) ())

(* ----------------------------- E14 -------------------------------- *)

(* Kernel scaling: the same fractional MCF per fat-tree scale, solved
   by both Frank-Wolfe engines from identical inputs.  The flat-kernel
   run must reproduce the reference run bit for bit (loads and cost
   compared exactly — the kernel replays the reference's float
   operations), and the wall-time ratio is the tracked speedup.  All
   timings sit in a "seconds" subtree, which the baseline gate skips;
   the stable facts (scale, commodity count, iterations, cost,
   bit-identicality) are gated. *)
let kernel_scaling () =
  section "E14. Kernel scaling: flat-Bigarray Frank-Wolfe vs reference";
  let scales =
    (* (fat-tree k, commodities).  Quick keeps the gate cheap but still
       covers the k=16 target; the full run sweeps the ROADMAP scale
       goals with 10k-100k commodities. *)
    if quick then [ (4, 64); (8, 256); (16, 512) ]
    else [ (8, 10_000); (16, 25_000); (24, 50_000); (32, 100_000) ]
  in
  let power = Dcn_power.Model.quadratic in
  let piecewise = Dcn_core.Relaxation.piecewise_of power in
  let fw_cfg =
    { Dcn_mcf.Frank_wolfe.default_config with max_iters = (if quick then 20 else 8) }
  in
  let workspace = Dcn_mcf.Kernel.Workspace.create () in
  let rows, json_rows =
    List.split
      (List.map
         (fun (k, nc) ->
           let graph = Dcn_topology.Builders.fat_tree k in
           let rng = Dcn_util.Prng.create (1000 + k) in
           let hosts = Dcn_topology.Graph.hosts graph in
           let commodities =
             Array.init nc (fun index ->
                 let src = Dcn_util.Prng.pick rng hosts in
                 let rec dst () =
                   let d = Dcn_util.Prng.pick rng hosts in
                   if d = src then dst () else d
                 in
                 Dcn_mcf.Commodity.make ~index ~src ~dst:(dst ())
                   ~demand:(0.5 +. Dcn_util.Prng.float rng 2.))
           in
           let problem =
             {
               Dcn_mcf.Frank_wolfe.graph;
               commodities;
               cost = Dcn_power.Model.envelope power;
               cost_deriv = Dcn_power.Model.envelope_deriv power;
               capacity = power.Dcn_power.Model.cap;
             }
           in
           let time f =
             let t0 = Unix.gettimeofday () in
             let r = f () in
             (r, Unix.gettimeofday () -. t0)
           in
           (* Warm-up solve so the kernel arena is grown once and the
              timed runs measure the steady state (arena reuse). *)
           ignore
             (Dcn_mcf.Frank_wolfe.solve
                ~config:{ fw_cfg with max_iters = 2 }
                ~workspace ~piecewise problem);
           let kernel, kernel_s =
             time (fun () ->
                 Dcn_mcf.Frank_wolfe.solve ~config:fw_cfg ~workspace
                   ~piecewise problem)
           in
           let reference, reference_s =
             time (fun () ->
                 Dcn_mcf.Frank_wolfe.solve_reference ~config:fw_cfg problem)
           in
           let open Dcn_mcf.Frank_wolfe in
           let bit_identical =
             Int64.bits_of_float kernel.cost
             = Int64.bits_of_float reference.cost
             && Array.length kernel.loads = Array.length reference.loads
             && Array.for_all2
                  (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
                  kernel.loads reference.loads
           in
           let speedup = reference_s /. Float.max 1e-9 kernel_s in
           ( [
               string_of_int k;
               string_of_int nc;
               string_of_int kernel.iterations;
               Printf.sprintf "%.3f" kernel_s;
               Printf.sprintf "%.3f" reference_s;
               Printf.sprintf "%.2fx" speedup;
               (if bit_identical then "bit-identical" else "DIVERGES");
             ],
             Json.Obj
               [
                 ("k", Json.Int k);
                 ("commodities", Json.Int nc);
                 ("iterations", Json.Int kernel.iterations);
                 ("cost", Json.float kernel.cost);
                 ("bit_identical", Json.Bool bit_identical);
                 ( "seconds",
                   Json.Obj
                     [
                       ("kernel", Json.float kernel_s);
                       ("reference", Json.float reference_s);
                       ("speedup", Json.float speedup);
                     ] );
               ] ))
         scales)
  in
  print_endline
    (Dcn_util.Table.render
       ~headers:
         [
           "fat-tree k";
           "commodities";
           "iters";
           "kernel (s)";
           "reference (s)";
           "speedup";
           "agreement";
         ]
       ~rows ());
  report "kernel_scaling" (Json.List json_rows)

(* ---------------------- parallel scaling ------------------------- *)

(* Times the Figure-2 quick sweep at 1, 2 and 4 jobs, checks the three
   renders are byte-identical (the engine's determinism contract), and
   reports the measured speedup.  On a single-core container the speedup
   is expected to be ~1x; the check still exercises the pool. *)
let parallel_scaling () =
  section "E11. Parallel scaling (domain pool, Figure-2 quick sweep)";
  let params =
    {
      (Dcn_experiments.Fig2.quick_params ~alpha:2.) with
      Dcn_experiments.Fig2.flow_counts = [ 20; 40 ];
      seeds = List.init (min seeds 2) (fun i -> 1000 + i);
    }
  in
  let time_at jobs =
    Dcn_engine.Pool.with_pool ~jobs (fun pool ->
        let t0 = Unix.gettimeofday () in
        let res = Dcn_experiments.Fig2.run ~pool params in
        let dt = Unix.gettimeofday () -. t0 in
        (dt, Dcn_experiments.Fig2.render res))
  in
  let runs = List.map (fun jobs -> (jobs, time_at jobs)) [ 1; 2; 4 ] in
  let _, (t1, render1) = List.hd runs in
  let rows =
    List.map
      (fun (jobs, (dt, render)) ->
        [
          string_of_int jobs;
          Printf.sprintf "%.2f" dt;
          Printf.sprintf "%.2fx" (t1 /. dt);
          (if String.equal render render1 then "identical" else "DIFFERS");
        ])
      runs
  in
  print_endline
    (Dcn_util.Table.render
       ~headers:[ "jobs"; "wall (s)"; "speedup"; "output vs jobs=1" ]
       ~rows ());
  Printf.printf "(host has %d core(s) available)\n"
    (Domain.recommended_domain_count ())

(* ------------------------- serving sessions ----------------------- *)

(* A deterministic synthetic event stream through Dcn_serve.Session:
   arrivals/cancels/advances on line:5 under a finite cap.  Shared by
   E13 (incremental re-solve) and E15 (telemetry overhead). *)
let synthetic_session () =
  Dcn_serve.Session.create ~pool ~graph:(Dcn_topology.Builders.line 5)
    ~power:(Dcn_power.Model.make ~sigma:1. ~mu:1. ~alpha:2. ~cap:6. ())
    ~policy:Dcn_resilience.Repair.Drop_latest_deadline ~seed:7 ()

let synthetic_events n =
  let rng = Dcn_util.Prng.create 42 in
  let now = ref 0. and next_id = ref 1 and live = ref [] in
  List.init n (fun _ ->
      match Dcn_util.Prng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 | 5 ->
        let src = Dcn_util.Prng.int rng 5 in
        let dst = (src + 1 + Dcn_util.Prng.int rng 4) mod 5 in
        let release = !now +. Dcn_util.Prng.float rng 0.5 in
        let deadline = release +. 1.5 +. Dcn_util.Prng.float rng 4.5 in
        let f =
          Dcn_flow.Flow.make ~id:!next_id ~src ~dst
            ~volume:(0.5 +. Dcn_util.Prng.float rng 5.5)
            ~release ~deadline
        in
        incr next_id;
        live := f.Dcn_flow.Flow.id :: !live;
        Dcn_serve.Event.Flow_arrival f
      | 6 | 7 when !live <> [] ->
        let i = Dcn_util.Prng.int rng (List.length !live) in
        let id = List.nth !live i in
        live := List.filter (fun j -> j <> id) !live;
        Dcn_serve.Event.Flow_cancel { flow = id }
      | _ ->
        now := !now +. 0.3 +. Dcn_util.Prng.float rng 1.2;
        Dcn_serve.Event.Advance_clock { clock = !now })

(* The column to watch is re-solved vs total intervals — the
   incremental re-solve only rebuilds the timeline intervals each
   event's flow span overlaps, so "resolved" must stay strictly below
   "total" (the from-scratch cost), and every committed epoch must
   certify. *)
let serving () =
  section "E13. Serving: incremental re-solve per live event (Dcn_serve)";
  let n_events = if quick then 30 else 80 in
  let session = synthetic_session () in
  let events = synthetic_events n_events in
  let committed = ref 0 and degraded = ref 0 and rejected = ref 0 in
  let resolved = ref 0 and reused = ref 0 and uncertified = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun e ->
      let absorb (d : Dcn_serve.Session.detail) =
        resolved := !resolved + d.Dcn_serve.Session.resolved_intervals;
        reused := !reused + d.Dcn_serve.Session.reused_intervals;
        if d.Dcn_serve.Session.violations <> [] then incr uncertified
      in
      match Dcn_serve.Session.apply session e with
      | Dcn_serve.Session.Committed d -> incr committed; absorb d
      | Dcn_serve.Session.Degraded d -> incr degraded; absorb d
      | Dcn_serve.Session.Rejected _ -> incr rejected)
    events;
  let dt = Unix.gettimeofday () -. t0 in
  let total = !resolved + !reused in
  print_endline
    (Dcn_util.Table.render
       ~headers:[ "events"; "resolved"; "reused"; "total"; "incremental"; "ms/event" ]
       ~rows:
         [
           [
             string_of_int n_events;
             string_of_int !resolved;
             string_of_int !reused;
             string_of_int total;
             (if !resolved < total then "yes (resolved < total)" else "NO");
             Printf.sprintf "%.2f" (1000. *. dt /. float_of_int n_events);
           ];
         ]
       ());
  Printf.printf "epochs: %d committed, %d degraded, %d rejected, %d uncertified\n"
    !committed !degraded !rejected !uncertified;
  report "serve"
    (Json.Obj
       [
         ("events", Json.Int n_events);
         ("resolved_intervals", Json.Int !resolved);
         ("reused_intervals", Json.Int !reused);
         ("total_intervals", Json.Int total);
         ("incremental", Json.Bool (!resolved < total));
         ("uncertified_epochs", Json.Int !uncertified);
       ])

(* What the telemetry layer costs the serving path: the same synthetic
   stream applied twice, registry disabled (every Dcn_obs op is one
   branch after the enabled check) and enabled (counters, a latency
   histogram and a gauge refresh per event).  Must run before anything
   else enables the registry, and leaves it enabled — the per-section
   stage metrics above need it on.  Wall times stay under "seconds"
   keys so the report section is baseline-safe (the gate skips them). *)
let telemetry_overhead () =
  section "E15. Telemetry overhead on the serving path (Dcn_obs)";
  let n = if quick then 30 else 80 in
  let events = synthetic_events n in
  let time_run () =
    let session = synthetic_session () in
    let t0 = Unix.gettimeofday () in
    List.iter (fun e -> ignore (Dcn_serve.Session.apply session e)) events;
    Unix.gettimeofday () -. t0
  in
  (* Best of three per leg: one pass is ~10 ms here, well inside
     scheduler-jitter territory. *)
  let best () = Float.min (time_run ()) (Float.min (time_run ()) (time_run ())) in
  let off = best () in
  Dcn_obs.Registry.enable ();
  let on = best () in
  let row label dt =
    [
      label;
      string_of_int n;
      Printf.sprintf "%.2f" (1000. *. dt /. float_of_int n);
      Printf.sprintf "%.1f" (float_of_int n /. dt);
    ]
  in
  print_endline
    (Dcn_util.Table.render
       ~headers:[ "telemetry"; "events"; "ms/event"; "events/s" ]
       ~rows:[ row "off" off; row "on" on ]
       ());
  Printf.printf "overhead: %+.1f%% wall clock (expect noise level)\n"
    (if off > 0. then 100. *. (on -. off) /. off else 0.);
  report "telemetry_overhead"
    (Json.Obj
       [
         ("events", Json.Int n);
         ("off", Json.Obj [ ("seconds", Json.float off) ]);
         ("on", Json.Obj [ ("seconds", Json.float on) ]);
       ])

(* ----------------------------- E16 -------------------------------- *)

(* Coflow admission: a seeded shuffle/incast coflow trace walked in
   sigma order all-or-nothing by both variants, at a loose and a tight
   link capacity — the completion-rate / energy Pareto points the
   coflow layer exists to trace.  Every admitted set is re-verified by
   the conjunction certificate; an uncertified set fails the run.  Wall
   times stay under "seconds" keys (the gate skips them). *)
let coflow_admission () =
  section "E16. Coflow admission: sigma-order all-or-nothing (Dcn_coflow)";
  let graph = Dcn_topology.Builders.fat_tree 4 in
  let jobs = if quick then 6 else 16 in
  let cs =
    Dcn_coflow.Coflow.shuffle_trace
      ~rng:(Dcn_util.Prng.create 42)
      ~graph ~jobs ~horizon:(0., 10.) ()
  in
  let caps = [ ("loose", infinity); ("tight", 16.) ] in
  let rows, cells =
    List.split
      (List.concat_map
         (fun (regime, cap) ->
           let power = Dcn_power.Model.make ~sigma:1. ~mu:1. ~alpha:2. ~cap () in
           List.map
             (fun variant ->
               let t0 = Unix.gettimeofday () in
               let adm =
                 Dcn_coflow.Admission.run ~seed:42 ~pool ~variant ~graph ~power
                   cs
               in
               let dt = Unix.gettimeofday () -. t0 in
               let cert =
                 Dcn_coflow.Certificate.admission_result ~coflows:cs ~graph
                   ~power adm
               in
               if not cert.Dcn_coflow.Certificate.ok then
                 failwith
                   (Printf.sprintf "E16: %s/%s failed its conjunction certificate"
                      regime adm.Dcn_coflow.Admission.variant);
               ( [
                   regime;
                   adm.Dcn_coflow.Admission.variant;
                   Printf.sprintf "%d/%d"
                     (List.length adm.Dcn_coflow.Admission.admitted)
                     jobs;
                   Printf.sprintf "%.0f%%"
                     (100. *. adm.Dcn_coflow.Admission.completion_rate);
                   Printf.sprintf "%.1f" adm.Dcn_coflow.Admission.energy;
                 ],
                 Json.Obj
                   [
                     ("regime", Json.Str regime);
                     ("variant", Json.Str adm.Dcn_coflow.Admission.variant);
                     ( "completion_rate",
                       Json.float adm.Dcn_coflow.Admission.completion_rate );
                     ("energy", Json.float adm.Dcn_coflow.Admission.energy);
                     ( "admitted",
                       Json.Int (List.length adm.Dcn_coflow.Admission.admitted)
                     );
                     ("seconds", Json.float dt);
                   ] ))
             [ Dcn_coflow.Admission.Baseline; Dcn_coflow.Admission.Energy_aware ])
         caps)
  in
  print_endline
    (Dcn_util.Table.render
       ~headers:[ "capacity"; "variant"; "admitted"; "completion"; "energy" ]
       ~rows ());
  report "coflow_admission"
    (Json.Obj [ ("coflows", Json.Int jobs); ("points", Json.List cells) ])

let () =
  (* DCN_SELFCHECK=1: every solver run below certifies its own output. *)
  Dcn_check.Certify.selfcheck_from_env ();
  Printf.printf
    "dcnsched benchmark harness — reproduction of Wang et al., ICDCS 2014\n";
  Printf.printf "mode: %s, %d seed(s) per Figure-2 point, %d job(s)\n"
    (if quick then "quick (fat-tree k=4)" else "paper scale (fat-tree k=8)")
    seeds
    (Dcn_engine.Pool.jobs pool);
  telemetry_overhead ();
  example1 ();
  gadgets ();
  small_exact ();
  bounds_check ();
  theorem4 ();
  packetization ();
  ablations ();
  trace_eval ();
  fig2 2.;
  fig2 4.;
  parallel_scaling ();
  serving ();
  runtime_benchmarks ();
  kernel_scaling ();
  coflow_admission ();
  section "Engine wall-time counters (Dcn_obs.Stage)";
  print_endline (Dcn_obs.Stage.render ());
  Dcn_engine.Pool.shutdown pool;
  flush_observability ();
  Printf.printf "\nDone.\n"
