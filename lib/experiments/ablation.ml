module Model = Dcn_power.Model
module Workload = Dcn_flow.Workload
module Prng = Dcn_util.Prng
module Table = Dcn_util.Table
module Schedule = Dcn_sched.Schedule
module Solution = Dcn_core.Solution
module Pool = Dcn_engine.Pool
module Trace = Dcn_engine.Trace
module Json = Dcn_engine.Json

let fw_config = Fig2.experiment_fw_config

let default_pool pool = Option.value pool ~default:Pool.sequential

(* Every study is one experiment stage in the trace. *)
let study name f = Trace.span ("experiment.ablation." ^ name) f

(* Fan [n * seeds] sample grids across the pool and regroup by [n]:
   each cell derives its PRNG from its own seed, so results are
   bit-identical for every pool size. *)
let by_n pool ~ns ~seeds sample finish =
  let cells =
    Array.of_list (List.concat_map (fun n -> List.map (fun s -> (n, s)) seeds) ns)
  in
  let samples = Pool.map pool (fun (n, seed) -> (n, sample ~n ~seed)) cells in
  List.map
    (fun n ->
      finish n
        (Array.to_list samples
        |> List.filter_map (fun (n', s) -> if n' = n then Some s else None)))
    ns

let make_instance ~seed ~n ~alpha ~sigma ~cap =
  let graph = Dcn_topology.Builders.fat_tree 4 in
  let power = Model.make ~sigma ~mu:1. ~alpha ~cap () in
  let rng = Prng.create seed in
  let flows = Workload.paper_random ~rng ~graph ~n () in
  (Dcn_core.Instance.make ~graph ~power ~flows, rng)

type power_down_row = {
  sigma : float;
  rs_energy : float;
  rs_idle : float;
  rs_active_links : int;
  sp_energy : float;
  sp_idle : float;
  sp_active_links : int;
}

let power_down ?(seed = 7) ?(n = 40) ?(alpha = 2.) ?pool ~sigmas () =
  study "power_down" @@ fun () ->
  Pool.map_list (default_pool pool)
    (fun sigma ->
      let inst, rng = make_instance ~seed ~n ~alpha ~sigma ~cap:infinity in
      let rs =
        Dcn_core.Random_schedule.solve
          ~config:{ Dcn_core.Random_schedule.attempts = 20; fw_config }
          ~rng inst
      in
      let sp = Dcn_core.Baselines.sp_mcf inst in
      let rs_sched = rs.Solution.schedule in
      let sp_sched = sp.Solution.schedule in
      {
        sigma;
        rs_energy = rs.Solution.energy;
        rs_idle = Schedule.idle_energy rs_sched;
        rs_active_links = List.length (Schedule.active_links rs_sched);
        sp_energy = sp.Solution.energy;
        sp_idle = Schedule.idle_energy sp_sched;
        sp_active_links = List.length (Schedule.active_links sp_sched);
      })
    sigmas

let render_power_down rows =
  let headers =
    [ "sigma"; "RS energy"; "RS idle"; "RS links"; "SP energy"; "SP idle"; "SP links" ]
  in
  let row (r : power_down_row) =
    [
      Table.cell_f ~decimals:1 r.sigma;
      Table.cell_f ~decimals:1 r.rs_energy;
      Table.cell_f ~decimals:1 r.rs_idle;
      string_of_int r.rs_active_links;
      Table.cell_f ~decimals:1 r.sp_energy;
      Table.cell_f ~decimals:1 r.sp_idle;
      string_of_int r.sp_active_links;
    ]
  in
  "Power-down ablation (fat-tree k=4, Eq. 1 with sigma > 0)\n"
  ^ Table.render ~headers ~rows:(List.map row rows) ()

type capacity_row = {
  cap : float;
  feasible : bool;
  attempts_used : int;
  max_rate : float;
}

let capacity_stress ?(seed = 11) ?(n = 40) ?(alpha = 2.) ?pool ~caps () =
  study "capacity_stress" @@ fun () ->
  Pool.map_list (default_pool pool)
    (fun cap ->
      let inst, rng = make_instance ~seed ~n ~alpha ~sigma:0. ~cap in
      let rs =
        Dcn_core.Random_schedule.solve
          ~config:{ Dcn_core.Random_schedule.attempts = 50; fw_config }
          ~rng inst
      in
      {
        cap;
        feasible = rs.Solution.feasible;
        attempts_used = Solution.attempts_used rs;
        max_rate = Schedule.max_link_rate rs.Solution.schedule;
      })
    caps

let render_capacity rows =
  let headers = [ "capacity"; "feasible"; "attempts"; "max link rate" ] in
  let row (r : capacity_row) =
    [
      Table.cell_f ~decimals:1 r.cap;
      (if r.feasible then "yes" else "NO");
      string_of_int r.attempts_used;
      Table.cell_f r.max_rate;
    ]
  in
  "Capacity-stress ablation (randomised-rounding redraw loop)\n"
  ^ Table.render ~headers ~rows:(List.map row rows) ()

type refinement_row = {
  n : int;
  rs_over_lb : float;
  refined_over_lb : float;
  gain_percent : float;
}

let refinement ?(seeds = [ 21; 22; 23 ]) ?(alpha = 2.) ?pool ~ns () =
  study "refinement" @@ fun () ->
  by_n (default_pool pool) ~ns ~seeds
    (fun ~n ~seed ->
      let inst, rng = make_instance ~seed ~n ~alpha ~sigma:0. ~cap:infinity in
      let rs =
        Dcn_core.Random_schedule.solve
          ~config:{ Dcn_core.Random_schedule.attempts = 20; fw_config }
          ~rng inst
      in
      let refined = Dcn_core.Random_schedule.refine inst rs in
      let lb =
        (Dcn_core.Lower_bound.of_relaxation (Option.get (Solution.relaxation rs)))
          .Dcn_core.Lower_bound.value
      in
      (rs.Solution.energy /. lb, refined.Solution.energy /. lb))
    (fun n samples ->
      let mean xs = Dcn_util.Stats.mean (Array.of_list xs) in
      let rs_over_lb = mean (List.map fst samples) in
      let refined_over_lb = mean (List.map snd samples) in
      {
        n;
        rs_over_lb;
        refined_over_lb;
        gain_percent = 100. *. (1. -. (refined_over_lb /. rs_over_lb));
      })

type failure_row = {
  failed_cables : int;
  rs_over_lb : float;
  sp_over_lb : float;
  lb : float;
}

let failures ?(seed = 91) ?(n = 20) ?(alpha = 2.) ?pool ~counts () =
  study "failures" @@ fun () ->
  let base = Dcn_topology.Builders.fat_tree 4 in
  let power = Model.make ~sigma:0. ~mu:1. ~alpha () in
  (* Only switch-to-switch cables may fail (a failed host uplink just
     disconnects the host, which is not the interesting case). *)
  let module G = Dcn_topology.Graph in
  let candidate_cables =
    List.filter
      (fun c ->
        let l = 2 * c in
        (not (G.is_host base (G.link_src base l))) && not (G.is_host base (G.link_dst base l)))
      (List.init (G.num_cables base) Fun.id)
  in
  Pool.map_list (default_pool pool)
    (fun count ->
      let rng = Prng.create (seed + count) in
      let rec degrade attempts =
        if attempts = 0 then base
        else begin
          let pool = Array.of_list candidate_cables in
          Prng.shuffle rng pool;
          let victims = Array.to_list (Array.sub pool 0 (min count (Array.length pool))) in
          let g = G.remove_cables base ~cables:(List.map (fun c -> 2 * c) victims) in
          if G.connected g then g else degrade (attempts - 1)
        end
      in
      let graph = degrade 50 in
      let wrng = Prng.create seed in
      let flows = Workload.paper_random ~rng:wrng ~graph ~n () in
      let inst = Dcn_core.Instance.make ~graph ~power ~flows in
      let rng' = Prng.create (seed + 1000 + count) in
      let rs =
        Dcn_core.Random_schedule.solve
          ~config:{ Dcn_core.Random_schedule.attempts = 20; fw_config }
          ~rng:rng' inst
      in
      let lb =
        (Dcn_core.Lower_bound.of_relaxation (Option.get (Solution.relaxation rs)))
          .Dcn_core.Lower_bound.value
      in
      let sp = Dcn_core.Baselines.sp_mcf inst in
      {
        failed_cables = count;
        rs_over_lb = rs.Solution.energy /. lb;
        sp_over_lb = sp.Solution.energy /. lb;
        lb;
      })
    counts

let render_failures rows =
  let headers = [ "failed cables"; "LB"; "RS/LB"; "SP+MCF/LB" ] in
  let row (r : failure_row) =
    [
      string_of_int r.failed_cables;
      Table.cell_f ~decimals:1 r.lb;
      Table.cell_f r.rs_over_lb;
      Table.cell_f r.sp_over_lb;
    ]
  in
  "Failure-resilience ablation (random switch-to-switch cable failures)\n"
  ^ Table.render ~headers ~rows:(List.map row rows) ()

type admission_row = {
  load : float;
  offered : int;
  acceptance : float;
  energy : float;
}

let admission ?(seed = 81) ?(alpha = 2.) ?(cap = 6.) ?pool ~loads () =
  study "admission" @@ fun () ->
  let graph = Dcn_topology.Builders.fat_tree 4 in
  let power = Model.make ~sigma:0. ~mu:1. ~alpha ~cap () in
  Pool.map_list (default_pool pool)
    (fun load ->
      let rng = Prng.create seed in
      let flows = Workload.trace ~load ~rng ~graph ~horizon:(0., 60.) () in
      let inst = Dcn_core.Instance.make ~graph ~power ~flows in
      let online = Dcn_core.Online.solve inst in
      {
        load;
        offered = List.length flows;
        acceptance = Dcn_core.Solution.acceptance_rate online;
        energy = online.Dcn_core.Solution.energy;
      })
    loads

let render_admission rows =
  let headers = [ "load"; "offered"; "acceptance"; "energy" ] in
  let row (r : admission_row) =
    [
      Table.cell_f ~decimals:1 r.load;
      string_of_int r.offered;
      Table.cell_f r.acceptance;
      Table.cell_f ~decimals:1 r.energy;
    ]
  in
  "Online admission control (finite capacity, better-never-than-late)\n"
  ^ Table.render ~headers ~rows:(List.map row rows) ()

type rate_row = {
  levels : int;
  hold_overhead : float;
  work_overhead : float;
}

let rate_levels ?(seed = 61) ?(n = 20) ?(alpha = 2.) ?pool ~counts () =
  study "rate_levels" @@ fun () ->
  let inst, rng = make_instance ~seed ~n ~alpha ~sigma:0. ~cap:infinity in
  let rs =
    Dcn_core.Random_schedule.solve
      ~config:{ Dcn_core.Random_schedule.attempts = 20; fw_config }
      ?pool ~rng inst
  in
  let sched = rs.Solution.schedule in
  let top = 2. *. Schedule.max_link_rate sched in
  List.map
    (fun count ->
      let ladder =
        Dcn_power.Discrete.geometric inst.Dcn_core.Instance.power ~count ~top
      in
      let q = Dcn_sched.Quantize.report ladder sched in
      {
        levels = count;
        hold_overhead = q.Dcn_sched.Quantize.hold_overhead;
        work_overhead = q.Dcn_sched.Quantize.work_overhead;
      })
    counts

let render_rate_levels rows =
  let headers = [ "levels"; "hold overhead"; "work overhead" ] in
  let row (r : rate_row) =
    [
      string_of_int r.levels;
      Table.cell_f r.hold_overhead;
      Table.cell_f r.work_overhead;
    ]
  in
  "Discrete-rate ablation (geometric speed ladders vs continuous scaling)\n"
  ^ Table.render ~headers ~rows:(List.map row rows) ()

type split_row = {
  parts : int;
  rs_over_lb : float;
  distinct_paths : int;
}

let splitting ?(seed = 51) ?(n = 20) ?(alpha = 2.) ?pool ~parts () =
  study "splitting" @@ fun () ->
  let inst0, _ = make_instance ~seed ~n ~alpha ~sigma:0. ~cap:infinity in
  (* The LB is invariant under splitting (identical per-interval
     demands), so the original instance's bound normalises all rows. *)
  let lb =
    (Dcn_core.Lower_bound.compute ~fw_config inst0).Dcn_core.Lower_bound.value
  in
  Pool.map_list (default_pool pool)
    (fun p ->
      let flows = Dcn_flow.Split.workload inst0.Dcn_core.Instance.flows ~parts:p in
      let inst =
        Dcn_core.Instance.make ~graph:inst0.Dcn_core.Instance.graph
          ~power:inst0.Dcn_core.Instance.power ~flows
      in
      let rng = Prng.create (seed + p) in
      let rs =
        Dcn_core.Random_schedule.solve
          ~config:{ Dcn_core.Random_schedule.attempts = 20; fw_config }
          ~rng inst
      in
      let distinct =
        List.length
          (List.sort_uniq compare
             (List.map
                (fun (id, path) ->
                  let f = Option.get (Dcn_core.Instance.find_flow_opt inst id) in
                  (f.Dcn_flow.Flow.src, f.Dcn_flow.Flow.dst, path))
                (Solution.paths rs)))
      in
      {
        parts = p;
        rs_over_lb = rs.Solution.energy /. lb;
        distinct_paths = distinct;
      })
    parts

let render_splitting rows =
  let headers = [ "parts"; "RS/LB"; "distinct routes" ] in
  let row (r : split_row) =
    [ string_of_int r.parts; Table.cell_f r.rs_over_lb; string_of_int r.distinct_paths ]
  in
  "Flow-splitting ablation (Section II-B multi-path emulation)\n"
  ^ Table.render ~headers ~rows:(List.map row rows) ()

type lb_row = {
  n : int;
  paper_lb : float;
  joint_lb : float;
  overstatement : float;
  rs_over_joint : float;
}

let lb_tightness ?(seeds = [ 41; 42; 43 ]) ?(alpha = 2.) ?pool ~ns () =
  study "lb_tightness" @@ fun () ->
  by_n (default_pool pool) ~ns ~seeds
    (fun ~n ~seed ->
      let inst, rng = make_instance ~seed ~n ~alpha ~sigma:0. ~cap:infinity in
      let rs =
        Dcn_core.Random_schedule.solve
          ~config:{ Dcn_core.Random_schedule.attempts = 20; fw_config }
          ~rng inst
      in
      let paper =
        (Dcn_core.Lower_bound.of_relaxation (Option.get (Solution.relaxation rs)))
          .Dcn_core.Lower_bound.value
      in
      let joint = (Dcn_core.Joint_relaxation.solve inst).Dcn_core.Joint_relaxation.lb in
      (paper, joint, rs.Solution.energy))
    (fun n samples ->
      let mean f = Dcn_util.Stats.mean (Array.of_list (List.map f samples)) in
      let paper_lb = mean (fun (p, _, _) -> p) in
      let joint_lb = mean (fun (_, j, _) -> j) in
      {
        n;
        paper_lb;
        joint_lb;
        overstatement = paper_lb /. joint_lb;
        rs_over_joint = mean (fun (_, j, e) -> e /. j);
      })

let render_lb rows =
  let headers = [ "flows"; "paper LB"; "joint LB"; "paper/joint"; "RS/joint LB" ] in
  let row (r : lb_row) =
    [
      string_of_int r.n;
      Table.cell_f ~decimals:1 r.paper_lb;
      Table.cell_f ~decimals:1 r.joint_lb;
      Table.cell_f r.overstatement;
      Table.cell_f r.rs_over_joint;
    ]
  in
  "Lower-bound tightness (per-interval densities vs volume-coupled relaxation)\n"
  ^ Table.render ~headers ~rows:(List.map row rows) ()

type routing_row = {
  n : int;
  sp_over_lb : float;
  ecmp_over_lb : float;
  ear_over_lb : float;
  rs_routing_over_lb : float;
}

let routing_comparison ?(seeds = [ 31; 32; 33 ]) ?(alpha = 2.) ?pool ~ns () =
  study "routing_comparison" @@ fun () ->
  by_n (default_pool pool) ~ns ~seeds
    (fun ~n ~seed ->
      let inst, rng = make_instance ~seed ~n ~alpha ~sigma:0. ~cap:infinity in
      let rs =
        Dcn_core.Random_schedule.solve
          ~config:{ Dcn_core.Random_schedule.attempts = 20; fw_config }
          ~rng inst
      in
      let lb =
        (Dcn_core.Lower_bound.of_relaxation (Option.get (Solution.relaxation rs)))
          .Dcn_core.Lower_bound.value
      in
      let sp = Dcn_core.Baselines.sp_mcf inst in
      let ecmp = Dcn_core.Baselines.ecmp_mcf ~rng inst in
      let ear = Dcn_core.Greedy_ear.solve inst in
      ( sp.Solution.energy /. lb,
        ecmp.Solution.energy /. lb,
        ear.Dcn_core.Solution.energy /. lb,
        rs.Solution.energy /. lb ))
    (fun n samples ->
      let mean f = Dcn_util.Stats.mean (Array.of_list (List.map f samples)) in
      {
        n;
        sp_over_lb = mean (fun (a, _, _, _) -> a);
        ecmp_over_lb = mean (fun (_, b, _, _) -> b);
        ear_over_lb = mean (fun (_, _, c, _) -> c);
        rs_routing_over_lb = mean (fun (_, _, _, d) -> d);
      })

let render_routing rows =
  let headers = [ "flows"; "SP+MCF/LB"; "ECMP+MCF/LB"; "Greedy-EAR/LB"; "RS/LB" ] in
  let row (r : routing_row) =
    [
      string_of_int r.n;
      Table.cell_f r.sp_over_lb;
      Table.cell_f r.ecmp_over_lb;
      Table.cell_f r.ear_over_lb;
      Table.cell_f r.rs_routing_over_lb;
    ]
  in
  "Routing ablation (SP vs ECMP vs greedy energy-aware vs Random-Schedule)\n"
  ^ Table.render ~headers ~rows:(List.map row rows) ()

let render_refinement rows =
  let headers = [ "flows"; "RS/LB"; "RS+refine/LB"; "gain %" ] in
  let row (r : refinement_row) =
    [
      string_of_int r.n;
      Table.cell_f r.rs_over_lb;
      Table.cell_f r.refined_over_lb;
      Table.cell_f ~decimals:1 r.gain_percent;
    ]
  in
  "Refinement ablation (Most-Critical-First on Random-Schedule's routes)\n"
  ^ Table.render ~headers ~rows:(List.map row rows) ()

(* JSON forms of the study rows — the [ablation] sections of [--report]
   files. *)

let rows_to_json row rows = Json.List (List.map row rows)

let power_down_to_json =
  rows_to_json (fun (r : power_down_row) ->
      Json.Obj
        [
          ("sigma", Json.float r.sigma);
          ("rs_energy", Json.float r.rs_energy);
          ("rs_idle", Json.float r.rs_idle);
          ("rs_active_links", Json.Int r.rs_active_links);
          ("sp_energy", Json.float r.sp_energy);
          ("sp_idle", Json.float r.sp_idle);
          ("sp_active_links", Json.Int r.sp_active_links);
        ])

let capacity_to_json =
  rows_to_json (fun (r : capacity_row) ->
      Json.Obj
        [
          ("cap", Json.float r.cap);
          ("feasible", Json.Bool r.feasible);
          ("attempts_used", Json.Int r.attempts_used);
          ("max_rate", Json.float r.max_rate);
        ])

let refinement_to_json =
  rows_to_json (fun (r : refinement_row) ->
      Json.Obj
        [
          ("n", Json.Int r.n);
          ("rs_over_lb", Json.float r.rs_over_lb);
          ("refined_over_lb", Json.float r.refined_over_lb);
          ("gain_percent", Json.float r.gain_percent);
        ])

let failures_to_json =
  rows_to_json (fun (r : failure_row) ->
      Json.Obj
        [
          ("failed_cables", Json.Int r.failed_cables);
          ("rs_over_lb", Json.float r.rs_over_lb);
          ("sp_over_lb", Json.float r.sp_over_lb);
          ("lb", Json.float r.lb);
        ])

let admission_to_json =
  rows_to_json (fun (r : admission_row) ->
      Json.Obj
        [
          ("load", Json.float r.load);
          ("offered", Json.Int r.offered);
          ("acceptance", Json.float r.acceptance);
          ("energy", Json.float r.energy);
        ])

let rate_levels_to_json =
  rows_to_json (fun (r : rate_row) ->
      Json.Obj
        [
          ("levels", Json.Int r.levels);
          ("hold_overhead", Json.float r.hold_overhead);
          ("work_overhead", Json.float r.work_overhead);
        ])

let splitting_to_json =
  rows_to_json (fun (r : split_row) ->
      Json.Obj
        [
          ("parts", Json.Int r.parts);
          ("rs_over_lb", Json.float r.rs_over_lb);
          ("distinct_paths", Json.Int r.distinct_paths);
        ])

let lb_to_json =
  rows_to_json (fun (r : lb_row) ->
      Json.Obj
        [
          ("n", Json.Int r.n);
          ("paper_lb", Json.float r.paper_lb);
          ("joint_lb", Json.float r.joint_lb);
          ("overstatement", Json.float r.overstatement);
          ("rs_over_joint", Json.float r.rs_over_joint);
        ])

let routing_to_json =
  rows_to_json (fun (r : routing_row) ->
      Json.Obj
        [
          ("n", Json.Int r.n);
          ("sp_over_lb", Json.float r.sp_over_lb);
          ("ecmp_over_lb", Json.float r.ecmp_over_lb);
          ("ear_over_lb", Json.float r.ear_over_lb);
          ("rs_routing_over_lb", Json.float r.rs_routing_over_lb);
        ])
