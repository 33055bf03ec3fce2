module Model = Dcn_power.Model
module Workload = Dcn_flow.Workload
module Prng = Dcn_util.Prng
module Stats = Dcn_util.Stats
module Table = Dcn_util.Table
module Trace = Dcn_engine.Trace
module Json = Dcn_engine.Json

type params = {
  alpha : float;
  fat_tree_k : int;
  flow_counts : int list;
  seeds : int list;
}

let experiment_fw_config =
  { Dcn_mcf.Frank_wolfe.default_config with max_iters = 40; gap_tol = 1e-3 }

(* Pure speed scaling, as in the paper's Figure 2, and the
   Random-Schedule redraw budget. *)
let sigma = 0.
let rs_attempts = 20

let default_params ~alpha =
  {
    alpha;
    fat_tree_k = 8;
    flow_counts = [ 40; 80; 120; 160; 200 ];
    seeds = List.init 10 (fun i -> 1000 + i);
  }

let quick_params ~alpha =
  {
    (default_params ~alpha) with
    fat_tree_k = 4;
    flow_counts = [ 20; 40; 60 ];
    seeds = [ 1001; 1002; 1003 ];
  }

type point = {
  n : int;
  lb : float;
  sp_mcf : float;
  rs : float;
  rs_refined : float;
  sp_mcf_sd : float;
  rs_sd : float;
  rs_all_feasible : bool;
  rs_deadlines_met : bool;
}

type result = { params : params; points : point list }

type run_sample = {
  s_lb : float;
  s_sp : float;
  s_rs : float;
  s_refined : float;
  s_feasible : bool;
  s_deadlines : bool;
}

let run_one params ~graph ~n ~seed =
  let power = Model.make ~sigma ~mu:1. ~alpha:params.alpha () in
  let rng = Prng.create seed in
  let flows = Workload.paper_random ~rng ~graph ~n () in
  let inst = Dcn_core.Instance.make ~graph ~power ~flows in
  let rs_config =
    { Dcn_core.Random_schedule.attempts = rs_attempts; fw_config = experiment_fw_config }
  in
  let rs = Dcn_core.Random_schedule.solve ~config:rs_config ~rng inst in
  let relax = Option.get (Dcn_core.Solution.relaxation rs) in
  let lb = Dcn_core.Lower_bound.of_relaxation relax in
  let sp = Dcn_core.Baselines.sp_mcf inst in
  let refined = Dcn_core.Random_schedule.refine inst rs in
  let sim = Dcn_sim.Fluid.run rs.Dcn_core.Solution.schedule in
  {
    s_lb = lb.Dcn_core.Lower_bound.value;
    s_sp = sp.Dcn_core.Solution.energy;
    s_rs = rs.Dcn_core.Solution.energy;
    s_refined = refined.Dcn_core.Solution.energy;
    s_feasible = rs.Dcn_core.Solution.feasible;
    s_deadlines = sim.Dcn_sim.Fluid.all_deadlines_met;
  }

let run ?(progress = fun _ -> ()) ?(pool = Dcn_engine.Pool.sequential) params =
  Dcn_obs.Stage.time "experiments.fig2" @@ fun () ->
  Trace.span "experiment.fig2"
    ~fields:
      [
        ("alpha", Json.float params.alpha);
        ("fat_tree_k", Json.Int params.fat_tree_k);
        ("seeds", Json.Int (List.length params.seeds));
        ("flow_counts", Json.List (List.map (fun n -> Json.Int n) params.flow_counts));
      ]
  @@ fun () ->
  let graph = Dcn_topology.Builders.fat_tree params.fat_tree_k in
  (* Every (flow count, seed) cell is an independent end-to-end solve
     with its own PRNG: fan the whole cross product across the pool and
     regroup by flow count afterwards, preserving order. *)
  let cells =
    Array.of_list
      (List.concat_map
         (fun n -> List.map (fun seed -> (n, seed)) params.seeds)
         params.flow_counts)
  in
  let samples =
    Dcn_engine.Pool.map pool
      (fun (n, seed) ->
        progress (Printf.sprintf "fig2 alpha=%g n=%d seed=%d" params.alpha n seed);
        if Trace.on () then
          Trace.event "fig2.cell"
            ~fields:[ ("n", Json.Int n); ("seed", Json.Int seed) ];
        ((n, seed), run_one params ~graph ~n ~seed))
      cells
  in
  let points =
    List.map
      (fun n ->
        let samples =
          Array.to_list samples
          |> List.filter_map (fun ((n', _), s) -> if n' = n then Some s else None)
        in
        let arr f = Array.of_list (List.map f samples) in
        let norm f = arr (fun s -> f s /. s.s_lb) in
        let sp_norm = norm (fun s -> s.s_sp) in
        let rs_norm = norm (fun s -> s.s_rs) in
        let refined_norm = norm (fun s -> s.s_refined) in
        {
          n;
          lb = Stats.mean (arr (fun s -> s.s_lb));
          sp_mcf = Stats.mean sp_norm;
          rs = Stats.mean rs_norm;
          rs_refined = Stats.mean refined_norm;
          sp_mcf_sd = Stats.stddev sp_norm;
          rs_sd = Stats.stddev rs_norm;
          rs_all_feasible = List.for_all (fun s -> s.s_feasible) samples;
          rs_deadlines_met = List.for_all (fun s -> s.s_deadlines) samples;
        })
      params.flow_counts
  in
  { params; points }

let render result =
  let headers =
    [ "flows"; "LB"; "RS/LB"; "sd"; "SP+MCF/LB"; "sd"; "RS+refine/LB"; "feasible"; "deadlines" ]
  in
  let rows =
    List.map
      (fun p ->
        [
          string_of_int p.n;
          Table.cell_f ~decimals:1 p.lb;
          Table.cell_f p.rs;
          Table.cell_f p.rs_sd;
          Table.cell_f p.sp_mcf;
          Table.cell_f p.sp_mcf_sd;
          Table.cell_f p.rs_refined;
          (if p.rs_all_feasible then "yes" else "NO");
          (if p.rs_deadlines_met then "met" else "MISSED");
        ])
      result.points
  in
  Printf.sprintf
    "Figure 2 (alpha = %g, sigma = %g, fat-tree k = %d, %d seeds)\nEnergies normalised by the fractional lower bound.\n%s"
    result.params.alpha sigma result.params.fat_tree_k
    (List.length result.params.seeds)
    (Table.render ~headers ~rows ())

let to_json result =
  let p = result.params in
  Json.Obj
    [
      ( "params",
        Json.Obj
          [
            ("alpha", Json.float p.alpha);
            ("sigma", Json.float sigma);
            ("fat_tree_k", Json.Int p.fat_tree_k);
            ("flow_counts", Json.List (List.map (fun n -> Json.Int n) p.flow_counts));
            ("seeds", Json.List (List.map (fun s -> Json.Int s) p.seeds));
            ("rs_attempts", Json.Int rs_attempts);
          ] );
      ( "points",
        Json.List
          (List.map
             (fun pt ->
               Json.Obj
                 [
                   ("n", Json.Int pt.n);
                   ("lb", Json.float pt.lb);
                   ("rs_over_lb", Json.float pt.rs);
                   ("rs_sd", Json.float pt.rs_sd);
                   ("sp_mcf_over_lb", Json.float pt.sp_mcf);
                   ("sp_mcf_sd", Json.float pt.sp_mcf_sd);
                   ("rs_refined_over_lb", Json.float pt.rs_refined);
                   ("rs_all_feasible", Json.Bool pt.rs_all_feasible);
                   ("rs_deadlines_met", Json.Bool pt.rs_deadlines_met);
                 ])
             result.points) );
    ]

let to_csv result =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "alpha,sigma,k,seeds,n,lb,rs,rs_sd,sp_mcf,sp_mcf_sd,rs_refined\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%g,%g,%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n"
           result.params.alpha sigma result.params.fat_tree_k
           (List.length result.params.seeds)
           p.n p.lb p.rs p.rs_sd p.sp_mcf p.sp_mcf_sd p.rs_refined))
    result.points;
  Buffer.contents buf
