module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Schedule = Dcn_sched.Schedule
module Decompose = Dcn_mcf.Decompose
module Prng = Dcn_util.Prng
module Pool = Dcn_engine.Pool
module Trace = Dcn_engine.Trace
module Json = Dcn_engine.Json

type config = {
  attempts : int;
  fw_config : Dcn_mcf.Frank_wolfe.config;
}

let default_config = { attempts = 20; fw_config = Dcn_mcf.Frank_wolfe.default_config }
let redraw_budget = 10

(* Candidate paths of one flow across all intervals, with the paper's
   combined weights w̄_P (keyed by the link list to merge duplicates). *)
let candidate_paths relax (f : Flow.t) =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun (isol : Relaxation.interval_solution) ->
      let lo, hi = isol.bounds in
      let frac = (hi -. lo) /. Flow.span_length f in
      match List.assoc_opt f.id isol.flow_paths with
      | None -> ()
      | Some paths ->
        List.iter
          (fun (wp : Decompose.weighted_path) ->
            let prev = try Hashtbl.find tbl wp.links with Not_found -> 0. in
            Hashtbl.replace tbl wp.links (prev +. (wp.weight *. frac)))
          paths)
    relax.Relaxation.intervals;
  let all = Hashtbl.fold (fun links w acc -> (links, w) :: acc) tbl [] in
  (* Deterministic order for reproducible sampling. *)
  List.sort compare all

(* One fully evaluated rounding attempt. *)
type attempt = {
  a_index : int;
  a_routed : (Flow.t * Graph.link list) list;
  a_schedule : Schedule.t;
  a_energy : float;
  a_feasible : bool;
  a_overload : float;
}

let name = "random-schedule"

let solve ?(config = default_config) ?relaxation ?(pool = Pool.sequential) ~rng
    inst =
  if config.attempts < 1 then
    invalid_arg
      (Printf.sprintf "Random_schedule.solve: attempts must be >= 1 (got %d)"
         config.attempts);
  let relax =
    match relaxation with
    | Some r -> r
    | None ->
      fst
        (Relaxation.resolve ~pool ~fw_config:config.fw_config
           ~window:(Instance.horizon inst) inst)
  in
  Dcn_obs.Stage.time "core.rounding" @@ fun () ->
  Trace.span "rs.solve"
    ~fields:
      [
        ("attempts", Json.Int config.attempts);
        ("flows", Json.Int (Instance.num_flows inst));
      ]
  @@ fun () ->
  let flows = inst.Instance.flows in
  let candidates =
    List.map (fun (f : Flow.t) -> (f, candidate_paths relax f)) flows
  in
  List.iter
    (fun ((f : Flow.t), cands) ->
      if cands = [] then
        invalid_arg
          (Printf.sprintf "Random_schedule.solve: no candidate path for flow %d"
             f.id))
    candidates;
  (* One independent PRNG stream per attempt, split off the caller's
     generator up front: attempt k makes the same draw whether it is
     evaluated sequentially or on any pool, so the solution is
     bit-identical for every jobs value. *)
  let rngs = Pool.split_rngs rng config.attempts in
  let evaluate k =
    let rng = rngs.(k) in
    let routed =
      List.map
        (fun (f, cands) ->
          let weights = Array.of_list (List.map snd cands) in
          let idx = Prng.pick_weighted rng ~weights in
          (f, fst (List.nth cands idx)))
        candidates
    in
    let schedule =
      Schedule.of_densities ~graph:inst.Instance.graph ~power:inst.Instance.power
        ~horizon:(Instance.horizon inst) routed
    in
    let { Schedule.overload; within_cap = feasible } =
      Schedule.capacity_verdict schedule
    in
    let energy = Schedule.energy schedule in
    (* Per-attempt outcome, emitted on whichever domain evaluated the
       draw (the trace is where the parallel schedule is visible; the
       returned solution stays jobs-invariant). *)
    if Trace.on () then begin
      Trace.event "rs.attempt"
        ~fields:
          [
            ("index", Json.Int k);
            ("feasible", Json.Bool feasible);
            ("overload", Json.float overload);
            ("energy", Json.float energy);
          ];
      Trace.counter "rs.attempts" 1.;
      if feasible then Trace.counter "rs.feasible_attempts" 1.
    end;
    {
      a_index = k;
      a_routed = routed;
      a_schedule = schedule;
      a_energy = energy;
      a_feasible = feasible;
      a_overload = overload;
    }
  in
  (* The paper's semantics: take the first feasible draw; if the budget
     runs out, the least-overloaded one.  Attempts are evaluated in
     index-ordered batches of the pool width, and the selection scans
     each batch in index order, so the chosen draw — and therefore the
     whole solution — does not depend on the batch size. *)
  let batch = max 1 (Pool.jobs pool) in
  let first_feasible = ref None in
  let best_infeasible = ref None in
  let k = ref 0 in
  while !first_feasible = None && !k < config.attempts do
    (* Watchdog poll between attempt batches (the draws themselves are
       cheap; the budget-heavy relaxation polls inside Frank–Wolfe). *)
    Dcn_engine.Deadline.check ();
    let hi = min config.attempts (!k + batch) in
    let evals = Pool.map pool evaluate (Array.init (hi - !k) (fun i -> !k + i)) in
    Array.iter
      (fun a ->
        if a.a_feasible then begin
          if !first_feasible = None then first_feasible := Some a
        end
        else
          match !best_infeasible with
          | Some b when b.a_overload <= a.a_overload -> ()
          | _ -> best_infeasible := Some a)
      evals;
    k := hi
  done;
  let chosen_attempt, attempts_used =
    match (!first_feasible, !best_infeasible) with
    | Some a, _ -> (a, a.a_index + 1)
    | None, Some b -> (b, config.attempts)
    | None, None -> assert false (* attempts >= 1 *)
  in
  if Trace.on () then
    Trace.event "rs.selected"
      ~fields:
        [
          ("index", Json.Int chosen_attempt.a_index);
          ("attempts_used", Json.Int attempts_used);
          ("feasible", Json.Bool chosen_attempt.a_feasible);
          ("energy", Json.float chosen_attempt.a_energy);
        ];
  let sol =
    {
      Solution.algorithm = name;
      energy = chosen_attempt.a_energy;
      feasible = chosen_attempt.a_feasible;
      schedule = chosen_attempt.a_schedule;
      per_flow_rates = List.map (fun (f : Flow.t) -> (f.id, Flow.density f)) flows;
      meta =
        Solution.Rounding
          {
            Solution.paths =
              List.map
                (fun ((f : Flow.t), path) -> (f.id, path))
                chosen_attempt.a_routed;
            attempts_used;
            candidates =
              List.map
                (fun ((f : Flow.t), cands) -> (f.id, List.length cands))
                candidates;
            relaxation = relax;
          };
    }
  in
  Selfcheck.solution inst sol;
  sol

let refine inst (t : Solution.t) =
  match t.Solution.meta with
  | Solution.Rounding { paths; _ } ->
    let routing id = List.assoc id paths in
    Most_critical_first.solve_routed ~algorithm:"rs+refine" inst ~routing
  | Solution.Mcf _ | Solution.Routed _ ->
    invalid_arg "Random_schedule.refine: expected a Random-Schedule solution"
