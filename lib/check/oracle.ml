module Json = Dcn_engine.Json
module Pool = Dcn_engine.Pool
module Trace = Dcn_engine.Trace
module Prng = Dcn_util.Prng
module Graph = Dcn_topology.Graph
module Frank_wolfe = Dcn_mcf.Frank_wolfe
module Instance = Dcn_core.Instance
module Solution = Dcn_core.Solution
module Baselines = Dcn_core.Baselines
module Most_critical_first = Dcn_core.Most_critical_first
module Random_schedule = Dcn_core.Random_schedule
module Greedy_ear = Dcn_core.Greedy_ear
module Online = Dcn_core.Online
module Exact = Dcn_core.Exact
module Relaxation = Dcn_core.Relaxation
module Lower_bound = Dcn_core.Lower_bound
module Selfcheck = Dcn_core.Selfcheck
module Schedule = Dcn_sched.Schedule

type solver_result = {
  solver : string;
  energy : float;
  feasible : bool;
  violations : Certify.violation list;
}

type cross_violation =
  | Exact_beaten of { solver : string; energy : float; exact : float }
  | Lb_violated of { solver : string; energy : float; lower_bound : float }
  | Mcf_not_reproducible of { solver : string; energy : float; resolved : float }
  | Meta_inconsistent of { solver : string; what : string }
  | Kernel_divergence of { what : string; kernel : float; reference : float }
  | Incremental_divergence of { solver : string; step : int; what : string }

type t = {
  label : string;
  lower_bound : float;
  results : solver_result list;
  cross : cross_violation list;
}

let ok t =
  t.cross = [] && List.for_all (fun r -> r.violations = []) t.results

let cross_kind = function
  | Exact_beaten _ -> "cross_exact_beaten"
  | Lb_violated _ -> "cross_lb_violated"
  | Mcf_not_reproducible _ -> "cross_mcf_not_reproducible"
  | Meta_inconsistent _ -> "cross_meta_inconsistent"
  | Kernel_divergence _ -> "cross_kernel_divergence"
  | Incremental_divergence _ -> "cross_incremental_divergence"

let violation_kinds t =
  let per_solver =
    List.concat_map (fun r -> List.map Certify.kind r.violations) t.results
  in
  let cross = List.map cross_kind t.cross in
  List.sort_uniq String.compare (per_solver @ cross)

let pp_cross ppf = function
  | Exact_beaten { solver; energy; exact } ->
    Format.fprintf ppf "%s beats the exhaustive optimum: %g < %g" solver exact
      energy
  | Lb_violated { solver; energy; lower_bound } ->
    Format.fprintf ppf "%s energy %g below the fractional lower bound %g"
      solver energy lower_bound
  | Mcf_not_reproducible { solver; energy; resolved } ->
    Format.fprintf ppf
      "re-running MCF on %s's own routing gives %g, not the reported %g"
      solver resolved energy
  | Meta_inconsistent { solver; what } ->
    Format.fprintf ppf "%s metadata inconsistent: %s" solver what
  | Kernel_divergence { what; kernel; reference } ->
    Format.fprintf ppf
      "flat-kernel Frank-Wolfe diverges from the reference engine on %s: %h <> %h"
      what kernel reference
  | Incremental_divergence { solver; step; what } ->
    Format.fprintf ppf
      "%s: the incremental certificate differs from the full one in its %s after %d change(s)"
      solver what step

(* ----------------------------- helpers ----------------------------- *)

let rtol = 1e-6
let close a b = Float.abs (a -. b) <= rtol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let flow_ids inst =
  Array.to_list (Array.map (fun f -> f.Dcn_flow.Flow.id) (Instance.flow_array inst))

let sorted_ids ids = List.sort_uniq compare ids

(* Metadata consistency clauses, per solver. *)
let meta_checks inst (sol : Solution.t) =
  let add, get =
    let acc = ref [] in
    ( (fun what ->
        acc := Meta_inconsistent { solver = sol.Solution.algorithm; what } :: !acc),
      fun () -> List.rev !acc )
  in
  let ids = flow_ids inst in
  let rate_ids = sorted_ids (List.map fst sol.Solution.per_flow_rates) in
  if rate_ids <> ids then add "per_flow_rates does not cover the flow set";
  (match sol.Solution.meta with
  | Solution.Mcf detail ->
    let group_ids =
      List.sort compare
        (List.concat_map (fun g -> g.Solution.flow_ids) detail.Solution.groups)
    in
    if group_ids <> ids then
      add "critical groups do not partition the flow set"
  | Solution.Rounding detail ->
    let path_ids = sorted_ids (List.map fst detail.Solution.paths) in
    if path_ids <> ids then add "rounding paths do not cover the flow set";
    if detail.Solution.attempts_used < 1
       || detail.Solution.attempts_used > Random_schedule.redraw_budget
    then add "attempts_used outside the redraw budget"
  | Solution.Routed detail ->
    let covered =
      List.sort compare (detail.Solution.accepted @ detail.Solution.rejected)
    in
    if covered <> ids then add "accepted + rejected does not cover the flow set";
    if
      sorted_ids (List.map fst detail.Solution.paths)
      <> List.sort compare detail.Solution.accepted
    then add "routed paths do not match the accepted set");
  get ()

(* Theorem 1: MCF is deterministic given its routing — re-solving on the
   solution's own paths must reproduce its energy. *)
let mcf_reproducibility inst (sol : Solution.t) =
  if not sol.Solution.feasible then []
  else
    let paths = Solution.paths sol in
    match
      Most_critical_first.solve_routed inst ~routing:(fun id -> List.assoc id paths)
    with
    | exception _ ->
      [
        Meta_inconsistent
          {
            solver = sol.Solution.algorithm;
            what = "routing read back from the schedule does not re-solve";
          };
      ]
    | re ->
      if close re.Solution.energy sol.Solution.energy then []
      else
        [
          Mcf_not_reproducible
            {
              solver = sol.Solution.algorithm;
              energy = sol.Solution.energy;
              resolved = re.Solution.energy;
            };
        ]

(* Incremental = full: the solver's plans enter a kept certificate one at
   a time in ascending flow id, then leave alternately from the front
   and the back, and after every change the kept certificate (and its
   energy) must equal [Certify.schedule] (and [Schedule.energy]) on the
   schedule of the plans present, ascending by flow id.  Exclusive and
   partial, so conflicts, capacity and every per-plan clause are in
   play. *)
let incremental_clause inst (sol : Solution.t) =
  let sched = sol.Solution.schedule in
  let config = { Certify.default with partial = true; exclusive = true } in
  let st =
    Certify.state ~config ~links:(Graph.num_links sched.graph) inst.Instance.power
  in
  let plans =
    List.sort
      (fun (a : Schedule.plan) (b : Schedule.plan) -> compare a.flow.id b.flow.id)
      sched.plans
  in
  let id (p : Schedule.plan) = p.flow.Dcn_flow.Flow.id in
  let diverges present =
    let s =
      Schedule.make ~graph:sched.graph ~power:sched.power ~horizon:sched.horizon present
    in
    let energy = Schedule.energy s in
    let kept = Dcn_sched.Link_state.energy (Certify.links st) ~horizon:s.horizon in
    if Int64.bits_of_float kept <> Int64.bits_of_float energy then Some "energy"
    else if
      compare
        (Certify.check ~reported_energy:energy st inst s)
        (Certify.schedule ~config ~reported_energy:energy inst s)
      <> 0
    then Some "violations"
    else None
  in
  let rec grow step present = function
    | [] -> shrink step present true
    | p :: rest ->
      Certify.update st inst ~added:[ p ] ~removed:[];
      let present = present @ [ p ] in
      check step present (fun () -> grow (step + 1) present rest)
  and shrink step present front =
    match if front then present else List.rev present with
    | [] -> []
    | p :: _ ->
      Certify.update st inst ~added:[] ~removed:[ id p ];
      let present = List.filter (fun q -> id q <> id p) present in
      check step present (fun () -> shrink (step + 1) present (not front))
  and check step present continue =
    match diverges present with
    | Some what ->
      [ Incremental_divergence { solver = sol.Solution.algorithm; step; what } ]
    | None -> continue ()
  in
  grow 1 [] plans

(* The exhaustive search is only attempted where the enumeration budget
   is certainly small. *)
let exact_gate inst =
  Instance.num_flows inst <= 4 && Graph.num_cables inst.Instance.graph <= 10

let run ~solver_seed ~label inst =
  Trace.span ~fields:[ ("label", Json.Str label) ] "check.oracle" @@ fun () ->
  (* The oracle certifies everything itself; suppress any installed
     selfcheck hook so a violation is recorded rather than thrown
     mid-solve. *)
  Selfcheck.without @@ fun () ->
  let fw_config = Frank_wolfe.resolve_config in
  let relaxation = Relaxation.solve ~fw_config inst in
  let lb = (Lower_bound.of_relaxation relaxation).Lower_bound.value in
  let rngs = Pool.split_rngs (Prng.create solver_seed) 2 in
  let sp = Baselines.sp_mcf inst in
  let ecmp = Baselines.ecmp_mcf ~rng:rngs.(0) inst in
  let rs =
    Random_schedule.solve
      ~config:{ Random_schedule.attempts = Random_schedule.redraw_budget; fw_config }
      ~relaxation ~rng:rngs.(1) inst
  in
  let refined = Random_schedule.refine inst rs in
  let greedy = Greedy_ear.solve inst in
  let online = Online.solve inst in
  let exact_result =
    if not (exact_gate inst) then None
    else match Exact.search inst with
      | r -> Some r
      | exception Invalid_argument _ -> None
  in
  let of_solution (sol : Solution.t) =
    {
      solver = sol.Solution.algorithm;
      energy = sol.Solution.energy;
      feasible = sol.Solution.feasible;
      violations = Certify.solution inst sol;
    }
  in
  let greedy_result =
    {
      solver = "greedy-ear";
      energy = greedy.Solution.energy;
      feasible = greedy.Solution.feasible;
      violations =
        Certify.schedule ~reported_energy:greedy.Solution.energy inst
          greedy.Solution.schedule;
    }
  in
  let online_rejects = Solution.rejected online <> [] in
  let online_result =
    {
      solver = "online";
      energy = online.Solution.energy;
      feasible = online.Solution.feasible;
      violations =
        Certify.schedule
          ~config:{ Certify.default with partial = true }
          ~reported_energy:online.Solution.energy inst online.Solution.schedule;
    }
  in
  let solutions =
    [ sp; ecmp; rs; refined ]
    @ (match exact_result with
      | Some e -> [ e.Exact.best ]
      | None -> [])
  in
  let results =
    List.map of_solution solutions @ [ greedy_result; online_result ]
  in
  (* Cross-solver invariants. *)
  let cross = ref [] in
  let add c = cross := c :: !cross in
  (* LB dominance, for interval-density schedules only: such a schedule
     is a feasible point of every per-interval fractional program, so
     its cost dominates the relaxation's certified bound.  The bound
     does NOT hold for virtual-circuit results — the relaxation fixes
     per-interval demands to densities, and MCF's time-shifting can
     legitimately dip below it (the DESIGN.md normaliser caveat) —
     so SP+MCF, ECMP+MCF, refine and the exhaustive optimum are
     exempt.  Random-Schedule's own certificate already carries the
     clause (it derives the bound from its relaxation). *)
  if (not online_rejects)
     && online.Solution.energy < lb -. (rtol *. Float.max 1. lb)
  then
    add (Lb_violated { solver = "online"; energy = online.Solution.energy; lower_bound = lb });
  if greedy.Solution.energy < lb -. (rtol *. Float.max 1. lb) then
    add
      (Lb_violated
         { solver = "greedy-ear"; energy = greedy.Solution.energy; lower_bound = lb });
  (* Corollary 1: the exhaustive minimum over routings bounds every
     fixed-routing virtual-circuit result. *)
  (match exact_result with
  | None -> ()
  | Some e ->
    List.iter
      (fun (sol : Solution.t) ->
        if
          sol.Solution.feasible
          && sol.Solution.energy
             < e.Exact.energy -. (rtol *. Float.max 1. e.Exact.energy)
        then
          add
            (Exact_beaten
               {
                 solver = sol.Solution.algorithm;
                 energy = sol.Solution.energy;
                 exact = e.Exact.energy;
               }))
      [ sp; ecmp; refined ]);
  (* The incremental certificate, on a shared-link and a
     virtual-circuit schedule. *)
  List.iter (fun sol -> List.iter add (incremental_clause inst sol)) [ rs; sp ];
  (* Theorem 1 determinism on the deterministic-routing baseline. *)
  List.iter (fun v -> add v) (mcf_reproducibility inst sp);
  (* Metadata consistency. *)
  List.iter
    (fun sol -> List.iter (fun v -> add v) (meta_checks inst sol))
    solutions;
  let all_ids = flow_ids inst in
  if
    List.sort compare (Solution.accepted online @ Solution.rejected online)
    <> all_ids
  then
    add
      (Meta_inconsistent
         { solver = "online"; what = "accepted + rejected != flow set" });
  (* The flat-kernel Frank-Wolfe engine must reproduce the reference
     engine bit for bit (the Dcn_mcf.Kernel contract): re-solve the
     relaxation on the boxed reference path and compare the certified
     series. *)
  let reference_relax =
    Relaxation.solve
      ~fw_config:
        { fw_config with Frank_wolfe.engine = Frank_wolfe.Reference }
      inst
  in
  let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  if not (feq relaxation.Relaxation.cost reference_relax.Relaxation.cost) then
    add
      (Kernel_divergence
         {
           what = "relaxation cost";
           kernel = relaxation.Relaxation.cost;
           reference = reference_relax.Relaxation.cost;
         });
  if not (feq relaxation.Relaxation.lb reference_relax.Relaxation.lb) then
    add
      (Kernel_divergence
         {
           what = "relaxation lower bound";
           kernel = relaxation.Relaxation.lb;
           reference = reference_relax.Relaxation.lb;
         });
  let cross = List.rev !cross in
  if cross <> [] then
    Trace.counter "check.cross_violations" (float_of_int (List.length cross));
  { label; lower_bound = lb; results; cross }

let run_batch ?pool cases =
  let f (case : Gen.case) =
    run ~solver_seed:case.Gen.solver_seed ~label:case.Gen.label case.Gen.instance
  in
  match pool with
  | None -> Array.map f cases
  | Some pool -> Pool.map pool f cases

(* ------------------------------- JSON ------------------------------ *)

let cross_to_json c =
  let fields =
    match c with
    | Exact_beaten { solver; energy; exact } ->
      [
        ("solver", Json.Str solver);
        ("energy", Json.float energy);
        ("exact", Json.float exact);
      ]
    | Lb_violated { solver; energy; lower_bound } ->
      [
        ("solver", Json.Str solver);
        ("energy", Json.float energy);
        ("lower_bound", Json.float lower_bound);
      ]
    | Mcf_not_reproducible { solver; energy; resolved } ->
      [
        ("solver", Json.Str solver);
        ("energy", Json.float energy);
        ("resolved", Json.float resolved);
      ]
    | Meta_inconsistent { solver; what } ->
      [ ("solver", Json.Str solver); ("what", Json.Str what) ]
    | Kernel_divergence { what; kernel; reference } ->
      [
        ("what", Json.Str what);
        ("kernel", Json.float kernel);
        ("reference", Json.float reference);
      ]
    | Incremental_divergence { solver; step; what } ->
      [ ("solver", Json.Str solver); ("step", Json.Int step); ("what", Json.Str what) ]
  in
  Json.Obj (("kind", Json.Str (cross_kind c)) :: fields)

let result_to_json r =
  Json.Obj
    [
      ("solver", Json.Str r.solver);
      ("energy", Json.float r.energy);
      ("feasible", Json.Bool r.feasible);
      ("ok", Json.Bool (r.violations = []));
      ( "violations",
        Json.List (List.map Certify.violation_to_json r.violations) );
    ]

let to_json t =
  Json.Obj
    [
      ("label", Json.Str t.label);
      ("ok", Json.Bool (ok t));
      ("lower_bound", Json.float t.lower_bound);
      ("solvers", Json.List (List.map result_to_json t.results));
      ("cross", Json.List (List.map cross_to_json t.cross));
    ]

let batch_to_json ts =
  let oks = Array.fold_left (fun n t -> if ok t then n + 1 else n) 0 ts in
  Json.Obj
    [
      ("cases", Json.Int (Array.length ts));
      ("ok", Json.Bool (oks = Array.length ts));
      ("failures", Json.Int (Array.length ts - oks));
      ("reports", Json.List (Array.to_list (Array.map to_json ts)));
    ]
