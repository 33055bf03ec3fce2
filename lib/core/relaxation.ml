(* The multi-step fractional MCF relaxation of Algorithm 2 (steps 1-5):
   per interval I_k, route every active flow's density D_i fractionally,
   minimising the sum of convex link costs.  The convex surrogate for the
   paper's fixed-charge f is its lower convex envelope (see
   Dcn_power.Model.envelope and DESIGN.md); capacities are enforced by
   the Frank-Wolfe penalty.  Shared by Random_schedule (which rounds the
   fractional paths) and Lower_bound (which just takes the cost).

   [resolve] is the incremental entry point of the serving layer: given
   the relaxation of a nearby instance (one flow added, cancelled or
   retired), only the intervals overlapping the change's window are
   re-solved — warm-started from the previous fractional paths — and
   every other interval's solution is reused verbatim.  All per-interval
   quantities (cost, lb) are per unit time, so an interval split by a
   new breakpoint outside the window reuses the old solution on both
   halves unchanged. *)

module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Timeline = Dcn_flow.Timeline
module Model = Dcn_power.Model
module Fw = Dcn_mcf.Frank_wolfe
module Decompose = Dcn_mcf.Decompose
module Trace = Dcn_engine.Trace
module Json = Dcn_engine.Json

type interval_solution = {
  index : int;
  bounds : float * float;
  cost : float;  (* envelope cost of the fractional loads (per unit time) *)
  lb : float;  (* certified lower bound on the interval's convex optimum *)
  max_overload : float;
  flow_paths : (int * Decompose.weighted_path list) list;
      (* flow id -> weighted paths, weights summing to the density *)
}

type t = {
  timeline : Timeline.t;
  intervals : interval_solution array;
  cost : float;  (* sum over k of |I_k| * cost_k *)
  lb : float;  (* sum over k of |I_k| * lb_k *)
}

type reuse_stats = { resolved : int; reused : int }

let trace_interval (s : interval_solution) ~active ~iterations =
  if Trace.on () then
    let lo, hi = s.bounds in
    Trace.event "relaxation.interval"
      ~fields:
        [
          ("index", Json.Int s.index);
          ("lo", Json.float lo);
          ("hi", Json.float hi);
          ("active", Json.Int active);
          ("cost", Json.float s.cost);
          ("lb", Json.float s.lb);
          ("max_overload", Json.float s.max_overload);
          ("fw_iterations", Json.Int iterations);
        ]

(* The power model's envelope in closed form, so the kernel engine can
   inline the cost arithmetic (see Frank_wolfe.piecewise). *)
let piecewise_of power =
  let r = Model.r_hat power in
  {
    Fw.threshold = r;
    slope = (if r > 0. then Model.power_rate power r else 0.);
    sigma = power.Model.sigma;
    mu = power.Model.mu;
    alpha = power.Model.alpha;
  }

(* One interval's F-MCF program over its [active] flows.  [warm]
   supplies a previous fractional routing per flow (an empty list means
   cold-start that flow). *)
let solve_interval ~g ~power ~tl ~active ~fw_config ~workspace ~warm k =
  let bounds = Timeline.bounds tl k in
  match active with
  | [] ->
    let s =
      {
        index = k;
        bounds;
        cost = 0.;
        lb = 0.;
        max_overload = neg_infinity;
        flow_paths = [];
      }
    in
    trace_interval s ~active:0 ~iterations:0;
    s
  | _ ->
    let commodities =
      List.mapi
        (fun index (f : Flow.t) ->
          Dcn_mcf.Commodity.make ~index ~src:f.src ~dst:f.dst
            ~demand:(Flow.density f))
        active
    in
    let active_arr = Array.of_list active in
    let warm_start i = warm active_arr.(i) in
    let problem =
      {
        Fw.graph = g;
        commodities = Array.of_list commodities;
        cost = Model.envelope power;
        cost_deriv = Model.envelope_deriv power;
        capacity = power.Model.cap;
      }
    in
    let sol =
      Fw.solve ~config:fw_config ~warm_start ?workspace
        ~piecewise:(piecewise_of power) problem
    in
    let flow_paths =
      List.mapi
        (fun i (f : Flow.t) ->
          let paths =
            Decompose.run g ~src:f.src ~dst:f.dst ~flow:sol.Fw.flows.(i)
          in
          (f.id, paths))
        active
    in
    let s =
      {
        index = k;
        bounds;
        cost = sol.Fw.cost;
        lb = Fw.lower_bound_cost problem sol;
        max_overload = sol.Fw.max_overload;
        flow_paths;
      }
    in
    trace_interval s ~active:(List.length active) ~iterations:sol.Fw.iterations;
    s

(* Live-telemetry counters (one-branch no-ops unless the registry is
   enabled); incremented on the caller's domain after the pool barrier
   so totals are identical at every [--jobs]. *)
let obs_solved =
  Dcn_obs.Registry.counter ~help:"intervals solved from scratch"
    "relaxation.intervals_solved"

let obs_reused =
  Dcn_obs.Registry.counter ~help:"intervals reused verbatim"
    "relaxation.intervals_reused"

let weighted intervals part =
  Array.fold_left
    (fun acc s ->
      let lo, hi = s.bounds in
      acc +. ((hi -. lo) *. part s))
    0. intervals

let resolve ?(pool = Dcn_engine.Pool.sequential) ?(fw_config = Fw.default_config)
    ?workspace ?previous ~window inst =
  Dcn_obs.Stage.time "core.relaxation" @@ fun () ->
  let g = inst.Instance.graph in
  let power = inst.Instance.power in
  let tl = Instance.timeline inst in
  let flows = inst.Instance.flows in
  let wlo, whi = window in
  let _, t1 = Timeline.horizon tl in
  let tiny = 1e-9 *. Float.max 1. (Float.abs t1) in
  Trace.span "relaxation.resolve"
    ~fields:
      [
        ("intervals", Json.Int (Timeline.num_intervals tl));
        ("window_lo", Json.float wlo);
        ("window_hi", Json.float whi);
      ]
  @@ fun () ->
  (* The previous interval covering a time point, if any; without a
     [previous] relaxation every interval is solved cold. *)
  let previous_at mid =
    Option.bind previous (fun p ->
        Option.map (Array.get p.intervals) (Timeline.index_at p.timeline mid))
  in
  let ids_of_paths fps = List.sort_uniq Int.compare (List.map fst fps) in
  (* The same flow ids in the same order: the usual case, since an
     interval's paths are listed in the order of its active flows. *)
  let rec same_order (fs : Flow.t list) fps =
    match (fs, fps) with
    | [], [] -> true
    | f :: fs, (id, _) :: fps -> f.id = id && same_order fs fps
    | _ -> false
  in
  let active = Timeline.active_by_interval tl flows in
  let solve_one k =
    let lo, hi = Timeline.bounds tl k in
    let mid = 0.5 *. (lo +. hi) in
    let prev = previous_at mid in
    let dirty = hi > wlo +. tiny && lo < whi -. tiny in
    let reusable =
      (* Outside the change's window the active set is unchanged by
         construction — but verify against the previous solution's flow
         ids rather than trust the caller's window: a mismatch falls
         back to a fresh solve, never to a stale reuse. *)
      if dirty then None
      else
        match prev with
        | None -> None
        | Some p ->
          let same_ids () =
            List.sort_uniq Int.compare
              (List.map (fun (f : Flow.t) -> f.Flow.id) active.(k))
            = ids_of_paths p.flow_paths
          in
          if same_order active.(k) p.flow_paths || same_ids () then Some p else None
    in
    match reusable with
    | Some p -> ({ p with index = k; bounds = (lo, hi) }, true)
    | None ->
      let warm (f : Flow.t) =
        match prev with
        | None -> []
        | Some p -> Option.value ~default:[] (List.assoc_opt f.id p.flow_paths)
      in
      ( solve_interval ~g ~power ~tl ~active:active.(k) ~fw_config ~workspace ~warm k,
        false )
  in
  let results =
    Dcn_engine.Pool.map pool solve_one
      (Array.init (Timeline.num_intervals tl) Fun.id)
  in
  let intervals = Array.map fst results in
  let reused =
    Array.fold_left (fun acc (_, r) -> if r then acc + 1 else acc) 0 results
  in
  let stats = { resolved = Array.length results - reused; reused } in
  Dcn_obs.Registry.incr ~by:stats.resolved obs_solved;
  Dcn_obs.Registry.incr ~by:stats.reused obs_reused;
  ( {
      timeline = tl;
      intervals;
      cost = weighted intervals (fun s -> s.cost);
      lb = weighted intervals (fun s -> s.lb);
    },
    stats )

let solve ?pool ?fw_config ?workspace inst =
  fst (resolve ?pool ?fw_config ?workspace ~window:(Instance.horizon inst) inst)
