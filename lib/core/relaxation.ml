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
   halves unchanged.

   A flow the previous relaxation does not route in an interval (a new
   arrival) is carried instead: it starts from the paths it got in the
   latest interval solved earlier in the same call, so only its first
   re-solved interval starts it cold on its hop-count path.  That makes
   each interval's start depend on the ones solved before it, so a warm
   re-solve runs its intervals in ascending index order on the caller's
   domain, and its result is the same for every pool size; cold solves,
   whose intervals are independent, still fan out over the pool. *)

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

let trace_interval (s : interval_solution) ~active ~carried ~iterations =
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
          ("carried", Json.Int carried);
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

(* One interval's F-MCF program over its [active] flows.  [warm.(i)]
   is a fractional routing to start the [i]th flow from (an empty list
   means cold-start it); [carried] of them came from an earlier
   interval, for the trace. *)
let solve_interval ~g ~power ~tl ~active ~fw_config ~workspace ~warm ~carried k =
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
    trace_interval s ~active:0 ~carried:0 ~iterations:0;
    s
  | _ ->
    let commodities =
      List.mapi
        (fun index (f : Flow.t) ->
          Dcn_mcf.Commodity.make ~index ~src:f.src ~dst:f.dst
            ~demand:(Flow.density f))
        active
    in
    let warm_start i = warm.(i) in
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
    trace_interval s ~active:(List.length active) ~carried
      ~iterations:sol.Fw.iterations;
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
  (* [carry], in a warm re-solve: flow id -> the paths it got in the
     latest interval solved so far. *)
  let solve_one carry k =
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
      let carried = ref 0 in
      let warm (f : Flow.t) =
        match Option.bind prev (fun p -> List.assoc_opt f.id p.flow_paths) with
        | Some (_ :: _ as paths) -> paths
        | _ -> (
          match Option.bind carry (fun c -> Hashtbl.find_opt c f.id) with
          | Some paths ->
            incr carried;
            paths
          | None -> [])
      in
      let warm = Array.of_list (List.map warm active.(k)) in
      let s =
        solve_interval ~g ~power ~tl ~active:active.(k) ~fw_config ~workspace ~warm
          ~carried:!carried k
      in
      Option.iter
        (fun c -> List.iter (fun (id, paths) -> Hashtbl.replace c id paths) s.flow_paths)
        carry;
      (s, false)
  in
  let n = Timeline.num_intervals tl in
  let results =
    match previous with
    | None -> Dcn_engine.Pool.map pool (solve_one None) (Array.init n Fun.id)
    | Some _ ->
      (* [Array.init] applies its function in index order. *)
      Array.init n (solve_one (Some (Hashtbl.create 16)))
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
