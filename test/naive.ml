(* The list-scanning implementations of the commit-path passes, kept
   as test oracles for the array sweeps that replaced them in lib/.
   Each function is the earlier library code, changed only to live
   outside its module; test_sweep.ml checks that the library returns
   the same values, bit for bit, on generated and session-produced
   schedules. *)

module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Timeline = Dcn_flow.Timeline
module Model = Dcn_power.Model
module Schedule = Dcn_sched.Schedule
module Schedule_delta = Dcn_sched.Schedule_delta
module Fluid = Dcn_sim.Fluid
module Instance = Dcn_core.Instance
module Certify = Dcn_check.Certify

(* ----------------------------- profiles ----------------------------- *)

let idle_eps = 1e-12

(* [Profile.of_slots], as segments: a [List.partition] of the remaining
   events at every distinct time. *)
let profile_segments slots =
  let events =
    List.concat_map
      (fun (a, b, r) -> if b > a && r > 0. then [ (a, r); (b, -.r) ] else [])
      slots
  in
  let events = List.sort compare events in
  let rec sweep rate start acc = function
    | [] -> List.rev acc
    | (x, _) :: _ as evs ->
      let batch, rest =
        List.partition (fun (y, _) -> Float.abs (y -. x) <= 0.) evs
      in
      let acc =
        if rate > idle_eps && x > start then (start, x, rate) :: acc else acc
      in
      let rate = List.fold_left (fun r (_, d) -> r +. d) rate batch in
      let rate = if Float.abs rate < idle_eps then 0. else rate in
      sweep rate x acc rest
  in
  let raw = sweep 0. neg_infinity [] events in
  let rec coalesce = function
    | (a1, b1, r1) :: (a2, b2, r2) :: rest
      when Float.abs (b1 -. a2) <= 1e-12 && Float.abs (r1 -. r2) <= 1e-12 ->
      coalesce ((a1, b2, r1) :: rest)
    | seg :: rest -> seg :: coalesce rest
    | [] -> []
  in
  coalesce raw

let link_slot_table (t : Schedule.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p : Schedule.plan) ->
      List.iter
        (fun l ->
          let prev = try Hashtbl.find tbl l with Not_found -> [] in
          let entries =
            List.map
              (fun (s : Schedule.slot) -> (s.start, s.stop, s.rate, p.flow.Flow.id))
              p.slots
          in
          Hashtbl.replace tbl l (entries @ prev))
        p.path)
    t.plans;
  tbl

(* [Schedule.profiles], as (link, segments) pairs. *)
let profiles t =
  let tbl = link_slot_table t in
  let links = List.sort compare (Hashtbl.fold (fun l _ acc -> l :: acc) tbl []) in
  Array.of_list
    (List.filter_map
       (fun l ->
         let segs =
           profile_segments (List.map (fun (a, b, r, _) -> (a, b, r)) (Hashtbl.find tbl l))
         in
         if segs = [] then None else Some (l, segs))
       links)

let segments_dynamic power segs =
  List.fold_left
    (fun acc (a, b, r) -> acc +. ((b -. a) *. Model.dynamic power r))
    0. segs

(* [Schedule.energy]: idle over the horizon plus dynamic energy. *)
let energy (t : Schedule.t) =
  let t0, t1 = t.horizon in
  let idle = float_of_int (Array.length (profiles t)) *. t.power.Model.sigma *. (t1 -. t0) in
  let dynamic =
    Array.fold_left (fun acc (_, segs) -> acc +. segments_dynamic t.power segs) 0. (profiles t)
  in
  idle +. dynamic

let max_link_rate t =
  Array.fold_left
    (fun acc (_, segs) ->
      Float.max acc (List.fold_left (fun acc (_, _, r) -> Float.max acc r) 0. segs))
    0. (profiles t)

(* --------------------------- fluid replay -------------------------- *)

(* [Fluid.run]: every plan's every slot tested on every segment. *)
let fluid_run (sched : Schedule.t) : Fluid.report =
  let power = sched.power in
  let plans = Array.of_list sched.plans in
  let n = Array.length plans in
  let m = Graph.num_links sched.graph in
  let times =
    Array.to_list plans
    |> List.concat_map (fun (p : Schedule.plan) ->
           List.concat_map (fun (s : Schedule.slot) -> [ s.start; s.stop ]) p.slots)
    |> List.sort_uniq compare |> Array.of_list
  in
  let delivered = Array.make n 0. in
  let completion = Array.make n None in
  let busy_time = Array.make m 0. in
  let volume = Array.make m 0. in
  let peak = Array.make m 0. in
  let dyn = Array.make m 0. in
  let rates = Array.make m 0. in
  let events = max 0 (Array.length times - 1) in
  for k = 0 to events - 1 do
    let t0 = times.(k) and t1 = times.(k + 1) in
    let len = t1 -. t0 in
    if len > 0. then begin
      Array.fill rates 0 m 0.;
      Array.iteri
        (fun i (p : Schedule.plan) ->
          List.iter
            (fun (s : Schedule.slot) ->
              if s.start <= t0 +. 1e-12 && s.stop >= t1 -. 1e-12 && s.rate > 0. then begin
                delivered.(i) <- delivered.(i) +. (s.rate *. len);
                List.iter (fun l -> rates.(l) <- rates.(l) +. s.rate) p.path
              end)
            p.slots)
        plans;
      Array.iteri
        (fun i (p : Schedule.plan) ->
          if
            completion.(i) = None
            && delivered.(i) >= p.flow.Flow.volume -. (1e-9 *. Float.max 1. p.flow.Flow.volume)
          then completion.(i) <- Some t1)
        plans;
      for l = 0 to m - 1 do
        if rates.(l) > 0. then begin
          busy_time.(l) <- busy_time.(l) +. len;
          volume.(l) <- volume.(l) +. (rates.(l) *. len);
          peak.(l) <- Float.max peak.(l) rates.(l);
          dyn.(l) <- dyn.(l) +. (Model.dynamic power rates.(l) *. len)
        end
      done
    end
  done;
  let flow_stats =
    Array.to_list
      (Array.mapi
         (fun i (p : Schedule.plan) ->
           let f = p.flow in
           let ok =
             match completion.(i) with
             | Some t -> t <= f.Flow.deadline +. 1e-6
             | None -> false
           in
           {
             Fluid.flow_id = f.Flow.id;
             delivered = delivered.(i);
             completion = completion.(i);
             met_deadline = ok;
           })
         plans)
    |> List.sort (fun (a : Fluid.flow_stat) b -> compare a.flow_id b.flow_id)
  in
  let link_stats =
    List.init m Fun.id
    |> List.filter_map (fun l ->
           if busy_time.(l) > 0. then
             Some
               {
                 Fluid.link = l;
                 busy_time = busy_time.(l);
                 volume = volume.(l);
                 peak_rate = peak.(l);
                 dynamic_energy = dyn.(l);
               }
           else None)
  in
  let t0, t1 = sched.horizon in
  let idle_energy =
    float_of_int (List.length link_stats) *. power.Model.sigma *. (t1 -. t0)
  in
  let dynamic_energy = Array.fold_left ( +. ) 0. dyn in
  let max_rate = Array.fold_left Float.max 0. peak in
  {
    energy = idle_energy +. dynamic_energy;
    idle_energy;
    dynamic_energy;
    flow_stats;
    link_stats;
    all_deadlines_met = List.for_all (fun (fs : Fluid.flow_stat) -> fs.met_deadline) flow_stats;
    max_rate;
    capacity_respected = max_rate <= power.Model.cap *. (1. +. 1e-6);
    events;
  }

(* -------------------------- certification -------------------------- *)

(* [Certify]'s per-link sweep: every entry tested at every cut's
   midpoint. *)
let sweep ~(cfg : Certify.config) ~(power : Model.t) plans =
  let by_link = Hashtbl.create 64 in
  List.iter
    (fun (p : Schedule.plan) ->
      List.iter
        (fun link ->
          let entries = try Hashtbl.find by_link link with Not_found -> [] in
          let mine =
            List.filter_map
              (fun (s : Schedule.slot) ->
                if s.rate > 0. && s.stop > s.start then
                  Some (s.start, s.stop, s.rate, p.flow.Flow.id)
                else None)
              p.slots
          in
          Hashtbl.replace by_link link (mine @ entries))
        p.path)
    plans;
  let links = List.sort compare (Hashtbl.fold (fun l _ acc -> l :: acc) by_link []) in
  let dynamic = ref 0. in
  let active = ref 0 in
  let violations = ref [] in
  let cap_tol = Certify.eps *. Float.max 1. power.Model.cap in
  List.iter
    (fun link ->
      let entries = Hashtbl.find by_link link in
      let cuts =
        List.concat_map (fun (a, b, _, _) -> [ a; b ]) entries
        |> List.sort_uniq compare |> Array.of_list
      in
      let link_active = ref false in
      let over = ref None in
      let conflict = ref None in
      for k = 0 to Array.length cuts - 2 do
        let t0 = cuts.(k) and t1 = cuts.(k + 1) in
        let len = t1 -. t0 in
        if len > 0. then begin
          let mid = 0.5 *. (t0 +. t1) in
          let rate = ref 0. in
          let first_flow = ref None in
          List.iter
            (fun (a, b, r, f) ->
              if a <= mid && mid < b then begin
                rate := !rate +. r;
                match !first_flow with
                | None -> first_flow := Some f
                | Some f0 when f0 <> f && !conflict = None ->
                  conflict :=
                    Some (Certify.Link_conflict { link; at = t0; flows = (f0, f) })
                | Some _ -> ()
              end)
            entries;
          if !rate > 0. then begin
            link_active := true;
            dynamic := !dynamic +. (Model.dynamic power !rate *. len)
          end;
          if !rate > power.Model.cap +. cap_tol then
            match !over with
            | Some (_, _, worst) when worst >= !rate -> ()
            | _ -> over := Some (t0, t1, !rate)
        end
      done;
      if !link_active then incr active;
      (match !over with
      | Some (lo, hi, rate) when cfg.check_capacity ->
        violations :=
          Certify.Capacity_exceeded { link; window = (lo, hi); rate; cap = power.Model.cap }
          :: !violations
      | _ -> ());
      match !conflict with
      | Some c when cfg.exclusive -> violations := c :: !violations
      | _ -> ())
    links;
  (!dynamic, !active, List.rev !violations)

let close x y ~rtol =
  Float.abs (x -. y) <= rtol *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))

(* [Certify.schedule], with the list sweep above, flows found by
   [List.find_opt] and the fluid cross-check through [fluid_run]. *)
let certify ?(config = Certify.default) ?reported_energy ?lower_bound inst
    (sched : Schedule.t) =
  let cfg = config in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let g = inst.Instance.graph in
  let it0, it1 = Instance.horizon inst in
  let st0, st1 = sched.Schedule.horizon in
  if Float.abs (st0 -. it0) > Certify.eps || Float.abs (st1 -. it1) > Certify.eps then
    add (Certify.Horizon_mismatch { expected = (it0, it1); got = (st0, st1) });
  let planned = Hashtbl.create 16 in
  List.iter
    (fun (p : Schedule.plan) ->
      let id = p.flow.Flow.id in
      Hashtbl.replace planned id ();
      match List.find_opt (fun (f : Flow.t) -> f.id = id) inst.Instance.flows with
      | None -> add (Certify.Unknown_flow { flow = id })
      | Some f ->
        if not (Graph.is_path g ~src:f.src ~dst:f.dst p.path) || p.path = [] then
          add (Certify.Bad_path { flow = id });
        if cfg.check_volume then begin
          let tol = Certify.eps *. Float.max 1. f.volume in
          List.iter
            (fun (s : Schedule.slot) ->
              if
                s.rate > 0.
                && (s.start < f.release -. Certify.eps || s.stop > f.deadline +. Certify.eps)
              then
                add (Certify.Slot_outside_window { flow = id; start = s.start; stop = s.stop }))
            p.slots;
          let got = Schedule.delivered p in
          if Float.abs (got -. f.volume) > tol then
            add (Certify.Volume_mismatch { flow = id; delivered = got; expected = f.volume })
        end)
    sched.Schedule.plans;
  if (not cfg.partial) && cfg.check_volume then
    List.iter
      (fun (f : Flow.t) ->
        if not (Hashtbl.mem planned f.id) then add (Certify.Missing_flow { flow = f.id }))
      inst.Instance.flows;
  let dynamic, active, sweep_violations =
    sweep ~cfg ~power:inst.Instance.power sched.Schedule.plans
  in
  List.iter add sweep_violations;
  let idle = float_of_int active *. inst.Instance.power.Model.sigma *. (st1 -. st0) in
  let recomputed = idle +. dynamic in
  (match reported_energy with
  | Some e when not (close e recomputed ~rtol:Certify.energy_rtol) ->
    add (Certify.Energy_mismatch { source = "solver"; reported = e; recomputed })
  | _ -> ());
  if cfg.cross_check_sim then begin
    let sim = fluid_run sched in
    if not (close sim.Fluid.energy recomputed ~rtol:Certify.energy_rtol) then
      add
        (Certify.Energy_mismatch
           { source = "fluid-sim"; reported = sim.Fluid.energy; recomputed })
  end;
  (match lower_bound with
  | Some lb when recomputed < lb -. (Certify.energy_rtol *. Float.max 1. lb) ->
    add (Certify.Lb_violated { energy = recomputed; lower_bound = lb })
  | _ -> ());
  List.rev !violations

(* ------------------------ timeline, delta --------------------------- *)

(* [Timeline.active]: one filter over all flows per interval. *)
let active tl flows k =
  let lo, hi = Timeline.bounds tl k in
  List.filter (fun f -> Flow.spans_interval f ~lo ~hi) flows

let plan_id (p : Schedule.plan) = p.Schedule.flow.Flow.id

(* [Schedule_delta.diff]: membership by [List.exists]/[List.find_opt]. *)
let diff ~before ~after : Schedule_delta.t =
  let plans = function None -> [] | Some (s : Schedule.t) -> s.Schedule.plans in
  let by_id a b = compare (plan_id a) (plan_id b) in
  let old_plans = plans before in
  let new_plans = plans after in
  let added =
    List.filter
      (fun p -> not (List.exists (fun q -> plan_id q = plan_id p) old_plans))
      new_plans
  in
  let removed =
    List.filter
      (fun p -> not (List.exists (fun q -> plan_id q = plan_id p) new_plans))
      old_plans
  in
  let changed =
    List.filter_map
      (fun (p : Schedule.plan) ->
        match List.find_opt (fun q -> plan_id q = plan_id p) new_plans with
        | Some q when not (Schedule_delta.equal_plan p q) ->
          Some { Schedule_delta.before = p; after = q }
        | _ -> None)
      old_plans
  in
  {
    horizon = Option.map (fun (s : Schedule.t) -> s.Schedule.horizon) after;
    added = List.sort by_id added;
    removed = List.sort by_id removed;
    changed =
      List.sort
        (fun (a : Schedule_delta.change) b -> by_id a.before b.before)
        changed;
  }
