module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Model = Dcn_power.Model
module Schedule = Dcn_sched.Schedule
module Instance = Dcn_core.Instance
module Solution = Dcn_core.Solution
module Json = Dcn_engine.Json
module Trace = Dcn_engine.Trace
module Sweep = Dcn_util.Sweep

type violation =
  | Unknown_flow of { flow : int }
  | Missing_flow of { flow : int }
  | Bad_path of { flow : int }
  | Slot_outside_window of { flow : int; start : float; stop : float }
  | Volume_mismatch of { flow : int; delivered : float; expected : float }
  | Capacity_exceeded of {
      link : int;
      window : float * float;
      rate : float;
      cap : float;
    }
  | Link_conflict of { link : int; at : float; flows : int * int }
  | Horizon_mismatch of { expected : float * float; got : float * float }
  | Energy_mismatch of { source : string; reported : float; recomputed : float }
  | Lb_violated of { energy : float; lower_bound : float }
  | Partial_coflow of { coflow : int; planned : int list; missing : int list }

type config = {
  eps : float;
  energy_rtol : float;
  partial : bool;
  exclusive : bool;
  check_capacity : bool;
  check_volume : bool;
  cross_check_sim : bool;
}

let default =
  {
    eps = 1e-6;
    energy_rtol = 1e-6;
    partial = false;
    exclusive = false;
    check_capacity = true;
    check_volume = true;
    cross_check_sim = true;
  }

let kind = function
  | Unknown_flow _ -> "unknown_flow"
  | Missing_flow _ -> "missing_flow"
  | Bad_path _ -> "bad_path"
  | Slot_outside_window _ -> "slot_outside_window"
  | Volume_mismatch _ -> "volume_mismatch"
  | Capacity_exceeded _ -> "capacity_exceeded"
  | Link_conflict _ -> "link_conflict"
  | Horizon_mismatch _ -> "horizon_mismatch"
  | Energy_mismatch _ -> "energy_mismatch"
  | Lb_violated _ -> "lb_violated"
  | Partial_coflow _ -> "partial_coflow"

let pp_violation ppf = function
  | Unknown_flow { flow } -> Format.fprintf ppf "flow %d is not in the instance" flow
  | Missing_flow { flow } -> Format.fprintf ppf "flow %d has no plan" flow
  | Bad_path { flow } ->
    Format.fprintf ppf "flow %d's path does not connect its endpoints" flow
  | Slot_outside_window { flow; start; stop } ->
    Format.fprintf ppf "flow %d transmits in [%g,%g] outside its span" flow start stop
  | Volume_mismatch { flow; delivered; expected } ->
    Format.fprintf ppf "flow %d delivered %g of %g" flow delivered expected
  | Capacity_exceeded { link; window = lo, hi; rate; cap } ->
    Format.fprintf ppf "link %d carries %g > cap %g during [%g,%g]" link rate cap lo hi
  | Link_conflict { link; at; flows = a, b } ->
    Format.fprintf ppf "flows %d and %d share link %d at time %g" a b link at
  | Horizon_mismatch { expected = e0, e1; got = g0, g1 } ->
    Format.fprintf ppf "schedule horizon [%g,%g] differs from instance [%g,%g]" g0 g1
      e0 e1
  | Energy_mismatch { source; reported; recomputed } ->
    Format.fprintf ppf "%s energy %g vs re-integrated %g" source reported recomputed
  | Lb_violated { energy; lower_bound } ->
    Format.fprintf ppf "energy %g below the fractional lower bound %g" energy
      lower_bound
  | Partial_coflow { coflow; planned; missing } ->
    Format.fprintf ppf
      "coflow %d partially admitted: %d member(s) planned, %d missing (%s)"
      coflow (List.length planned) (List.length missing)
      (String.concat "," (List.map string_of_int missing))

let violation_to_json v =
  let base = [ ("kind", Json.Str (kind v)) ] in
  let rest =
    match v with
    | Unknown_flow { flow } | Missing_flow { flow } | Bad_path { flow } ->
      [ ("flow", Json.Int flow) ]
    | Slot_outside_window { flow; start; stop } ->
      [ ("flow", Json.Int flow); ("start", Json.float start); ("stop", Json.float stop) ]
    | Volume_mismatch { flow; delivered; expected } ->
      [
        ("flow", Json.Int flow);
        ("delivered", Json.float delivered);
        ("expected", Json.float expected);
      ]
    | Capacity_exceeded { link; window = lo, hi; rate; cap } ->
      [
        ("link", Json.Int link);
        ("window", Json.List [ Json.float lo; Json.float hi ]);
        ("rate", Json.float rate);
        ("cap", Json.float cap);
      ]
    | Link_conflict { link; at; flows = a, b } ->
      [
        ("link", Json.Int link);
        ("at", Json.float at);
        ("flows", Json.List [ Json.Int a; Json.Int b ]);
      ]
    | Horizon_mismatch { expected = e0, e1; got = g0, g1 } ->
      [
        ("expected", Json.List [ Json.float e0; Json.float e1 ]);
        ("got", Json.List [ Json.float g0; Json.float g1 ]);
      ]
    | Energy_mismatch { source; reported; recomputed } ->
      [
        ("source", Json.Str source);
        ("reported", Json.float reported);
        ("recomputed", Json.float recomputed);
      ]
    | Lb_violated { energy; lower_bound } ->
      [ ("energy", Json.float energy); ("lower_bound", Json.float lower_bound) ]
    | Partial_coflow { coflow; planned; missing } ->
      [
        ("coflow", Json.Int coflow);
        ("planned", Json.List (List.map (fun id -> Json.Int id) planned));
        ("missing", Json.List (List.map (fun id -> Json.Int id) missing));
      ]
  in
  Json.Obj (base @ rest)

let violations_to_json vs =
  Json.Obj
    [
      ("ok", Json.Bool (vs = []));
      ("violations", Json.List (List.map violation_to_json vs));
    ]

(* ------------------------- the certificate ------------------------- *)

(* Per-link activity sweep, independent of [Schedule.profiles]:
   collect every (start, stop, rate, flow) carried by each link, cut the
   link's own timeline at all slot boundaries, and evaluate each
   elementary segment at its midpoint.  Returns the dynamic energy, the
   number of active links, and the capacity/exclusivity violations.

   A link's entries run from the last plan to the first, each plan's
   slots in order; a segment's rate adds its covering entries in that
   order.  An entry covers the segments whose midpoint lies in
   [start, stop), one range of them, so each segment visits only the
   entries covering it. *)
let sweep ~cfg ~(power : Model.t) (sched : Schedule.t) =
  let plans = Array.of_list sched.Schedule.plans in
  let m = Graph.num_links sched.Schedule.graph in
  let carried (s : Schedule.slot) = s.rate > 0. && s.stop > s.start in
  (* Entries of link l at [offset.(l), offset.(l + 1)). *)
  let offset = Array.make (m + 1) 0 in
  Array.iter
    (fun (p : Schedule.plan) ->
      let k = List.length (List.filter carried p.slots) in
      List.iter (fun l -> offset.(l + 1) <- offset.(l + 1) + k) p.path)
    plans;
  for l = 1 to m do
    offset.(l) <- offset.(l) + offset.(l - 1)
  done;
  let total = offset.(m) in
  let e_start = Array.make total 0. and e_stop = Array.make total 0. in
  let e_rate = Array.make total 0. and e_flow = Array.make total 0 in
  let fill = Array.sub offset 0 m in
  for i = Array.length plans - 1 downto 0 do
    let p = plans.(i) in
    List.iter
      (fun l ->
        List.iter
          (fun (s : Schedule.slot) ->
            if carried s then begin
              let x = fill.(l) in
              e_start.(x) <- s.start;
              e_stop.(x) <- s.stop;
              e_rate.(x) <- s.rate;
              e_flow.(x) <- p.flow.Flow.id;
              fill.(l) <- x + 1
            end)
          p.slots)
      p.path
  done;
  (* Each link's distinct slot boundaries, link [l]'s at [cut_lo.(l)]
     onwards in one array, and its segments between consecutive ones,
     [seg_lo.(l)] onwards in one numbering over all links. *)
  let cuts = Array.make (2 * total) 0. in
  let n_cuts = Array.make m 0 in
  for l = 0 to m - 1 do
    let lo = offset.(l) and n = offset.(l + 1) - offset.(l) in
    Array.blit e_start lo cuts (2 * lo) n;
    Array.blit e_stop lo cuts ((2 * lo) + n) n;
    n_cuts.(l) <- Sweep.sort_distinct cuts ~pos:(2 * lo) ~len:(2 * n)
  done;
  let cut_lo = Array.make (m + 1) 0 and seg_lo = Array.make (m + 1) 0 in
  for l = 0 to m - 1 do
    Array.blit cuts (2 * offset.(l)) cuts cut_lo.(l) n_cuts.(l);
    cut_lo.(l + 1) <- cut_lo.(l) + n_cuts.(l);
    seg_lo.(l + 1) <- seg_lo.(l) + max 0 (n_cuts.(l) - 1)
  done;
  let segments = seg_lo.(m) in
  let seg_link = Array.make segments 0 and seg_cut = Array.make segments 0 in
  let mids = Array.make segments 0. in
  for l = 0 to m - 1 do
    for g = seg_lo.(l) to seg_lo.(l + 1) - 1 do
      let c = cut_lo.(l) + (g - seg_lo.(l)) in
      seg_link.(g) <- l;
      seg_cut.(g) <- c;
      mids.(g) <- 0.5 *. (cuts.(c) +. cuts.(c + 1))
    done
  done;
  (* Entry [x] of link [l] covers the link's segments whose midpoint
     lies in [start, stop): one range, since midpoints ascend. *)
  let first = Array.make total 0 and last = Array.make total 0 in
  for l = 0 to m - 1 do
    let lo = seg_lo.(l) and hi = seg_lo.(l + 1) in
    for x = offset.(l) to offset.(l + 1) - 1 do
      first.(x) <- Sweep.first_true ~lo ~hi (fun g -> e_start.(x) <= mids.(g));
      last.(x) <- Sweep.first_true ~lo ~hi (fun g -> not (mids.(g) < e_stop.(x))) - 1
    done
  done;
  (* A float array cell: a float ref updated inside the closure below
     would box every sum. *)
  let dynamic = [| 0. |] in
  let active = ref 0 in
  let violations = ref [] in
  let cap_tol = cfg.eps *. Float.max 1. power.Model.cap in
  let link_active = ref false in
  let over = ref None in
  (* worst segment *)
  let conflict = ref None in
  let finish link =
    if !link_active then incr active;
    (match !over with
    | Some (lo, hi, rate) when cfg.check_capacity ->
      violations :=
        Capacity_exceeded { link; window = (lo, hi); rate; cap = power.Model.cap }
        :: !violations
    | _ -> ());
    (match !conflict with
    | Some c when cfg.exclusive -> violations := c :: !violations
    | _ -> ());
    link_active := false;
    over := None;
    conflict := None
  in
  (* Entries are grouped by link and in entry order within it, so the
     covering entries of a segment come in entry order. *)
  Sweep.iter_active ~segments ~first ~last (fun g covering n_covering ->
      let link = seg_link.(g) in
      if g > 0 && seg_link.(g - 1) <> link then finish seg_link.(g - 1);
      let t0 = cuts.(seg_cut.(g)) and t1 = cuts.(seg_cut.(g) + 1) in
      let len = t1 -. t0 in
      if len > 0. then begin
        let rate = ref 0. in
        for c = 0 to n_covering - 1 do
          rate := !rate +. e_rate.(covering.(c))
        done;
        (* The first covering entry of another flow than the first. *)
        if Option.is_none !conflict && n_covering > 0 then begin
          let f0 = e_flow.(covering.(0)) in
          let c = ref 1 in
          while !c < n_covering && e_flow.(covering.(!c)) = f0 do
            incr c
          done;
          if !c < n_covering then
            conflict :=
              Some (Link_conflict { link; at = t0; flows = (f0, e_flow.(covering.(!c))) })
        end;
        if !rate > 0. then begin
          link_active := true;
          dynamic.(0) <- dynamic.(0) +. (Model.dynamic power !rate *. len)
        end;
        if !rate > power.Model.cap +. cap_tol then
          match !over with
          | Some (_, _, worst) when worst >= !rate -> ()
          | _ -> over := Some (t0, t1, !rate)
      end);
  if segments > 0 then finish seg_link.(segments - 1);
  (dynamic.(0), !active, List.rev !violations)

let close x y ~rtol = Float.abs (x -. y) <= rtol *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))

let schedule ?(config = default) ?reported_energy ?lower_bound inst
    (sched : Schedule.t) =
  Trace.span "check.certify" @@ fun () ->
  let cfg = config in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let g = inst.Instance.graph in
  (* Horizon: the idle-power window must be the instance's. *)
  let it0, it1 = Instance.horizon inst in
  let st0, st1 = sched.Schedule.horizon in
  if Float.abs (st0 -. it0) > cfg.eps || Float.abs (st1 -. it1) > cfg.eps then
    add (Horizon_mismatch { expected = (it0, it1); got = (st0, st1) });
  (* Per-plan structure: known flow, connecting simple path, windows,
     volume. *)
  let planned = Hashtbl.create 64 in
  let known = Hashtbl.create 64 in
  List.iter
    (fun (f : Flow.t) -> if not (Hashtbl.mem known f.id) then Hashtbl.add known f.id f)
    inst.Instance.flows;
  List.iter
    (fun (p : Schedule.plan) ->
      let id = p.flow.Flow.id in
      Hashtbl.replace planned id ();
      match Hashtbl.find_opt known id with
      | None -> add (Unknown_flow { flow = id })
      | Some f ->
        if not (Graph.is_path g ~src:f.src ~dst:f.dst p.path) || p.path = [] then
          add (Bad_path { flow = id });
        if cfg.check_volume then begin
          let tol = cfg.eps *. Float.max 1. f.volume in
          List.iter
            (fun (s : Schedule.slot) ->
              if
                s.rate > 0.
                && (s.start < f.release -. cfg.eps || s.stop > f.deadline +. cfg.eps)
              then add (Slot_outside_window { flow = id; start = s.start; stop = s.stop }))
            p.slots;
          let got = Schedule.delivered p in
          if Float.abs (got -. f.volume) > tol then
            add (Volume_mismatch { flow = id; delivered = got; expected = f.volume })
        end)
    sched.Schedule.plans;
  if (not cfg.partial) && cfg.check_volume then
    List.iter
      (fun (f : Flow.t) ->
        if not (Hashtbl.mem planned f.id) then add (Missing_flow { flow = f.id }))
      inst.Instance.flows;
  (* Full timeline sweep: capacity, exclusivity, dynamic energy, active
     links — then Eq. (5) re-integration and the cross-checks. *)
  let dynamic, active, sweep_violations =
    sweep ~cfg ~power:inst.Instance.power sched
  in
  List.iter add sweep_violations;
  let idle =
    float_of_int active *. inst.Instance.power.Model.sigma *. (st1 -. st0)
  in
  let recomputed = idle +. dynamic in
  (match reported_energy with
  | Some e when not (close e recomputed ~rtol:cfg.energy_rtol) ->
    add (Energy_mismatch { source = "solver"; reported = e; recomputed })
  | _ -> ());
  if cfg.cross_check_sim then begin
    let sim = Dcn_sim.Fluid.run sched in
    if not (close sim.Dcn_sim.Fluid.energy recomputed ~rtol:cfg.energy_rtol) then
      add
        (Energy_mismatch
           { source = "fluid-sim"; reported = sim.Dcn_sim.Fluid.energy; recomputed })
  end;
  (match lower_bound with
  | Some lb when recomputed < lb -. (cfg.energy_rtol *. Float.max 1. lb) ->
    add (Lb_violated { energy = recomputed; lower_bound = lb })
  | _ -> ());
  let result = List.rev !violations in
  if result <> [] then
    Trace.counter "check.violations" (float_of_int (List.length result));
  result

let solution ?(eps = default.eps) ?lower_bound inst (sol : Solution.t) =
  let lower_bound =
    match lower_bound with
    | Some _ -> lower_bound
    | None ->
      (* Random-Schedule carries its relaxation; reuse it for the LB
         dominance clause at no extra cost. *)
      Option.map
        (fun r -> (Dcn_core.Lower_bound.of_relaxation r).Dcn_core.Lower_bound.value)
        (Solution.relaxation sol)
  in
  let cfg =
    match sol.Solution.meta with
    | Solution.Mcf _ ->
      (* Virtual circuits: exclusive slots; DCFS does not bind the cap. *)
      { default with eps; exclusive = true; check_capacity = false }
    | Solution.Rounding _ ->
      (* Interval densities: links are shared; Theorem 4 claims
         capacity feasibility (when the draw was feasible). *)
      { default with eps; exclusive = false; check_capacity = true }
    | Solution.Routed _ ->
      (* Same interval-density regime as Rounding.  A feasible Routed
         result admitted every flow (so partial coverage never arises
         here; infeasible ones take the partial branch below). *)
      { default with eps; exclusive = false; check_capacity = true }
  in
  if not sol.Solution.feasible then
    (* An infeasible result claims nothing beyond structure: check the
       paths and windows, skip volumes (placements may be partial, so
       allow missing plans too), capacity, energy and the LB. *)
    schedule
      ~config:
        {
          cfg with
          partial = true;
          check_volume = false;
          check_capacity = false;
          cross_check_sim = false;
        }
      inst sol.Solution.schedule
  else
    schedule ~config:cfg ~reported_energy:sol.Solution.energy ?lower_bound inst
      sol.Solution.schedule

(* ----------------------- coflow consistency ------------------------ *)

(* All-or-nothing admission: a schedule speaks for a coflow only if it
   plans {e every} member — delivering 37 of 40 member flows is worth
   nothing (DCoflow).  The check is purely structural (membership vs
   planned flow ids), so it composes with [schedule ~config:{partial =
   true}] into the conjunction certificate of Dcn_coflow.Certificate:
   member-level clauses come from the member plans, this clause rules
   out the partially admitted middle ground. *)
let coflow_consistency ~members (sched : Schedule.t) =
  let planned = Hashtbl.create 16 in
  List.iter
    (fun (p : Schedule.plan) -> Hashtbl.replace planned p.flow.Flow.id ())
    sched.Schedule.plans;
  List.filter_map
    (fun (coflow, member_ids) ->
      let planned_ids, missing =
        List.partition (fun id -> Hashtbl.mem planned id) member_ids
      in
      if planned_ids <> [] && missing <> [] then
        Some (Partial_coflow { coflow; planned = planned_ids; missing })
      else None)
    members

(* --------------------------- selfcheck ----------------------------- *)

let fail_on label violations =
  match violations with
  | [] -> ()
  | vs ->
    let msgs =
      List.map (fun v -> Format.asprintf "%a" pp_violation v) vs
    in
    failwith
      (Printf.sprintf "selfcheck: %s: %d violation(s): %s" label (List.length vs)
         (String.concat "; " msgs))

let install_selfcheck () =
  Dcn_core.Selfcheck.set
    ~solution:(fun inst sol ->
      fail_on sol.Solution.algorithm (solution inst sol))
    ~schedule:(fun ~label ~partial inst sched ->
      fail_on label (schedule ~config:{ default with partial } inst sched))
    ()

let selfcheck_from_env () =
  if Sys.getenv_opt "DCN_SELFCHECK" = Some "1" then install_selfcheck ()
