module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Model = Dcn_power.Model
module Schedule = Dcn_sched.Schedule
module Instance = Dcn_core.Instance
module Solution = Dcn_core.Solution
module Json = Dcn_engine.Json
module Trace = Dcn_engine.Trace
module Link_state = Dcn_sched.Link_state

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

let eps = 1e-6
let energy_rtol = 1e-6

type config = {
  partial : bool;
  exclusive : bool;
  check_capacity : bool;
  check_volume : bool;
  cross_check_sim : bool;
}

let default =
  {
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

(* Per-plan structure: known flow, connecting simple path, windows,
   volume. *)
let plan_violations cfg g known (p : Schedule.plan) =
  let id = p.flow.Flow.id in
  match known id with
  | None -> [ Unknown_flow { flow = id } ]
  | Some (f : Flow.t) ->
    let acc = ref [] in
    let add v = acc := v :: !acc in
    if not (Graph.is_path g ~src:f.src ~dst:f.dst p.path) || p.path = [] then
      add (Bad_path { flow = id });
    if cfg.check_volume then begin
      let tol = eps *. Float.max 1. f.volume in
      List.iter
        (fun (s : Schedule.slot) ->
          if s.rate > 0. && (s.start < f.release -. eps || s.stop > f.deadline +. eps)
          then add (Slot_outside_window { flow = id; start = s.start; stop = s.stop }))
        p.slots;
      let got = Schedule.delivered p in
      if Float.abs (got -. f.volume) > tol then
        add (Volume_mismatch { flow = id; delivered = got; expected = f.volume })
    end;
    List.rev !acc

(* The per-link state of the planned slots, plus each plan's own
   verdict keyed by flow id.  Link sweeps come from [Link_state]: each
   link's timeline cut at its slot boundaries, each elementary segment
   evaluated at its midpoint. *)
type state = {
  config : config;
  links : Link_state.t;
  verdicts : (int, violation list) Hashtbl.t;  (* non-empty ones only *)
}

let state ?(config = default) ~links power =
  { config; links = Link_state.create ~links power; verdicts = Hashtbl.create 16 }

let links st = st.links

let add_plan st g known ~rank (p : Schedule.plan) =
  Link_state.add st.links (Schedule.entry ~rank p);
  match plan_violations st.config g known p with
  | [] -> ()
  | vs -> Hashtbl.replace st.verdicts p.flow.Flow.id vs

let remove_plan st id =
  Hashtbl.remove st.verdicts id;
  Link_state.remove st.links id

let update st inst ~added ~removed =
  List.iter (remove_plan st) removed;
  List.iter
    (fun (p : Schedule.plan) ->
      add_plan st inst.Instance.graph (Instance.find_flow_opt inst) ~rank:p.flow.Flow.id p)
    added

let close x y ~rtol = Float.abs (x -. y) <= rtol *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))

let check ?reported_energy ?lower_bound st inst (sched : Schedule.t) =
  let cfg = st.config in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Horizon: the idle-power window must be the instance's. *)
  let it0, it1 = Instance.horizon inst in
  let st0, st1 = sched.Schedule.horizon in
  if Float.abs (st0 -. it0) > eps || Float.abs (st1 -. it1) > eps then
    add (Horizon_mismatch { expected = (it0, it1); got = (st0, st1) });
  if Hashtbl.length st.verdicts > 0 then
    List.iter
      (fun (p : Schedule.plan) ->
        Option.iter (List.iter add) (Hashtbl.find_opt st.verdicts p.flow.Flow.id))
      sched.Schedule.plans;
  if (not cfg.partial) && cfg.check_volume then
    List.iter
      (fun (f : Flow.t) ->
        if not (Link_state.mem st.links f.id) then add (Missing_flow { flow = f.id }))
      inst.Instance.flows;
  (* Every link's sweep, in link order: capacity, exclusivity, dynamic
     energy and active links — then Eq. (5) re-integration and the
     cross-checks. *)
  let power = inst.Instance.power in
  let cap_tol = eps *. Float.max 1. power.Model.cap in
  let dynamic = ref 0. and active = ref 0 in
  for link = 0 to Link_state.links st.links - 1 do
    let s = Link_state.sweep st.links link in
    if Array.length s.terms > 0 then incr active;
    for i = 0 to Array.length s.terms - 1 do
      dynamic := !dynamic +. s.terms.(i)
    done;
    let lo, hi, rate = s.peak in
    if cfg.check_capacity && rate > power.Model.cap +. cap_tol then
      add (Capacity_exceeded { link; window = (lo, hi); rate; cap = power.Model.cap });
    match s.conflict with
    | Some (at, a, b) when cfg.exclusive -> add (Link_conflict { link; at; flows = (a, b) })
    | _ -> ()
  done;
  let idle = float_of_int !active *. power.Model.sigma *. (st1 -. st0) in
  let recomputed = idle +. !dynamic in
  (match reported_energy with
  | Some e when not (close e recomputed ~rtol:energy_rtol) ->
    add (Energy_mismatch { source = "solver"; reported = e; recomputed })
  | _ -> ());
  if cfg.cross_check_sim then begin
    let sim = Dcn_sim.Fluid.run sched in
    if not (close sim.Dcn_sim.Fluid.energy recomputed ~rtol:energy_rtol) then
      add
        (Energy_mismatch
           { source = "fluid-sim"; reported = sim.Dcn_sim.Fluid.energy; recomputed })
  end;
  (match lower_bound with
  | Some lb when recomputed < lb -. (energy_rtol *. Float.max 1. lb) ->
    add (Lb_violated { energy = recomputed; lower_bound = lb })
  | _ -> ());
  let result = List.rev !violations in
  if result <> [] then
    Trace.counter "check.violations" (float_of_int (List.length result));
  result

(* The full pass: the incremental state built from empty, plans ranked
   by position, instance flows found by hash (the first of a repeated
   id). *)
let schedule ?config ?reported_energy ?lower_bound inst (sched : Schedule.t) =
  Trace.span "check.certify" @@ fun () ->
  let st =
    state ?config ~links:(Graph.num_links sched.Schedule.graph) inst.Instance.power
  in
  let known = Hashtbl.create 64 in
  List.iter
    (fun (f : Flow.t) -> if not (Hashtbl.mem known f.id) then Hashtbl.add known f.id f)
    inst.Instance.flows;
  List.iteri
    (fun rank p -> add_plan st inst.Instance.graph (Hashtbl.find_opt known) ~rank p)
    sched.Schedule.plans;
  check ?reported_energy ?lower_bound st inst sched

let solution ?lower_bound inst (sol : Solution.t) =
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
      { default with exclusive = true; check_capacity = false }
    | Solution.Rounding _ ->
      (* Interval densities: links are shared; Theorem 4 claims
         capacity feasibility (when the draw was feasible). *)
      { default with exclusive = false; check_capacity = true }
    | Solution.Routed _ ->
      (* Same interval-density regime as Rounding.  A feasible Routed
         result admitted every flow (so partial coverage never arises
         here; infeasible ones take the partial branch below). *)
      { default with exclusive = false; check_capacity = true }
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
