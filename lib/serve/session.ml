module Json = Dcn_engine.Json
module Deadline = Dcn_engine.Deadline
module Trace = Dcn_engine.Trace
module Pool = Dcn_engine.Pool
module Prng = Dcn_util.Prng
module Graph = Dcn_topology.Graph
module Paths = Dcn_topology.Paths
module Flow = Dcn_flow.Flow
module Timeline = Dcn_flow.Timeline
module Model = Dcn_power.Model
module Fw = Dcn_mcf.Frank_wolfe
module Instance = Dcn_core.Instance
module Relaxation = Dcn_core.Relaxation
module Random_schedule = Dcn_core.Random_schedule
module Schedule = Dcn_sched.Schedule
module Schedule_delta = Dcn_sched.Schedule_delta
module Link_state = Dcn_sched.Link_state
module Certify = Dcn_check.Certify
module Repair = Dcn_resilience.Repair
module Int_map = Map.Make (Int)

(* The solver settings every session runs with are constants:
   [Random_schedule.redraw_budget] path redraws per admission round,
   and [Fw.resolve_config] for an interval re-solve.  Every committed
   epoch is re-certified.  The snapshot fingerprint records them, so
   checkpoints stay tied to the settings that wrote them. *)

type stats = {
  mutable events : int;
  mutable committed : int;
  mutable degraded : int;
  mutable rejected : int;
  mutable admitted : int;
  mutable cancelled : int;
  mutable retired : int;
  mutable dropped : int;
  mutable resolved_intervals : int;
  mutable reused_intervals : int;
  mutable certified_epochs : int;
  mutable uncertified_epochs : int;
  mutable coflows_admitted : int;
  mutable coflows_rejected : int;
}

(* Live-telemetry handles.  Counters/histograms are updated on the
   caller's domain with values that are pure functions of the event
   sequence (except wall time and allocation, which are genuinely
   nondeterministic), so snapshot totals stay bit-identical at every
   [--jobs].  Interval re-solves and reuses are counted by
   [Relaxation.resolve]'s own handles; the [serve.resolved_intervals]/
   [serve.reused_intervals] trace counters in [resolve_relaxation]
   below only record them in a trace. *)
let obs_events = Dcn_obs.Registry.counter ~help:"events applied" "serve.events"

let obs_committed =
  Dcn_obs.Registry.counter ~help:"events committed" "serve.committed"

let obs_degraded =
  Dcn_obs.Registry.counter ~help:"events absorbed after shedding" "serve.degraded"

let obs_rejected =
  Dcn_obs.Registry.counter ~help:"events refused" "serve.rejected"

let obs_certified =
  Dcn_obs.Registry.counter ~help:"epochs re-certified clean" "serve.certified"

let obs_uncertified =
  Dcn_obs.Registry.counter ~help:"epochs failing certification"
    "serve.uncertified"

let obs_apply_ms =
  Dcn_obs.Registry.histogram ~help:"per-event apply latency (ms)"
    "serve.apply_ms"

let obs_apply_minor_words =
  Dcn_obs.Registry.counter ~help:"minor-heap words allocated in apply"
    "serve.apply_minor_words"

let obs_energy =
  Dcn_obs.Registry.gauge ~help:"committed schedule energy (Eq. 5)"
    "serve.energy"

let obs_energy_lb =
  Dcn_obs.Registry.gauge ~help:"fractional relaxation lower bound"
    "serve.energy_lb"

let obs_min_slack =
  Dcn_obs.Registry.gauge ~help:"min (deadline - clock) over committed flows"
    "serve.min_slack"

let obs_active_flows =
  Dcn_obs.Registry.gauge ~help:"committed flows" "serve.active_flows"

let obs_coflow_admitted =
  Dcn_obs.Registry.counter ~help:"coflows admitted whole"
    "serve.coflow_admitted"

let obs_coflow_rejected =
  Dcn_obs.Registry.counter ~help:"coflows rejected whole"
    "serve.coflow_rejected"

let obs_coflow_slack =
  Dcn_obs.Registry.histogram
    ~help:"collective slack (deadline - clock) at coflow admission"
    "serve.coflow_slack"

let obs_coflow_min_slack =
  Dcn_obs.Registry.gauge
    ~help:"min (collective deadline - clock) over committed coflows"
    "serve.coflow_min_slack"

type t = {
  graph : Graph.t;
  power : Model.t;
  policy : Repair.policy;
  pool : Pool.t;
  rng : Prng.t;
  (* Flat Frank-Wolfe arenas, reused across every epoch's re-solve. *)
  workspace : Dcn_mcf.Kernel.Workspace.t;
  created : float;  (* wall clock at [create], for [uptime_ms] *)
  mutable clock : float;
  (* Committed coflow membership keyed both ways: each coflow's members
     still in flight, in arrival order, and each member's coflow.  A
     member list only shrinks when members retire (complete), because
     shedding and cancellation always take the whole group. *)
  mutable coflows : int list Int_map.t;
  mutable coflow_of : int Int_map.t;
  mutable relaxation : Relaxation.t option;
  (* The only record of which flows are committed and on which path:
     one interval-density plan per flow, ascending id (built from the
     sorted candidate list).  [None] when drained. *)
  mutable schedule : Schedule.t option;
  (* The certificate of [schedule], kept per link and per flow id: each
     epoch updates it with the plans it added and removed, and the
     energy, the draw's capacity check and the certification read it. *)
  mutable certificate : Certify.state;
  (* Eq. (5) energy of [schedule] (0 when drained), computed once per
     committed epoch and certified against the re-integration. *)
  mutable energy : float;
  stats : stats;
}

let workspace t = t.workspace

let empty_certificate graph power = Certify.state ~links:(Graph.num_links graph) power

let create ?(pool = Pool.sequential) ~graph ~power ~policy ~seed () =
  {
    graph;
    power;
    policy;
    pool;
    rng = Prng.create seed;
    workspace = Dcn_mcf.Kernel.Workspace.create ();
    created = Deadline.now ();
    clock = 0.;
    coflows = Int_map.empty;
    coflow_of = Int_map.empty;
    relaxation = None;
    schedule = None;
    certificate = empty_certificate graph power;
    energy = 0.;
    stats =
      {
        events = 0;
        committed = 0;
        degraded = 0;
        rejected = 0;
        admitted = 0;
        cancelled = 0;
        retired = 0;
        dropped = 0;
        resolved_intervals = 0;
        reused_intervals = 0;
        certified_epochs = 0;
        uncertified_epochs = 0;
        coflows_admitted = 0;
        coflows_rejected = 0;
      };
  }

type detail = {
  delta : Schedule_delta.t;
  dropped : Flow.t list;
  retired : int list;
  violations : Certify.violation list;
  resolved_intervals : int;
  reused_intervals : int;
  energy : float;
}

type outcome =
  | Committed of detail
  | Degraded of detail
  | Rejected of { reason : string }

let outcome_kind = function
  | Committed _ -> "committed"
  | Degraded _ -> "degraded"
  | Rejected _ -> "rejected"

let pp_outcome ppf = function
  | Committed d ->
    Format.fprintf ppf "committed: %s, %d resolved / %d reused interval(s)"
      (Schedule_delta.summary d.delta)
      d.resolved_intervals d.reused_intervals
  | Degraded d ->
    Format.fprintf ppf "degraded: %s, dropped %s"
      (Schedule_delta.summary d.delta)
      (String.concat ","
         (List.map (fun (f : Flow.t) -> string_of_int f.id) d.dropped))
  | Rejected { reason } -> Format.fprintf ppf "rejected: %s" reason

let outcome_to_json o =
  match o with
  | Committed d | Degraded d ->
    Json.Obj
      [
        ("outcome", Json.Str (outcome_kind o));
        ("delta", Schedule_delta.to_json d.delta);
        ( "dropped",
          Json.List (List.map (fun (f : Flow.t) -> Json.Int f.id) d.dropped) );
        ("retired", Json.List (List.map (fun id -> Json.Int id) d.retired));
        ("certified", Json.Bool (d.violations = []));
        ( "violations",
          Json.List (List.map Certify.violation_to_json d.violations) );
        ("resolved_intervals", Json.Int d.resolved_intervals);
        ("reused_intervals", Json.Int d.reused_intervals);
        ("energy", Json.float d.energy);
      ]
  | Rejected { reason } ->
    Json.Obj [ ("outcome", Json.Str "rejected"); ("reason", Json.Str reason) ]

let clock t = t.clock

(* The clamped clock ([Deadline.now]) is non-decreasing per domain, so
   uptime cannot go negative when NTP steps the wall clock backwards;
   the max is belt-and-braces for a snapshot taken on another domain. *)
let uptime_ms t = Float.max 0. (1e3 *. (Deadline.now () -. t.created))
let plans t = match t.schedule with None -> [] | Some s -> s.Schedule.plans
let flows_of ps = List.map (fun (p : Schedule.plan) -> p.flow) ps
let active_flows t = flows_of (plans t)
let find t id = Option.bind t.schedule (fun s -> Schedule.find_plan s id)
let committed t id = Link_state.mem (Certify.links t.certificate) id
let active_coflows t = Int_map.bindings t.coflows
let schedule t = t.schedule

let total_intervals t =
  match t.relaxation with
  | None -> 0
  | Some r -> Array.length r.Relaxation.intervals

let ok t = t.stats.uncertified_epochs = 0

let by_id (a : Flow.t) (b : Flow.t) = compare a.id b.id
let tiny x = 1e-9 *. Float.max 1. (Float.abs x)

(* Interval re-solve against the committed relaxation; a drained session
   (no previous relaxation) solves from scratch. *)
let resolve_relaxation t ~window inst =
  Trace.span "serve.resolve" @@ fun () ->
  let relax, (rs : Relaxation.reuse_stats) =
    Relaxation.resolve ~pool:t.pool ~fw_config:Fw.resolve_config
      ~workspace:t.workspace ?previous:t.relaxation ~window inst
  in
  Trace.counter "serve.resolved_intervals" (float_of_int rs.resolved);
  Trace.counter "serve.reused_intervals" (float_of_int rs.reused);
  (relax, rs)

(* The time span [lo, hi] covered by [flows], widened from [from]. *)
let span_of ?(from = (Float.infinity, Float.neg_infinity)) flows =
  List.fold_left
    (fun (lo, hi) (f : Flow.t) ->
      (Float.min lo f.release, Float.max hi f.deadline))
    from flows

let delta ~horizon ~added ~removed =
  Trace.span "serve.delta" @@ fun () -> Schedule_delta.of_changes ~horizon ~added ~removed

let ids plans = List.map (fun (p : Schedule.plan) -> p.flow.Flow.id) plans

let instance t flows =
  Trace.span "serve.instance" @@ fun () ->
  Instance.make_result ~graph:t.graph ~power:t.power ~flows

(* Absorb a committed epoch that [added] and [removed] these plans:
   mutate the session, account, certify.  The certificate recomputes
   only the links on their paths. *)
let commit t ~relax ~sched ~inst ~added ~removed ~dropped ~retired
    ~(rstats : Relaxation.reuse_stats) =
  let delta = delta ~horizon:(Some sched.Schedule.horizon) ~added ~removed in
  let energy, violations =
    Trace.span "check.certify" @@ fun () ->
    Certify.update t.certificate inst ~added ~removed:(ids removed);
    let energy =
      Link_state.energy (Certify.links t.certificate) ~horizon:sched.Schedule.horizon
    in
    (energy, Certify.check ~reported_energy:energy t.certificate inst sched)
  in
  (* Members that left the committed set retired or were shed as a whole
     group; either way the membership table tracks live members only,
     and a group with none left is done. *)
  List.iter
    (fun id ->
      match Int_map.find_opt id t.coflow_of with
      | None -> ()
      | Some cid ->
        t.coflow_of <- Int_map.remove id t.coflow_of;
        t.coflows <-
          Int_map.update cid
            (function
              | None -> None
              | Some ms -> (
                match List.filter (fun m -> m <> id) ms with
                | [] -> None
                | live -> Some live))
            t.coflows)
    (ids removed);
  t.relaxation <- Some relax;
  t.schedule <- Some sched;
  t.energy <- energy;
  let s = t.stats in
  s.resolved_intervals <- s.resolved_intervals + rstats.resolved;
  s.reused_intervals <- s.reused_intervals + rstats.reused;
  s.dropped <- s.dropped + List.length dropped;
  s.retired <- s.retired + List.length retired;
  if violations = [] then begin
    s.certified_epochs <- s.certified_epochs + 1;
    Dcn_obs.Registry.incr obs_certified
  end
  else begin
    s.uncertified_epochs <- s.uncertified_epochs + 1;
    Dcn_obs.Registry.incr obs_uncertified
  end;
  let detail =
    {
      delta;
      dropped = List.sort by_id dropped;
      retired = List.sort compare retired;
      violations;
      resolved_intervals = rstats.resolved;
      reused_intervals = rstats.reused;
      energy;
    }
  in
  if dropped = [] then Committed detail else Degraded detail

(* All-or-nothing discipline for committed coflows: shedding any member
   sheds the whole group, so a partially planned coflow never survives
   an epoch.  A victim outside every coflow sheds alone. *)
let shed_set t (victim : Flow.t) candidate =
  match Int_map.find_opt victim.Flow.id t.coflow_of with
  | None -> [ victim ]
  | Some cid ->
    List.filter
      (fun (f : Flow.t) -> Int_map.find_opt f.Flow.id t.coflow_of = Some cid)
      candidate

(* Graceful admission of a group of new flows — a plain arrival is the
   one-member group.  Each round re-solves only the intervals
   overlapping the change window and draws a path per member from the
   warm relaxation (one weighted draw each, all from the round's
   pre-split stream).  While no joint draw is feasible the policy sheds
   committed flows — whole coflows at a time, via [shed_set] — exactly
   Repair's degradation loop, live; a new member as victim rejects the
   group.  Either every member commits or none does.  [coflow] names
   the group in the reject reason and enters the membership table. *)
let admit t ?coflow (members : Flow.t list) =
  let member_ids = List.map (fun (f : Flow.t) -> f.Flow.id) members in
  let is_new id = List.mem id member_ids in
  let links = Certify.links t.certificate in
  let rec go candidate dropped window =
    match instance t candidate with
    | Error e -> Rejected { reason = Instance.error_to_string e }
    | Ok inst -> (
      let relax, rstats = resolve_relaxation t ~window inst in
      let member_candidates =
        List.map (Random_schedule.candidate_paths relax) members
      in
      let shed_ids = List.map (fun (f : Flow.t) -> f.Flow.id) dropped in
      let draw =
        Trace.span "serve.draw" @@ fun () ->
        if List.mem [] member_candidates then None
        else
          let prepared =
            List.map2
              (fun f cands ->
                ( f,
                  Array.of_list (List.map fst cands),
                  Array.of_list (List.map snd cands) ))
              members member_candidates
          in
          let rngs = Pool.split_rngs (Prng.split t.rng) Random_schedule.redraw_budget in
          (* A draw fits when the committed links, less the shed flows'
             entries and plus the drawn members', stay under the cap:
             only the links on those paths are re-profiled. *)
          let rec try_draw i =
            if i >= Random_schedule.redraw_budget then None
            else
              let drawn =
                List.fold_left
                  (fun acc ((f : Flow.t), paths, weights) ->
                    let idx = Prng.pick_weighted rngs.(i) ~weights in
                    (f, paths.(idx)) :: acc)
                  [] prepared
              in
              let entries =
                List.map
                  (fun ((f : Flow.t), path) ->
                    Schedule.entry ~rank:f.id (Schedule.density_plan f path))
                  drawn
              in
              if (Link_state.verdict_with links ~removed:shed_ids ~added:entries).within_cap
              then Some drawn
              else try_draw (i + 1)
          in
          try_draw 0
      in
      match draw with
      | Some drawn ->
        (* A member takes its drawn path; every other candidate keeps
           its committed one. *)
        let route (f : Flow.t) =
          match List.find_opt (fun ((g : Flow.t), _) -> g.id = f.id) drawn with
          | Some (_, path) -> (f, path)
          | None -> (f, Link_state.path links f.id)
        in
        let sched =
          Schedule.of_densities ~graph:t.graph ~power:t.power
            ~horizon:(Instance.horizon inst) (List.map route candidate)
        in
        let added =
          List.filter (fun (p : Schedule.plan) -> is_new p.flow.id) sched.Schedule.plans
        in
        let removed =
          List.filter (fun (p : Schedule.plan) -> List.mem p.flow.id shed_ids) (plans t)
        in
        t.stats.admitted <- t.stats.admitted + List.length members;
        let outcome =
          commit t ~relax ~sched ~inst ~added ~removed ~dropped ~retired:[] ~rstats
        in
        (* [commit] pruned shed groups; the new one enters afterwards so
           a [Rejected] round never leaves a trace of it. *)
        Option.iter
          (fun cid ->
            t.coflows <- Int_map.add cid member_ids t.coflows;
            List.iter (fun id -> t.coflow_of <- Int_map.add id cid t.coflow_of) member_ids)
          coflow;
        outcome
      | None -> (
        match Repair.next_casualty t.policy ~is_new candidate with
        | None ->
          Rejected
            { reason = "no feasible plan; the policy refuses to shed" }
        | Some victim when is_new victim.Flow.id ->
          Rejected
            {
              reason =
                (match coflow with
                | None -> "no feasible plan within the redraw budget"
                | Some cid ->
                  Printf.sprintf
                    "coflow %d: no feasible joint plan within the redraw budget"
                    cid);
            }
        | Some victim ->
          let shed = shed_set t victim candidate in
          List.iter
            (fun (f : Flow.t) ->
              Trace.event ~fields:[ ("flow", Json.Int f.Flow.id) ] "serve.drop")
            shed;
          let shed_ids = List.map (fun (f : Flow.t) -> f.Flow.id) shed in
          go
            (List.filter
               (fun (f : Flow.t) -> not (List.mem f.id shed_ids))
               candidate)
            (shed @ dropped)
            (span_of ~from:window shed)))
  in
  go (List.sort by_id (members @ active_flows t)) [] (span_of members)

(* Admission checks for one new flow, before anything is re-solved. *)
let validate_new t (f : Flow.t) =
  let n = Graph.num_nodes t.graph in
  let tn = tiny (Float.max (Float.abs t.clock) (Float.abs f.deadline)) in
  if f.src < 0 || f.src >= n || f.dst < 0 || f.dst >= n then
    Some (Printf.sprintf "flow %d: endpoint outside the fabric" f.id)
  else if f.deadline <= t.clock +. tn then
    Some
      (Printf.sprintf "flow %d: deadline %g at or before clock %g" f.id
         f.deadline t.clock)
  else if committed t f.id then
    Some (Printf.sprintf "flow %d already committed" f.id)
  else if Option.is_none (Paths.shortest_path t.graph ~src:f.src ~dst:f.dst)
  then Some (Printf.sprintf "flow %d: no path from %d to %d" f.id f.src f.dst)
  else None

(* A release in the past cannot be honoured: clamp it to the clock. *)
let clamp_release t (f : Flow.t) =
  if f.release < t.clock then
    Flow.make ~id:f.id ~src:f.src ~dst:f.dst ~volume:f.volume ~release:t.clock
      ~deadline:f.deadline
  else f

let on_arrival t f =
  match validate_new t f with
  | Some reason -> Rejected { reason }
  | None -> admit t [ clamp_release t f ]

let on_coflow_arrival t ~coflow members =
  let reject reason =
    t.stats.coflows_rejected <- t.stats.coflows_rejected + 1;
    Dcn_obs.Registry.incr obs_coflow_rejected;
    Rejected { reason }
  in
  if Int_map.mem coflow t.coflows then
    reject (Printf.sprintf "coflow %d already committed" coflow)
  else if members = [] then
    reject (Printf.sprintf "coflow %d has no members" coflow)
  else begin
    let sorted_ids =
      List.sort compare (List.map (fun (f : Flow.t) -> f.Flow.id) members)
    in
    let rec dup = function
      | a :: b :: _ when a = b -> Some a
      | _ :: rest -> dup rest
      | [] -> None
    in
    match dup sorted_ids with
    | Some id ->
      reject (Printf.sprintf "coflow %d: duplicate member flow %d" coflow id)
    | None -> (
      match List.filter_map (validate_new t) members with
      | reason :: _ -> reject (Printf.sprintf "coflow %d: %s" coflow reason)
      | [] -> (
        let members = List.map (clamp_release t) members in
        match admit t ~coflow members with
        | Rejected { reason } -> reject reason
        | outcome ->
          t.stats.coflows_admitted <- t.stats.coflows_admitted + 1;
          Dcn_obs.Registry.incr obs_coflow_admitted;
          if Dcn_obs.Registry.on () then
            Dcn_obs.Registry.observe obs_coflow_slack
              (snd (span_of members) -. t.clock);
          outcome))
  end

(* Withdraw committed flows — [cancelled] by a client or [retired] by
   the clock (flow ids).  Drains the session when nothing is left;
   otherwise re-solves over the span of the removed flows and keeps
   every other committed path. *)
let withdraw t ~cancelled ~retired =
  let gone, rest =
    List.partition
      (fun (p : Schedule.plan) ->
        List.mem p.flow.id cancelled || List.mem p.flow.id retired)
      (plans t)
  in
  let s = t.stats in
  match rest with
  | [] ->
    let delta = delta ~horizon:None ~added:[] ~removed:gone in
    t.coflows <- Int_map.empty;
    t.coflow_of <- Int_map.empty;
    t.relaxation <- None;
    t.schedule <- None;
    t.certificate <- empty_certificate t.graph t.power;
    t.energy <- 0.;
    s.cancelled <- s.cancelled + List.length cancelled;
    s.retired <- s.retired + List.length retired;
    Committed
      {
        delta;
        dropped = [];
        retired = List.sort compare retired;
        violations = [];
        resolved_intervals = 0;
        reused_intervals = 0;
        energy = 0.;
      }
  | _ -> (
    match instance t (flows_of rest) with
    | Error e -> Rejected { reason = Instance.error_to_string e }
    | Ok inst ->
      let relax, rstats =
        resolve_relaxation t ~window:(span_of (flows_of gone)) inst
      in
      let sched =
        Schedule.of_densities ~graph:t.graph ~power:t.power
          ~horizon:(Instance.horizon inst)
          (List.map (fun (p : Schedule.plan) -> (p.flow, p.path)) rest)
      in
      s.cancelled <- s.cancelled + List.length cancelled;
      commit t ~relax ~sched ~inst ~added:[] ~removed:gone ~dropped:[] ~retired ~rstats)

let on_cancel t id =
  if not (committed t id) then
    Rejected { reason = Printf.sprintf "unknown flow %d" id }
  else
    match Int_map.find_opt id t.coflow_of with
    | Some cid ->
      Rejected
        {
          reason =
            Printf.sprintf
              "flow %d belongs to coflow %d; cancel the coflow instead" id cid;
        }
    | None -> withdraw t ~cancelled:[ id ] ~retired:[]

let on_coflow_cancel t coflow =
  match Int_map.find_opt coflow t.coflows with
  | None -> Rejected { reason = Printf.sprintf "unknown coflow %d" coflow }
  | Some ms -> withdraw t ~cancelled:ms ~retired:[]

let on_advance t to_ =
  let tn = tiny (Float.max (Float.abs t.clock) (Float.abs to_)) in
  if to_ < t.clock -. tn then
    Rejected
      {
        reason =
          Printf.sprintf "clock cannot move backwards (%g < %g)" to_ t.clock;
      }
  else begin
    let retired =
      List.filter_map
        (fun (g : Flow.t) ->
          if g.deadline <= to_ +. tn then Some g.id else None)
        (active_flows t)
    in
    t.clock <- Float.max t.clock to_;
    match retired with
    | [] ->
      (* Nothing completed: the committed schedule stands unchanged. *)
      Committed
        {
          delta =
            delta
              ~horizon:(Option.map (fun (s : Schedule.t) -> s.horizon) t.schedule)
              ~added:[] ~removed:[];
          dropped = [];
          retired = [];
          violations = [];
          resolved_intervals = 0;
          reused_intervals = 0;
          energy = t.energy;
        }
    | _ -> withdraw t ~cancelled:[] ~retired
  end

(* SLO gauges refreshed after every event; guarded so a disabled
   registry costs one branch and no recomputation.  Energy comes off
   the outcome's detail — the commit path already paid for it, and the
   refresh must not add an O(schedule) walk per event.  A [Rejected]
   outcome leaves the committed state (and so the gauges) unchanged. *)
let refresh_gauges t outcome =
  if Dcn_obs.Registry.on () then begin
    let flows = active_flows t in
    Dcn_obs.Registry.set obs_active_flows (float_of_int (List.length flows));
    (match flows with
    | [] -> ()
    | fs ->
      Dcn_obs.Registry.set obs_min_slack
        (List.fold_left
           (fun acc (f : Flow.t) -> Float.min acc (f.deadline -. t.clock))
           infinity fs));
    (match outcome with
    | Committed d | Degraded d -> Dcn_obs.Registry.set obs_energy d.energy
    | Rejected _ -> ());
    (match active_coflows t with
    | [] -> ()
    | cs ->
      let collective_deadline ms =
        List.fold_left
          (fun acc id ->
            match find t id with
            | Some p -> Float.max acc p.flow.deadline
            | None -> acc)
          neg_infinity ms
      in
      Dcn_obs.Registry.set obs_coflow_min_slack
        (List.fold_left
           (fun acc (_, ms) ->
             Float.min acc (collective_deadline ms -. t.clock))
           infinity cs));
    match t.relaxation with
    | Some r -> Dcn_obs.Registry.set obs_energy_lb r.Relaxation.lb
    | None -> ()
  end

let apply t event =
  t.stats.events <- t.stats.events + 1;
  Dcn_obs.Registry.incr obs_events;
  let telemetry = Dcn_obs.Registry.on () in
  let t0 = if telemetry then Unix.gettimeofday () else 0. in
  let minor0 = if telemetry then Gc.minor_words () else 0. in
  let outcome =
    Trace.span
      ~fields:[ ("kind", Json.Str (Event.kind event)) ]
      "serve.event"
    @@ fun () ->
    try
      match event with
      | Event.Flow_arrival f -> on_arrival t f
      | Event.Flow_cancel { flow } -> on_cancel t flow
      | Event.Coflow_arrival { coflow; flows } ->
        on_coflow_arrival t ~coflow flows
      | Event.Coflow_cancel { coflow } -> on_coflow_cancel t coflow
      | Event.Advance_clock { clock } -> on_advance t clock
    with
    | Deadline.Expired -> raise Deadline.Expired
    | e -> Rejected { reason = Printexc.to_string e }
  in
  (match outcome with
  | Committed _ ->
    t.stats.committed <- t.stats.committed + 1;
    Dcn_obs.Registry.incr obs_committed
  | Degraded _ ->
    t.stats.degraded <- t.stats.degraded + 1;
    Dcn_obs.Registry.incr obs_degraded
  | Rejected _ ->
    t.stats.rejected <- t.stats.rejected + 1;
    Dcn_obs.Registry.incr obs_rejected);
  if telemetry then begin
    Dcn_obs.Registry.observe obs_apply_ms (1e3 *. (Unix.gettimeofday () -. t0));
    Dcn_obs.Registry.add obs_apply_minor_words (Gc.minor_words () -. minor0);
    refresh_gauges t outcome
  end;
  outcome

let report t =
  let s = t.stats in
  Json.Obj
    [
      ("clock", Json.float t.clock);
      ("policy", Json.Str (Repair.policy_to_string t.policy));
      ("flows", Json.Int (List.length (plans t)));
      ("energy", Json.float t.energy);
      ("events", Json.Int s.events);
      ("committed", Json.Int s.committed);
      ("degraded", Json.Int s.degraded);
      ("rejected", Json.Int s.rejected);
      ("admitted", Json.Int s.admitted);
      ("cancelled", Json.Int s.cancelled);
      ("retired", Json.Int s.retired);
      ("dropped", Json.Int s.dropped);
      ("resolved_intervals", Json.Int s.resolved_intervals);
      ("reused_intervals", Json.Int s.reused_intervals);
      ("certified_epochs", Json.Int s.certified_epochs);
      ("uncertified_epochs", Json.Int s.uncertified_epochs);
      ("coflows", Json.Int (Int_map.cardinal t.coflows));
      ("coflows_admitted", Json.Int s.coflows_admitted);
      ("coflows_rejected", Json.Int s.coflows_rejected);
      ("ok", Json.Bool (s.uncertified_epochs = 0));
    ]

(* ------------------------- snapshot / restore ---------------------- *)

(* The committed state as one JSON document, for durable-serving
   checkpoints.  Three requirements shape the encoding:

   - {b Bit-exactness.}  Floats are written at %.17g, so every float
     round-trips exactly; the PRNG state is carried as a decimal int64
     string.  [restore] therefore resumes the exact stream: subsequent
     events produce byte-identical outcomes to the uninterrupted
     session.

   - {b Minimality.}  Only state that is not a pure function of the
     rest is serialised.  The timeline is recomputed from the flows
     ([Instance.timeline]); the committed schedule is rebuilt from the
     flows and their paths ([Schedule.of_densities]); interval
     {e solutions} are stored verbatim because a cold re-solve would
     not reproduce the warm-started fractional paths the next
     [resolve] reuses.

   - {b Cost.}  The relaxation is most of the state: a few thousand
     weighted paths over a few hundred distinct link lists.  It is
     written straight into the output buffer, each distinct link list
     once in a path table (in order of first use) and each interval as
     one positional row that names its paths by table index:

     {v
       "relaxation":{"cost":C,"lb":L,"path_table":[[link,...],...],
         "intervals":[[index,lo,hi,cost,lb,max_overload,
                       [flow,path,weight,path,weight,...],...],...]}
     v}

     The small sections go through [Json.to_buffer] of their trees.

   A fingerprint of everything the session was created with guards
   [restore]: resuming under a different topology, power model, policy
   or solver configuration would silently diverge, so it is refused. *)

let snapshot_version = 2

let fingerprint t =
  Json.Obj
    [
      ("nodes", Json.Int (Graph.num_nodes t.graph));
      ("links", Json.Int (Graph.num_links t.graph));
      ("policy", Json.Str (Repair.policy_to_string t.policy));
      ("sigma", Json.float t.power.Model.sigma);
      ("mu", Json.float t.power.Model.mu);
      ("alpha", Json.float t.power.Model.alpha);
      ("cap", Json.float t.power.Model.cap);
      ("attempts", Json.Int Random_schedule.redraw_budget);
      ("certify", Json.Bool true);
      ("fw_max_iters", Json.Int Fw.resolve_config.max_iters);
      ("fw_gap_tol", Json.float Fw.resolve_config.gap_tol);
    ]

(* Ids and table indexes are small naturals; their digits go straight
   into the buffer. *)
let rec add_int b i =
  if i < 0 then Buffer.add_string b (string_of_int i)
  else begin
    if i >= 10 then add_int b (i / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))
  end

let add_float_field b x =
  Buffer.add_char b ',';
  Json.float_literal b x

let add_relaxation b (r : Relaxation.t) =
  let index = Hashtbl.create 1024 and table = ref [] in
  Array.iter
    (fun (s : Relaxation.interval_solution) ->
      List.iter
        (fun (_, wps) ->
          List.iter
            (fun (wp : Dcn_mcf.Decompose.weighted_path) ->
              if not (Hashtbl.mem index wp.links) then begin
                Hashtbl.add index wp.links (Hashtbl.length index);
                table := wp.links :: !table
              end)
            wps)
        s.flow_paths)
    r.intervals;
  Buffer.add_string b {|{"cost":|};
  Json.float_literal b r.cost;
  Buffer.add_string b {|,"lb":|};
  Json.float_literal b r.lb;
  Buffer.add_string b {|,"path_table":[|};
  List.iteri
    (fun k links ->
      Buffer.add_string b (if k = 0 then "[" else ",[");
      List.iteri
        (fun i l ->
          if i > 0 then Buffer.add_char b ',';
          add_int b l)
        links;
      Buffer.add_char b ']')
    (List.rev !table);
  Buffer.add_string b {|],"intervals":[|};
  Array.iteri
    (fun k (s : Relaxation.interval_solution) ->
      if k > 0 then Buffer.add_char b ',';
      let lo, hi = s.bounds in
      Buffer.add_char b '[';
      add_int b s.index;
      add_float_field b lo;
      add_float_field b hi;
      add_float_field b s.cost;
      add_float_field b s.lb;
      add_float_field b s.max_overload;
      List.iter
        (fun (flow, wps) ->
          Buffer.add_string b ",[";
          add_int b flow;
          List.iter
            (fun (wp : Dcn_mcf.Decompose.weighted_path) ->
              Buffer.add_char b ',';
              add_int b (Hashtbl.find index wp.links);
              add_float_field b wp.weight)
            wps;
          Buffer.add_char b ']')
        s.flow_paths;
      Buffer.add_char b ']')
    r.intervals;
  Buffer.add_string b "]}"

let snapshot t =
  let s = t.stats in
  let b = Buffer.create 65536 in
  Json.to_buffer b
    (Json.Obj
       [
         ("version", Json.Int snapshot_version);
         ("fingerprint", fingerprint t);
         ("clock", Json.float t.clock);
         ("rng", Json.Str (Int64.to_string (Prng.state t.rng)));
         ( "flows",
           Json.List
             (List.map
                (fun f -> Json.Obj (Event.flow_to_fields f))
                (active_flows t)) );
         ( "paths",
           Json.List
             (List.map
                (fun (p : Schedule.plan) ->
                  Json.Obj
                    [
                      ("flow", Json.Int p.flow.id);
                      ("links", Json.List (List.map (fun l -> Json.Int l) p.path));
                    ])
                (plans t)) );
         ( "coflows",
           Json.List
             (List.map
                (fun (cid, ms) ->
                  Json.Obj
                    [
                      ("coflow", Json.Int cid);
                      ("members", Json.List (List.map (fun m -> Json.Int m) ms));
                    ])
                (active_coflows t)) );
         ( "stats",
           Json.Obj
             [
               ("events", Json.Int s.events);
               ("committed", Json.Int s.committed);
               ("degraded", Json.Int s.degraded);
               ("rejected", Json.Int s.rejected);
               ("admitted", Json.Int s.admitted);
               ("cancelled", Json.Int s.cancelled);
               ("retired", Json.Int s.retired);
               ("dropped", Json.Int s.dropped);
               ("resolved_intervals", Json.Int s.resolved_intervals);
               ("reused_intervals", Json.Int s.reused_intervals);
               ("certified_epochs", Json.Int s.certified_epochs);
               ("uncertified_epochs", Json.Int s.uncertified_epochs);
               ("coflows_admitted", Json.Int s.coflows_admitted);
               ("coflows_rejected", Json.Int s.coflows_rejected);
             ] );
       ]);
  (* Reopen the object for the last field, written in place. *)
  Buffer.truncate b (Buffer.length b - 1);
  Buffer.add_string b {|,"relaxation":|};
  (match t.relaxation with
  | None -> Buffer.add_string b "null"
  | Some r -> add_relaxation b r);
  Buffer.add_char b '}';
  Buffer.contents b

(* Link ids index per-link arrays, unchecked in the re-solve kernel: a
   checkpoint naming a link the graph lacks is refused here. *)
let links_of_json ~num_links what j =
  List.map
    (fun l ->
      let l = Json.to_int l in
      if l < 0 || l >= num_links then
        failwith (Printf.sprintf "%s names link %d of %d" what l num_links);
      l)
    (Json.to_list j)

let relaxation_intervals_of_json ~num_links rj =
  let table =
    Array.of_list
      (List.map
         (links_of_json ~num_links "the relaxation path table")
         (Json.to_list (Json.get "path_table" rj)))
  in
  let path k =
    let p = Json.to_int k in
    if p < 0 || p >= Array.length table then
      failwith
        (Printf.sprintf "a relaxation interval names path %d of %d" p
           (Array.length table));
    table.(p)
  in
  let rec weighted = function
    | [] -> []
    | p :: w :: rest ->
      { Dcn_mcf.Decompose.links = path p; weight = Json.to_float w }
      :: weighted rest
    | [ _ ] -> failwith "a relaxation path has no weight"
  in
  let flow_paths j =
    match Json.to_list j with
    | flow :: wps -> (Json.to_int flow, weighted wps)
    | [] -> failwith "a relaxation flow row is empty"
  in
  List.map
    (fun row ->
      match Json.to_list row with
      | index :: lo :: hi :: cost :: lb :: max_overload :: fps ->
        {
          Relaxation.index = Json.to_int index;
          bounds = (Json.to_float lo, Json.to_float hi);
          cost = Json.to_float cost;
          lb = Json.to_float lb;
          max_overload = Json.to_float max_overload;
          flow_paths = List.map flow_paths fps;
        }
      | _ -> failwith "a relaxation interval row is short")
    (Json.to_list (Json.get "intervals" rj))

let check_fingerprint t j =
  let expected = fingerprint t in
  let actual = Json.get "fingerprint" j in
  List.iter
    (fun (name, want) ->
      let got = Json.get name actual in
      (* Compare serialized forms: a parsed snapshot reads [1] back as
         [Int] where the live fingerprint holds [Float 1.]. *)
      if Json.to_string got <> Json.to_string want then
        failwith
          (Printf.sprintf "fingerprint mismatch on %S: snapshot %s, session %s"
             name (Json.to_string got) (Json.to_string want)))
    (Json.to_obj expected)

let restore ?(pool = Pool.sequential) ~graph ~power ~policy json =
  match
    let version = Json.to_int (Json.get "version" json) in
    if version <> snapshot_version then
      failwith (Printf.sprintf "unsupported snapshot version %d" version);
    let t = create ~pool ~graph ~power ~policy ~seed:0 () in
    check_fingerprint t json;
    t.clock <- Json.to_float (Json.get "clock" json);
    (match Int64.of_string_opt (Json.to_str (Json.get "rng" json)) with
    | Some s -> Prng.set_state t.rng s
    | None -> failwith "rng state is not an int64");
    let flows =
      List.sort by_id
        (List.map
           (fun j ->
             match Event.flow_of_json j with
             | Ok f -> f
             | Error m -> failwith m)
           (Json.to_list (Json.get "flows" json)))
    in
    let num_links = Graph.num_links graph in
    let paths =
      List.map
        (fun p ->
          ( Json.to_int (Json.get "flow" p),
            links_of_json ~num_links "a committed path" (Json.get "links" p) ))
        (Json.to_list (Json.get "paths" json))
    in
    let coflows =
      List.map
        (fun c ->
          ( Json.to_int (Json.get "coflow" c),
            List.map Json.to_int (Json.to_list (Json.get "members" c)) ))
        (Json.to_list (Json.get "coflows" json))
    in
    let s = t.stats and sj = Json.get "stats" json in
    let stat name = Json.to_int (Json.get name sj) in
    s.events <- stat "events";
    s.committed <- stat "committed";
    s.degraded <- stat "degraded";
    s.rejected <- stat "rejected";
    s.admitted <- stat "admitted";
    s.cancelled <- stat "cancelled";
    s.retired <- stat "retired";
    s.dropped <- stat "dropped";
    s.resolved_intervals <- stat "resolved_intervals";
    s.reused_intervals <- stat "reused_intervals";
    s.certified_epochs <- stat "certified_epochs";
    s.uncertified_epochs <- stat "uncertified_epochs";
    s.coflows_admitted <- stat "coflows_admitted";
    s.coflows_rejected <- stat "coflows_rejected";
    (* Flows committed => exactly one path committed for each, coflow
       membership over live flows only, and a relaxation to warm the
       next re-solve; a drained session has none of them. *)
    let flow_ids = List.map (fun (f : Flow.t) -> f.id) flows in
    if List.sort compare (List.map fst paths) <> flow_ids then
      failwith "committed paths do not match the committed flows one to one";
    let rec ascending = function
      | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
      | _ -> true
    in
    if not (ascending coflows) then
      failwith "coflow ids are not unique and ascending";
    let members = List.concat_map snd coflows in
    List.iter
      (fun (cid, ms) ->
        if ms = [] then
          failwith (Printf.sprintf "coflow %d has no members" cid);
        List.iter
          (fun m ->
            if not (List.mem m flow_ids) then
              failwith
                (Printf.sprintf "coflow %d: member %d is not a committed flow"
                   cid m))
          ms)
      coflows;
    if List.length (List.sort_uniq compare members) <> List.length members then
      failwith "a flow belongs to more than one coflow";
    List.iter
      (fun (cid, ms) ->
        t.coflows <- Int_map.add cid ms t.coflows;
        List.iter (fun m -> t.coflow_of <- Int_map.add m cid t.coflow_of) ms)
      coflows;
    (match (flows, Json.get "relaxation" json) with
    | [], Json.Null -> ()
    | [], _ -> failwith "snapshot has a relaxation but no flows"
    | _ :: _, Json.Null -> failwith "snapshot has flows but no relaxation"
    | flows, rj -> (
      match Instance.make_result ~graph ~power ~flows with
      | Error e -> failwith (Instance.error_to_string e)
      | Ok inst ->
        let intervals = Array.of_list (relaxation_intervals_of_json ~num_links rj) in
        let timeline = Instance.timeline inst in
        (* The next re-solve indexes the committed intervals by the
           timeline recomputed from the flows; floats round-trip
           exactly, so the match is exact. *)
        let matches k (s : Relaxation.interval_solution) =
          s.index = k && s.bounds = Timeline.bounds timeline k
        in
        if
          Array.length intervals <> Timeline.num_intervals timeline
          || not (Array.for_all Fun.id (Array.mapi matches intervals))
        then failwith "relaxation intervals do not match the committed timeline";
        t.relaxation <-
          Some
            {
              Relaxation.timeline;
              intervals;
              cost = Json.to_float (Json.get "cost" rj);
              lb = Json.to_float (Json.get "lb" rj);
            };
        let sched =
          Schedule.of_densities ~graph ~power
            ~horizon:(Instance.horizon inst)
            (List.map (fun (f : Flow.t) -> (f, List.assoc f.id paths)) flows)
        in
        t.schedule <- Some sched;
        Certify.update t.certificate inst ~added:sched.Schedule.plans ~removed:[];
        t.energy <-
          Link_state.energy (Certify.links t.certificate) ~horizon:sched.Schedule.horizon));
    t
  with
  | t -> Ok t
  | exception Failure m -> Error m
  | exception Invalid_argument m -> Error m
