module Json = Dcn_engine.Json
module Deadline = Dcn_engine.Deadline
module Trace = Dcn_engine.Trace
module Prng = Dcn_util.Prng
module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Model = Dcn_power.Model
module Instance = Dcn_core.Instance
module Solution = Dcn_core.Solution
module Random_schedule = Dcn_core.Random_schedule
module Schedule = Dcn_sched.Schedule
module Certify = Dcn_check.Certify

type policy = Drop_latest_deadline | Drop_largest_residual | Reject_new

let policy_to_string = function
  | Drop_latest_deadline -> "drop-latest-deadline"
  | Drop_largest_residual -> "drop-largest-residual"
  | Reject_new -> "reject-new"

let policy_of_string = function
  | "drop-latest-deadline" -> Some Drop_latest_deadline
  | "drop-largest-residual" -> Some Drop_largest_residual
  | "reject-new" -> Some Reject_new
  | _ -> None

type shed_policy = Shed_newest | Shed_oldest

let shed_policy_to_string = function
  | Shed_newest -> "shed-newest"
  | Shed_oldest -> "shed-oldest"

let shed_policy_of_string = function
  | "shed-newest" -> Some Shed_newest
  | "shed-oldest" -> Some Shed_oldest
  | _ -> None

type detail = {
  residual : Instance.t option;
  solution : Solution.t option;
  salvaged : float;
  dropped : Flow.t list;
  violations : Certify.violation list;
}

type outcome =
  | Repaired of detail
  | Degraded of detail
  | Irreparable of { reason : string; salvaged : float }

let outcome_kind = function
  | Repaired _ -> "repaired"
  | Degraded _ -> "degraded"
  | Irreparable _ -> "irreparable"

let pp_outcome ppf = function
  | Repaired d ->
    Format.fprintf ppf "repaired: %d residual flow(s), %g salvaged"
      (match d.residual with None -> 0 | Some i -> Instance.num_flows i)
      d.salvaged
  | Degraded d ->
    Format.fprintf ppf "degraded: dropped %s, %g salvaged"
      (String.concat ","
         (List.map (fun (f : Flow.t) -> string_of_int f.id) d.dropped))
      d.salvaged
  | Irreparable { reason; salvaged } ->
    Format.fprintf ppf "irreparable: %s (%g salvaged)" reason salvaged

let detail_to_json d =
  Json.Obj
    [
      ("salvaged", Json.float d.salvaged);
      ( "dropped",
        Json.List (List.map (fun (f : Flow.t) -> Json.Int f.id) d.dropped) );
      ( "residual_flows",
        Json.Int (match d.residual with None -> 0 | Some i -> Instance.num_flows i) );
      ( "energy",
        match d.solution with
        | None -> Json.Null
        | Some s -> Json.float s.Solution.energy );
      ("certified", Json.Bool (d.violations = []));
      ("violations", Json.List (List.map Certify.violation_to_json d.violations));
    ]

let outcome_to_json o =
  match o with
  | Repaired d | Degraded d ->
    Json.Obj (("outcome", Json.Str (outcome_kind o)) :: (match detail_to_json d with Json.Obj fs -> fs | _ -> []))
  | Irreparable { reason; salvaged } ->
    Json.Obj
      [
        ("outcome", Json.Str "irreparable");
        ("reason", Json.Str reason);
        ("salvaged", Json.float salvaged);
      ]

(* The relative slack below which a residual counts as delivered. *)
let volume_eps = 1e-6

(* Volume a plan delivers strictly before [t]. *)
let delivered_before (plan : Schedule.plan) t =
  List.fold_left
    (fun acc (s : Schedule.slot) ->
      let len = Float.min s.stop t -. s.start in
      if len > 0. then acc +. (s.rate *. len) else acc)
    0. plan.Schedule.slots

(* Directed reachability on the surviving graph (the builders pair
   links, but a repair must not assume the fault left them paired). *)
let reaches graph ~src ~dst =
  let n = Graph.num_nodes graph in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.add src queue;
  let found = ref (src = dst) in
  while (not !found) && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun l ->
        let w = Graph.link_dst graph l in
        if not seen.(w) then begin
          seen.(w) <- true;
          if w = dst then found := true;
          Queue.add w queue
        end)
      (Graph.out_links graph v)
  done;
  !found

(* The post-fault fabric.  The power model carries one capacity for all
   links, so a degradation anywhere clamps fabric-wide: the base is the
   model's cap when finite, else the committed schedule's peak rate
   (an infinite-cap model gives a degradation nothing to bite on). *)
let post_fault_fabric inst ~committed ~event =
  let graph = inst.Instance.graph in
  let power = inst.Instance.power in
  match event with
  | Fault.Cable_cut { cables; _ } ->
    (Graph.remove_cables graph ~cables, power)
  | Fault.Degradation { factor; _ } ->
    let base =
      if Float.is_finite power.Model.cap then power.Model.cap
      else Schedule.max_link_rate committed
    in
    let power =
      if base <= 0. then power
      else
        Model.make ~sigma:power.Model.sigma ~mu:power.Model.mu
          ~alpha:power.Model.alpha ~cap:(factor *. base) ()
    in
    (graph, power)
  | Fault.Burst _ -> (graph, power)

let by_id (a : Flow.t) (b : Flow.t) = compare a.id b.id

(* The admission policy's next casualty among [flows]; [is_new] marks
   burst arrivals.  [None] means the policy refuses to shed further. *)
let casualty policy ~is_new flows =
  let last cmp = function
    | [] -> None
    | f :: fs -> Some (List.fold_left (fun a b -> if cmp a b >= 0 then a else b) f fs)
  in
  let latest_deadline (a : Flow.t) (b : Flow.t) =
    compare (a.deadline, a.id) (b.deadline, b.id)
  in
  let largest_volume (a : Flow.t) (b : Flow.t) =
    compare (a.volume, a.id) (b.volume, b.id)
  in
  match policy with
  | Drop_latest_deadline -> last latest_deadline flows
  | Drop_largest_residual -> last largest_volume flows
  | Reject_new -> last latest_deadline (List.filter (fun (f : Flow.t) -> is_new f.id) flows)

let next_casualty = casualty

(* Live telemetry: one increment per repair, labelled by outcome.
   ([Deadline.Expired] escapes are not outcomes and stay uncounted.) *)
let obs_outcome =
  let mk outcome =
    Dcn_obs.Registry.counter ~help:"schedule repair outcomes"
      ~labels:[ ("outcome", outcome) ] "repair.outcomes"
  in
  let repaired = mk "repaired" in
  let degraded = mk "degraded" in
  let irreparable = mk "irreparable" in
  fun r ->
    Dcn_obs.Registry.incr
      (match r with
      | Repaired _ -> repaired
      | Degraded _ -> degraded
      | Irreparable _ -> irreparable);
    r

let repair ~policy ~rng ~committed ~event inst =
  obs_outcome
  @@ Trace.span
    ~fields:[ ("event", Json.Str (Fault.kind event)) ]
    "resilience.repair"
  @@ fun () ->
  let t = Fault.at event in
  let _, t1 = Instance.horizon inst in
  let tiny = 1e-9 *. Float.max 1. (Float.abs t1) in
  (* Salvage: per pre-fault flow, what the committed schedule already
     delivered; flows with nothing left drop out of the residual. *)
  let salvaged = ref 0. in
  let residual_old =
    List.filter_map
      (fun (f : Flow.t) ->
        let done_ =
          match Schedule.find_plan committed f.id with
          | None -> 0.
          | Some plan -> Float.min f.volume (delivered_before plan t)
        in
        salvaged := !salvaged +. done_;
        let rem = f.volume -. done_ in
        if rem <= volume_eps *. f.volume then None
        else
          Some
            (Flow.make ~id:f.id ~src:f.src ~dst:f.dst ~volume:rem
               ~release:(Float.max f.release t) ~deadline:f.deadline))
      inst.Instance.flows
  in
  let salvaged = !salvaged in
  try
    let graph, power = post_fault_fabric inst ~committed ~event in
    let burst =
      match event with Fault.Burst { flows; _ } -> flows | _ -> []
    in
    let new_ids =
      List.fold_left
        (fun acc (f : Flow.t) -> f.id :: acc)
        [] burst
    in
    let is_new id = List.mem id new_ids in
    let admitted, rejected_new =
      match policy with
      | Reject_new -> (residual_old, burst)
      | _ -> (residual_old @ burst, [])
    in
    (* Forced drops: a flow whose window closed at the cut, or whose
       endpoints the surviving fabric no longer connects, cannot be
       served by any re-plan.  [Reject_new] treats a forced drop of a
       pre-fault flow as irreparable — the policy's promise is exactly
       that old flows are never shed. *)
    let serviceable (f : Flow.t) =
      f.deadline -. Float.max f.release t > tiny
      && reaches graph ~src:f.src ~dst:f.dst
    in
    let viable, forced = List.partition serviceable admitted in
    (match (policy, List.filter (fun (f : Flow.t) -> not (is_new f.id)) forced) with
    | Reject_new, (f : Flow.t) :: _ ->
      raise
        (Failure
           (Printf.sprintf "flow %d cannot be served on the degraded fabric" f.id))
    | _ -> ());
    let solve flows =
      match Instance.make_result ~graph ~power ~flows with
      | Error e -> Error (Instance.error_to_string e)
      | Ok residual -> (
        match
          Random_schedule.solve
            ~config:
              {
                Random_schedule.attempts = Random_schedule.redraw_budget;
                fw_config = Dcn_mcf.Frank_wolfe.resolve_config;
              }
            ~rng:(Prng.split rng) residual
        with
        | sol when sol.Solution.feasible -> Ok (residual, sol)
        | _ -> Error "no feasible draw within the redraw budget"
        | exception Deadline.Expired -> raise Deadline.Expired
        | exception e -> Error (Printexc.to_string e))
    in
    (* Graceful degradation: shed one flow per round until a feasible
       re-plan exists or the policy refuses. *)
    let rec admit flows dropped =
      match flows with
      | [] ->
        let dropped = List.sort by_id dropped in
        if dropped = [] then
          Repaired
            { residual = None; solution = None; salvaged; dropped; violations = [] }
        else
          Degraded
            { residual = None; solution = None; salvaged; dropped; violations = [] }
      | _ -> (
        match solve flows with
        | Ok (residual, sol) ->
          let violations = Certify.solution residual sol in
          let detail =
            {
              residual = Some residual;
              solution = Some sol;
              salvaged;
              dropped = List.sort by_id dropped;
              violations;
            }
          in
          if dropped = [] then Repaired detail else Degraded detail
        | Error reason -> (
          match casualty policy ~is_new flows with
          | None -> Irreparable { reason; salvaged }
          | Some victim ->
            Trace.event
              ~fields:[ ("flow", Json.Int victim.Flow.id) ]
              "resilience.drop";
            admit
              (List.filter (fun (f : Flow.t) -> f.id <> victim.Flow.id) flows)
              (victim :: dropped)))
    in
    admit viable (forced @ rejected_new)
  with
  | Deadline.Expired -> raise Deadline.Expired
  | e -> Irreparable { reason = Printexc.to_string e; salvaged }
