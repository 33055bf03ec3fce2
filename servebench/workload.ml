(* The three traffic mixes and their seeded event generator.

   A generator is a pure function of the seed and of the outcomes it has
   been told about, so the event sequence a run delivers is fixed by the
   seed (a closed loop only decides how long a prefix of it gets sent).
   Flow windows and volumes come from [Workload.paper_random], coflows
   from [Coflow.shuffle_trace]; both are drawn on a private horizon
   starting at 0 and shifted to the live session clock plus a uniform
   lead, which spreads the committed set over time so that each event
   re-solves a few timeline intervals, not all of them. *)

module Prng = Dcn_util.Prng
module Json = Dcn_engine.Json
module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Event = Dcn_serve.Event

type loop =
  | Open of { rate : float; burst : int }
      (** [rate] events per second, sent pipelined in bursts of [burst]
          back-to-back events at the times of a Poisson process with
          dead time *)
  | Closed  (** one client waiting for each reply *)

type step =
  | Arrive  (** one flow *)
  | Group  (** one coflow *)
  | Cancel  (** withdraw a committed flow that is not a coflow member *)
  | Advance  (** move the clock *)

type t = {
  name : string;
  why : string;
  cap : float;  (** link capacity; infinity = unbounded *)
  policy : Dcn_resilience.Repair.policy;
  loop : loop;
  band : int * int;  (** committed flows the timed phase must stay within *)
  target : int;  (** committed flows [hold] keeps *)
  hold : bool;
      (** force arrivals below [target] and departures above
          [target + 10] *)
  warm_events : int;
      (** events of the warm phase: a fixed count, so set-up does the
          same amount of work for every seed *)
  segments : int;
      (** independent set-ups the timed phase is split over; more where
          set-up is cheap *)
  mix : step array;
      (** event kinds, taken in turn: every run sees the same proportions,
          only the flows differ *)
  horizon : float;  (** length of the private horizon flows are drawn on *)
  lead : float;  (** each draw is shifted to a uniform [0, lead) past the clock *)
  coflow_span : float;  (** mean coflow span ([Coflow.shuffle_trace]) *)
  tick : float;  (** clock step of one advance; 0 = to the next deadline *)
  energy_stride : int;  (** timed events between energy_over_lb samples *)
  trace_events : int;  (** timed events the traced run is capped at *)
}

let tick_light =
  {
    name = "tick-light";
    why =
      "open loop, bursts of clock ticks over ~6 committed flows: solver \
       work nearly vanishes, so transport, WAL, parse and encode carry the \
       reply time";
    cap = infinity;
    policy = Dcn_resilience.Repair.Drop_latest_deadline;
    loop = Open { rate = 1000.; burst = 64 };
    band = (0, 24);
    target = 6;
    hold = false;
    warm_events = 1000;
    segments = 16;
    mix = Array.init 100 (fun i -> if i = 0 then Arrive else Advance);
    horizon = 2.;
    lead = 20.;
    coflow_span = 4.;
    tick = 0.02;
    energy_stride = 250;
    trace_events = 3000;
  }

let steady_100 =
  {
    name = "steady-100";
    why =
      "closed loop holding ~100 committed flows: the relaxation and \
       Frank-Wolfe re-solve is most of every reply";
    cap = infinity;
    policy = Dcn_resilience.Repair.Drop_latest_deadline;
    loop = Closed;
    band = (90, 110);
    target = 100;
    hold = true;
    warm_events = 100;
    segments = 6;
    mix = [| Arrive; Cancel; Arrive; Cancel; Arrive; Cancel; Arrive; Advance |];
    horizon = 10.;
    lead = 140.;
    coflow_span = 4.;
    tick = 0.;
    energy_stride = 40;
    trace_events = 40;
  }

let coflow_shed =
  {
    name = "coflow-shed";
    why =
      "closed loop at cap 4 mixing coflows with single arrivals: group \
       admission, shed rounds with several re-solves, infeasible draws";
    cap = 4.;
    policy = Dcn_resilience.Repair.Drop_latest_deadline;
    loop = Closed;
    band = (0, 60);
    target = 12;
    hold = false;
    warm_events = 200;
    segments = 6;
    mix = [| Group; Arrive; Advance |];
    horizon = 15.;
    lead = 15.;
    coflow_span = 10.;
    tick = 0.;
    energy_stride = 40;
    trace_events = 150;
  }

let all = [ tick_light; steady_100; coflow_shed ]
let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)

type gen = {
  spec : t;
  graph : Graph.t;
  rng : Prng.t;
  mutable clock : float;
  mutable next_flow : int;
  mutable next_coflow : int;
  mutable step : int;  (** position in [spec.mix] *)
  live : (int, float) Hashtbl.t;  (** committed flow id -> deadline *)
  members : (int, unit) Hashtbl.t;  (** committed flows that belong to a coflow *)
}

let create spec ~graph ~seed =
  {
    spec;
    graph;
    rng = Prng.create seed;
    clock = 0.;
    next_flow = 1;
    next_coflow = 1;
    step = 0;
    live = Hashtbl.create 256;
    members = Hashtbl.create 64;
  }

let committed g = Hashtbl.length g.live

(* A draw's time origin: a uniform lead past the clock. *)
let shift g = g.clock +. Prng.float g.rng g.spec.lead

let fresh_flow g ~at ~release ~deadline ~src ~dst ~volume =
  let id = g.next_flow in
  g.next_flow <- id + 1;
  Flow.make ~id ~src ~dst ~volume ~release:(at +. release)
    ~deadline:(at +. deadline)

let arrival g =
  let spec =
    { Dcn_flow.Workload.default_spec with horizon = (0., g.spec.horizon) }
  in
  match Dcn_flow.Workload.paper_random ~spec ~rng:g.rng ~graph:g.graph ~n:1 () with
  | [ f ] ->
    Event.Flow_arrival
      (fresh_flow g ~at:(shift g) ~release:f.release ~deadline:f.deadline ~src:f.src
         ~dst:f.dst ~volume:f.volume)
  | _ -> assert false

let coflow g =
  match
    Dcn_coflow.Coflow.shuffle_trace ~mean_span:g.spec.coflow_span ~rng:g.rng
      ~graph:g.graph ~jobs:1 ~horizon:(0., g.spec.horizon) ()
  with
  | [ c ] ->
    let at = shift g in
    let flows =
      List.map
        (fun (f : Flow.t) ->
          fresh_flow g ~at ~release:f.release ~deadline:f.deadline ~src:f.src
            ~dst:f.dst ~volume:f.volume)
        c.Dcn_coflow.Coflow.flows
    in
    let id = g.next_coflow in
    g.next_coflow <- id + 1;
    Event.Coflow_arrival { coflow = id; flows }
  | _ -> assert false

(* Committed flows a plain cancel may withdraw (coflow members refuse
   it), in id order so the pick is deterministic. *)
let cancellable g =
  Hashtbl.fold
    (fun id _ acc -> if Hashtbl.mem g.members id then acc else id :: acc)
    g.live []
  |> List.sort compare |> Array.of_list

(* A clock advance either ticks by a fixed step (most ticks retire
   nothing, so nothing is re-solved) or jumps to the earliest committed
   deadline, so that it retires a flow. *)
let advance g =
  let next =
    if g.spec.tick > 0. then g.clock +. g.spec.tick
    else Hashtbl.fold (fun _ d acc -> Float.min acc d) g.live infinity
  in
  let next = if Float.is_finite next then next else g.clock +. 1. in
  g.clock <- Float.max g.clock next;
  Event.Advance_clock { clock = g.clock }

let next g =
  let spec = g.spec in
  let n = committed g in
  let step =
    if spec.hold && n < spec.target then Arrive
    else if spec.hold && n > spec.target + 10 then Cancel
    else begin
      let s = spec.mix.(g.step mod Array.length spec.mix) in
      g.step <- g.step + 1;
      s
    end
  in
  match step with
  | Arrive -> arrival g
  | Group -> coflow g
  | Advance -> advance g
  | Cancel ->
    let c = cancellable g in
    if Array.length c = 0 then advance g
    else Event.Flow_cancel { flow = Prng.pick g.rng c }

(* Fold one reply into the committed-set view, so the warm phase knows
   when it is done and a closed loop never cancels a flow that is gone
   (the open loop's timed stream does not depend on outcomes): admitted
   flows enter; dropped, retired and cancelled ones leave. *)
let observe g event reply =
  let ints key =
    match Json.member key reply with
    | Some (Json.List l) -> List.map Json.to_int l
    | _ -> []
  in
  match Json.member "outcome" reply with
  | Some (Json.Str ("committed" | "degraded")) ->
    (match event with
    | Event.Flow_arrival f -> Hashtbl.replace g.live f.id f.deadline
    | Event.Coflow_arrival { flows; _ } ->
      List.iter
        (fun (f : Flow.t) ->
          Hashtbl.replace g.live f.id f.deadline;
          Hashtbl.replace g.members f.id ())
        flows
    | Event.Flow_cancel { flow } -> Hashtbl.remove g.live flow
    | Event.Coflow_cancel _ | Event.Advance_clock _ -> ());
    List.iter
      (fun id ->
        Hashtbl.remove g.live id;
        Hashtbl.remove g.members id)
      (ints "dropped" @ ints "retired")
  | _ -> ()

(* Tiny sizes for the smoke test: a handful of committed flows, a short
   warm phase, a slow open loop. *)
let smoke w =
  {
    w with
    loop =
      (match w.loop with
      | Open o -> Open { o with rate = 200. }
      | Closed -> Closed);
    band = (0, 1000);
    target = min w.target 6;
    warm_events = 20;
    segments = 2;
    energy_stride = 4;
    trace_events = 8;
  }
