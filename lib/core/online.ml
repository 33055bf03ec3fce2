module Graph = Dcn_topology.Graph
module Paths = Dcn_topology.Paths
module Flow = Dcn_flow.Flow
module Timeline = Dcn_flow.Timeline
module Model = Dcn_power.Model
module Schedule = Dcn_sched.Schedule

let solve inst =
  Dcn_engine.Trace.span "online.solve"
    ~fields:[ ("flows", Dcn_engine.Json.Int (Instance.num_flows inst)) ]
  @@ fun () ->
  let g = inst.Instance.graph in
  let power = inst.Instance.power in
  let cap = power.Model.cap in
  let tl = Instance.timeline inst in
  let k = Timeline.num_intervals tl in
  let m = Graph.num_links g in
  let loads = Array.make_matrix m k 0. in
  let ordered =
    List.sort
      (fun (f1 : Flow.t) f2 -> compare (f1.release, f1.id) (f2.Flow.release, f2.Flow.id))
      inst.Instance.flows
  in
  let accepted = ref [] and rejected = ref [] in
  let routed = ref [] in
  List.iter
    (fun (f : Flow.t) ->
      (* One watchdog poll per arrival. *)
      Dcn_engine.Deadline.check ();
      let d = Flow.density f in
      let my_intervals = Timeline.interval_indices_of tl f in
      (* A link is admissible if the flow's density fits under the cap
         throughout the span. *)
      let banned e =
        List.exists (fun j -> loads.(e).(j) +. d > cap *. (1. +. 1e-9)) my_intervals
      in
      let weight e =
        List.fold_left
          (fun acc j ->
            let x = loads.(e).(j) in
            acc
            +. (Timeline.length tl j
               *. (Model.total power (x +. d) -. Model.total power x)))
          0. my_intervals
      in
      let tree = Paths.shortest_tree ~weight ~banned_links:banned g ~src:f.src in
      match Paths.extract_path g tree ~dst:f.dst with
      | None ->
        if Dcn_engine.Trace.on () then
          Dcn_engine.Trace.event "online.reject"
            ~fields:[ ("flow", Dcn_engine.Json.Int f.id) ];
        rejected := f.id :: !rejected
      | Some path ->
        if Dcn_engine.Trace.on () then
          Dcn_engine.Trace.event "online.admit"
            ~fields:
              [
                ("flow", Dcn_engine.Json.Int f.id);
                ("hops", Dcn_engine.Json.Int (List.length path));
              ];
        accepted := f.id :: !accepted;
        List.iter
          (fun e -> List.iter (fun j -> loads.(e).(j) <- loads.(e).(j) +. d) my_intervals)
          path;
        routed := (f, path) :: !routed)
    ordered;
  let routed = List.rev !routed in
  let schedule =
    Schedule.of_densities ~graph:g ~power ~horizon:(Instance.horizon inst) routed
  in
  Selfcheck.schedule ~label:"online" ~partial:true inst schedule;
  let rejected = List.sort compare !rejected in
  {
    Solution.algorithm = "online";
    energy = Schedule.energy schedule;
    (* Capacity holds by construction; feasibility means nothing was
       turned away. *)
    feasible = rejected = [];
    schedule;
    per_flow_rates =
      List.map (fun ((f : Flow.t), _) -> (f.id, Flow.density f)) routed;
    meta =
      Solution.Routed
        {
          paths = List.map (fun ((f : Flow.t), path) -> (f.id, path)) routed;
          accepted = List.sort compare !accepted;
          rejected;
        };
  }
