module Graph = Dcn_topology.Graph
module Paths = Dcn_topology.Paths
module Flow = Dcn_flow.Flow
module Timeline = Dcn_flow.Timeline
module Model = Dcn_power.Model
module Schedule = Dcn_sched.Schedule

let name = "greedy-ear"

let solve inst =
  Dcn_engine.Trace.span "greedy_ear.solve"
    ~fields:[ ("flows", Dcn_engine.Json.Int (Instance.num_flows inst)) ]
  @@ fun () ->
  let g = inst.Instance.graph in
  let power = inst.Instance.power in
  let tl = Instance.timeline inst in
  let k = Timeline.num_intervals tl in
  let m = Graph.num_links g in
  (* loads.(e).(j): density already committed to link e in interval j. *)
  let loads = Array.make_matrix m k 0. in
  (* Release order makes the algorithm online-implementable. *)
  let ordered =
    List.sort
      (fun (f1 : Flow.t) f2 -> compare (f1.release, f1.id) (f2.Flow.release, f2.Flow.id))
      inst.Instance.flows
  in
  let chosen = Hashtbl.create 16 in
  List.iter
    (fun (f : Flow.t) ->
      (* One watchdog poll per routed flow. *)
      Dcn_engine.Deadline.check ();
      let d = Flow.density f in
      let my_intervals = Timeline.interval_indices_of tl f in
      (* Marginal energy of adding density d to link e across the flow's
         intervals, with f evaluated through the real fixed-charge power
         function (so switching on a cold link pays sigma). *)
      let weight e =
        List.fold_left
          (fun acc j ->
            let x = loads.(e).(j) in
            acc
            +. (Timeline.length tl j
               *. (Model.total power (x +. d) -. Model.total power x)))
          0. my_intervals
      in
      let tree = Paths.shortest_tree ~weight g ~src:f.src in
      match Paths.extract_path g tree ~dst:f.dst with
      | None ->
        invalid_arg (Printf.sprintf "Greedy_ear.solve: flow %d disconnected" f.id)
      | Some path ->
        if Dcn_engine.Trace.on () then
          Dcn_engine.Trace.event "greedy_ear.route"
            ~fields:
              [
                ("flow", Dcn_engine.Json.Int f.id);
                ("hops", Dcn_engine.Json.Int (List.length path));
              ];
        Hashtbl.replace chosen f.id path;
        List.iter
          (fun e -> List.iter (fun j -> loads.(e).(j) <- loads.(e).(j) +. d) my_intervals)
          path)
    ordered;
  let routed =
    List.map (fun (f : Flow.t) -> (f, Hashtbl.find chosen f.id)) inst.Instance.flows
  in
  let schedule =
    Schedule.of_densities ~graph:g ~power ~horizon:(Instance.horizon inst) routed
  in
  Selfcheck.schedule ~label:"greedy-ear" ~partial:false inst schedule;
  let paths = List.map (fun ((f : Flow.t), path) -> (f.id, path)) routed in
  (* The greedy admits every flow; it may overshoot link capacity where
     a capacity-aware solver would have spread the load. *)
  {
    Solution.algorithm = name;
    energy = Schedule.energy schedule;
    feasible = (Schedule.capacity_verdict schedule).within_cap;
    schedule;
    per_flow_rates =
      List.map (fun (f : Flow.t) -> (f.id, Flow.density f)) inst.Instance.flows;
    meta =
      Solution.Routed
        {
          paths;
          accepted = List.sort compare (List.map fst paths);
          rejected = [];
        };
  }
