module Graph = Dcn_topology.Graph
module Paths = Dcn_topology.Paths
module Flow = Dcn_flow.Flow

type result = {
  energy : float;
  routing : (int * Graph.link list) list;
  best : Solution.t;
  combinations : int;
}

let search ?(max_hops = 8) ?(max_combinations = 50_000) inst =
  Dcn_engine.Trace.span "exact.search"
    ~fields:[ ("flows", Dcn_engine.Json.Int (Instance.num_flows inst)) ]
  @@ fun () ->
  let g = inst.Instance.graph in
  let flows = Instance.flow_array inst in
  let choices =
    Array.map
      (fun (f : Flow.t) ->
        let ps =
          Paths.all_simple_paths ~max_hops ~limit:max_combinations g ~src:f.src
            ~dst:f.dst
        in
        if ps = [] then
          invalid_arg
            (Printf.sprintf "Exact.search: flow %d has no path within %d hops" f.id
               max_hops);
        Array.of_list ps)
      flows
  in
  let total =
    Array.fold_left
      (fun acc ps ->
        let acc = acc * Array.length ps in
        if acc > max_combinations then
          invalid_arg
            (Printf.sprintf "Exact.search: more than %d routing combinations"
               max_combinations)
        else acc)
      1 choices
  in
  let n = Array.length flows in
  let current = Array.make n 0 in
  let best = ref None in
  let explored = ref 0 in
  let rec enumerate i =
    if i = n then begin
      (* One watchdog poll per routing combination: the exhaustive
         search is the stage most likely to blow a wall-clock budget. *)
      Dcn_engine.Deadline.check ();
      incr explored;
      let routing id =
        (* flows are sorted by id; binary search is overkill here *)
        let rec find k =
          if flows.(k).Flow.id = id then choices.(k).(current.(k))
          else find (k + 1)
        in
        find 0
      in
      let res = Most_critical_first.solve_routed ~algorithm:"exact" inst ~routing in
      match !best with
      | Some (e, _, _) when e <= res.Solution.energy -> ()
      | _ ->
        if Dcn_engine.Trace.on () then
          Dcn_engine.Trace.event "exact.incumbent"
            ~fields:
              [
                ("combination", Dcn_engine.Json.Int !explored);
                ("energy", Dcn_engine.Json.float res.Solution.energy);
              ];
        best := Some (res.Solution.energy, Array.copy current, res)
    end
    else
      for c = 0 to Array.length choices.(i) - 1 do
        current.(i) <- c;
        enumerate (i + 1)
      done
  in
  (* Certify only the winner, not all [max_combinations] candidates. *)
  Selfcheck.without (fun () -> enumerate 0);
  ignore total;
  Dcn_engine.Trace.counter "exact.combinations" (float_of_int !explored);
  match !best with
  | None -> assert false
  | Some (energy, pick, best_res) ->
    Selfcheck.solution inst best_res;
    {
      energy;
      routing =
        Array.to_list
          (Array.mapi
             (fun i (f : Flow.t) -> (f.id, choices.(i).(pick.(i))))
             flows);
      best = best_res;
      combinations = !explored;
    }
