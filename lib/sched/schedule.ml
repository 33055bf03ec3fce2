module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Model = Dcn_power.Model

type slot = { start : float; stop : float; rate : float }

type plan = { flow : Flow.t; path : Graph.link list; slots : slot list }

type t = {
  graph : Graph.t;
  power : Model.t;
  horizon : float * float;
  plans : plan list;
}

let delivered plan =
  List.fold_left (fun acc s -> acc +. ((s.stop -. s.start) *. s.rate)) 0. plan.slots

let make ~graph ~power ~horizon plans =
  let t0, t1 = horizon in
  if t1 < t0 then invalid_arg "Schedule.make: bad horizon";
  let ids = List.map (fun p -> p.flow.Flow.id) plans in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Schedule.make: duplicate flow ids";
  List.iter
    (fun p ->
      if not (Graph.is_path graph ~src:p.flow.Flow.src ~dst:p.flow.Flow.dst p.path) then
        invalid_arg
          (Printf.sprintf "Schedule.make: plan of flow %d has an invalid path"
             p.flow.Flow.id);
      if p.path = [] then invalid_arg "Schedule.make: empty path";
      List.iter
        (fun s ->
          if s.stop < s.start || s.rate < 0. then
            invalid_arg
              (Printf.sprintf "Schedule.make: malformed slot for flow %d" p.flow.Flow.id))
        p.slots)
    plans;
  { graph; power; horizon; plans }

let density_plan (f : Flow.t) path =
  { flow = f; path; slots = [ { start = f.release; stop = f.deadline; rate = Flow.density f } ] }

let of_densities ~graph ~power ~horizon routed =
  make ~graph ~power ~horizon (List.map (fun (f, path) -> density_plan f path) routed)

let find_plan t id = List.find_opt (fun p -> p.flow.Flow.id = id) t.plans

let entry ~rank p =
  let n = List.length p.slots in
  let start = Array.make n 0. and stop = Array.make n 0. and rate = Array.make n 0. in
  List.iteri
    (fun k s ->
      start.(k) <- s.start;
      stop.(k) <- s.stop;
      rate.(k) <- s.rate)
    p.slots;
  Link_state.entry ~rank ~flow:p.flow.Flow.id ~path:p.path ~start ~stop ~rate

(* The per-link state of every plan, ranked by position: every energy,
   profile and capacity function below reads one. *)
let link_state t =
  let st = Link_state.create ~links:(Graph.num_links t.graph) t.power in
  List.iteri (fun rank p -> Link_state.add st (entry ~rank p)) t.plans;
  st

let profiles t = Link_state.profiles (link_state t)
let active_links t = Array.to_list (Array.map fst (profiles t))
let idle_energy t = Link_state.idle_energy (link_state t) ~horizon:t.horizon
let dynamic_energy t = Link_state.dynamic_energy (link_state t)
let energy t = Link_state.energy (link_state t) ~horizon:t.horizon
let max_link_rate t = Link_state.max_rate (link_state t)

type verdict = Link_state.verdict = { overload : float; within_cap : bool }

let capacity_verdict t = Link_state.verdict (link_state t)
