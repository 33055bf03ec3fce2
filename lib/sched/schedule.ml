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

let of_densities ~graph ~power ~horizon routed =
  make ~graph ~power ~horizon
    (List.map
       (fun ((f : Flow.t), path) ->
         {
           flow = f;
           path;
           slots =
             [ { start = f.release; stop = f.deadline; rate = Flow.density f } ];
         })
       routed)

let find_plan t id = List.find_opt (fun p -> p.flow.Flow.id = id) t.plans

let profiles t =
  (* Slots carried by each link, link l's at [offset.(l)] onwards in
     three flat arrays; a profile sorts its own slots, so their order
     within a link does not matter. *)
  let m = Graph.num_links t.graph in
  let offset = Array.make (m + 1) 0 in
  List.iter
    (fun p ->
      let k = List.length p.slots in
      List.iter (fun l -> offset.(l + 1) <- offset.(l + 1) + k) p.path)
    t.plans;
  for l = 1 to m do
    offset.(l) <- offset.(l) + offset.(l - 1)
  done;
  let start = Array.make offset.(m) 0. and stop = Array.make offset.(m) 0. in
  let rate = Array.make offset.(m) 0. in
  let fill = Array.sub offset 0 m in
  List.iter
    (fun p ->
      List.iter
        (fun l ->
          List.iter
            (fun s ->
              let x = fill.(l) in
              start.(x) <- s.start;
              stop.(x) <- s.stop;
              rate.(x) <- s.rate;
              fill.(l) <- x + 1)
            p.slots)
        p.path)
    t.plans;
  let acc = ref [] in
  for l = m - 1 downto 0 do
    let len = offset.(l + 1) - offset.(l) in
    if len > 0 then begin
      let profile = Profile.of_slot_arrays ~start ~stop ~rate ~pos:offset.(l) ~len in
      if not (Profile.is_idle profile) then acc := (l, profile) :: !acc
    end
  done;
  Array.of_list !acc

let active_links t = Array.to_list (Array.map fst (profiles t))

let idle_of t ps =
  let t0, t1 = t.horizon in
  float_of_int (Array.length ps) *. t.power.Model.sigma *. (t1 -. t0)

let dynamic_of t ps =
  Array.fold_left (fun acc (_, p) -> acc +. Profile.dynamic_energy t.power p) 0. ps

let idle_energy t = idle_of t (profiles t)
let dynamic_energy t = dynamic_of t (profiles t)

let energy t =
  let ps = profiles t in
  idle_of t ps +. dynamic_of t ps

let max_link_rate t =
  Array.fold_left (fun acc (_, p) -> Float.max acc (Profile.max_rate p)) 0. (profiles t)

type verdict = { overload : float; within_cap : bool }

let capacity_verdict t =
  let cap = t.power.Model.cap in
  let overload =
    if Float.is_finite cap then max_link_rate t -. cap else neg_infinity
  in
  { overload; within_cap = overload <= 1e-6 *. Float.max 1. cap }
