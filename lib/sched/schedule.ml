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

(* Slots carried by each link, as (start, stop, rate, flow id). *)
let link_slot_table t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun l ->
          let prev = try Hashtbl.find tbl l with Not_found -> [] in
          let entries =
            List.map (fun s -> (s.start, s.stop, s.rate, p.flow.Flow.id)) p.slots
          in
          Hashtbl.replace tbl l (entries @ prev))
        p.path)
    t.plans;
  tbl

let link_profile t link =
  let slots =
    List.concat_map
      (fun p ->
        if List.mem link p.path then
          List.map (fun s -> (s.start, s.stop, s.rate)) p.slots
        else [])
      t.plans
  in
  Profile.of_slots slots

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

module Check = struct
  type violation =
    | Wrong_volume of { flow : int; delivered : float; expected : float }
    | Slot_outside_span of { flow : int; start : float; stop : float }
    | Over_capacity of { link : int; rate : float; cap : float }
    | Link_conflict of { link : int; at : float }

  let pp_violation ppf = function
    | Wrong_volume { flow; delivered; expected } ->
      Format.fprintf ppf "flow %d delivered %g of %g" flow delivered expected
    | Slot_outside_span { flow; start; stop } ->
      Format.fprintf ppf "flow %d transmits in [%g,%g] outside its span" flow start stop
    | Over_capacity { link; rate; cap } ->
      Format.fprintf ppf "link %d at rate %g above capacity %g" link rate cap
    | Link_conflict { link; at } ->
      Format.fprintf ppf "two flows share link %d at time %g" link at

  let deadlines ?(eps = 1e-6) t =
    List.concat_map
      (fun p ->
        let w = p.flow.Flow.volume in
        let got = delivered p in
        let volume_ok = Float.abs (got -. w) <= eps *. Float.max 1. w in
        let bad_slots =
          List.filter_map
            (fun s ->
              if
                s.start < p.flow.Flow.release -. eps
                || s.stop > p.flow.Flow.deadline +. eps
              then
                Some (Slot_outside_span { flow = p.flow.Flow.id; start = s.start; stop = s.stop })
              else None)
            p.slots
        in
        let volume_violation =
          if volume_ok then []
          else [ Wrong_volume { flow = p.flow.Flow.id; delivered = got; expected = w } ]
        in
        volume_violation @ bad_slots)
      t.plans

  let capacity ?(eps = 1e-6) t =
    let cap = t.power.Model.cap in
    Array.to_list (profiles t)
    |> List.filter_map (fun (l, p) ->
           let r = Profile.max_rate p in
           if r > cap +. (eps *. Float.max 1. cap) then
             Some (Over_capacity { link = l; rate = r; cap })
           else None)

  let exclusive ?(eps = 1e-6) t =
    let tbl = link_slot_table t in
    let conflicts = ref [] in
    Hashtbl.iter
      (fun l entries ->
        let sorted = List.sort compare entries in
        (* Sweep against the furthest-reaching slot seen so far; any
           overlapping different-flow pair produces at least one hit. *)
        let rec scan prev_stop prev_flow = function
          | [] -> ()
          | (a, b, _, f) :: rest ->
            if f <> prev_flow && a < prev_stop -. eps then
              conflicts := Link_conflict { link = l; at = a } :: !conflicts;
            if b > prev_stop then scan b f rest else scan prev_stop prev_flow rest
        in
        (match sorted with
        | [] -> ()
        | (_, b, _, f) :: rest -> scan b f rest))
      tbl;
    !conflicts

  let all ?eps ~exclusive:want_exclusive t =
    deadlines ?eps t @ capacity ?eps t
    @ if want_exclusive then exclusive ?eps t else []

  let is_feasible ?eps ~exclusive t = all ?eps ~exclusive t = []
end
