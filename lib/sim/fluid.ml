module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Model = Dcn_power.Model
module Schedule = Dcn_sched.Schedule

type flow_stat = {
  flow_id : int;
  delivered : float;
  completion : float option;
  met_deadline : bool;
}

type link_stat = {
  link : Graph.link;
  busy_time : float;
  volume : float;
  peak_rate : float;
  dynamic_energy : float;
}

type report = {
  energy : float;
  idle_energy : float;
  dynamic_energy : float;
  flow_stats : flow_stat list;
  link_stats : link_stat list;
  all_deadlines_met : bool;
  max_rate : float;
  capacity_respected : bool;
  events : int;
}

module Sweep = Dcn_util.Sweep

let run (sched : Schedule.t) =
  let power = sched.power in
  let plans = Array.of_list sched.plans in
  let n = Array.length plans in
  let m = Graph.num_links sched.graph in
  let paths = Array.map (fun (p : Schedule.plan) -> Array.of_list p.path) plans in
  (* Every slot in (plan, slot) order: owner, start, stop, rate. *)
  let ns =
    Array.fold_left (fun acc (p : Schedule.plan) -> acc + List.length p.slots) 0 plans
  in
  let owner = Array.make ns 0 in
  let start = Array.make ns 0. and stop = Array.make ns 0. and rate = Array.make ns 0. in
  let j = ref 0 in
  Array.iteri
    (fun i (p : Schedule.plan) ->
      List.iter
        (fun (s : Schedule.slot) ->
          owner.(!j) <- i;
          start.(!j) <- s.start;
          stop.(!j) <- s.stop;
          rate.(!j) <- s.rate;
          incr j)
        p.slots)
    plans;
  (* Event times: every slot boundary. *)
  let times =
    let all = Array.append start stop in
    Array.sub all 0 (Sweep.sort_distinct all ~pos:0 ~len:(2 * ns))
  in
  let delivered = Array.make n 0. in
  let completion = Array.make n None in
  let busy_time = Array.make m 0. in
  let volume = Array.make m 0. in
  let peak = Array.make m 0. in
  let dyn = Array.make m 0. in
  let rates = Array.make m 0. in
  let events = max 0 (Array.length times - 1) in
  (* A slot is active on segment [k] = [t_k, t_(k+1)] when it covers it
     up to 1e-12 at both ends.  Both tests are monotone in [k], so the
     segments a slot covers are one range. *)
  let first = Array.make ns events and last = Array.make ns (-1) in
  for j = 0 to ns - 1 do
    if rate.(j) > 0. then begin
      first.(j) <-
        Sweep.first_true ~lo:0 ~hi:events (fun k -> start.(j) <= times.(k) +. 1e-12);
      last.(j) <-
        Sweep.first_true ~lo:0 ~hi:events (fun k ->
            not (stop.(j) >= times.(k + 1) -. 1e-12))
        - 1
    end
  done;
  let touched = Array.make m 0 and n_touched = ref 0 in
  let stamp = Array.make m (-1) in
  (* A link's rate repeats over the many segments its own traffic does
     not change; the power of the last rate is kept per link rather
     than recomputed (the same rate gives the same bits). *)
  let last_rate = Array.make m (-1.) and last_power = Array.make m 0. in
  let first_segment = ref true in
  (* Plan [i] completes at the end of segment [k] once its volume is
     through. *)
  let check_completion i k =
    let p = plans.(i) in
    if
      completion.(i) = None
      && delivered.(i) >= p.flow.Flow.volume -. (1e-9 *. Float.max 1. p.flow.Flow.volume)
    then completion.(i) <- Some times.(k + 1)
  in
  (* Active slots come in (plan, slot) order, so every sum adds in the
     order of a scan over all plans. *)
  Sweep.iter_active ~segments:events ~first ~last (fun k active n_active ->
      let t0 = times.(k) and t1 = times.(k + 1) in
      let len = t1 -. t0 in
      if len > 0. then begin
        n_touched := 0;
        for a = 0 to n_active - 1 do
          let j = active.(a) in
          let i = owner.(j) in
          delivered.(i) <- delivered.(i) +. (rate.(j) *. len);
          let path = paths.(i) in
          for h = 0 to Array.length path - 1 do
            let l = path.(h) in
            if stamp.(l) <> k then begin
              stamp.(l) <- k;
              rates.(l) <- 0.;
              touched.(!n_touched) <- l;
              incr n_touched
            end;
            rates.(l) <- rates.(l) +. rate.(j)
          done
        done;
        (* Only an active plan's delivery moved; the first segment checks
           every plan once. *)
        if !first_segment then begin
          first_segment := false;
          for i = 0 to n - 1 do
            check_completion i k
          done
        end
        else
          for a = 0 to n_active - 1 do
            check_completion owner.(active.(a)) k
          done;
        for x = 0 to !n_touched - 1 do
          let l = touched.(x) in
          if rates.(l) > 0. then begin
            busy_time.(l) <- busy_time.(l) +. len;
            volume.(l) <- volume.(l) +. (rates.(l) *. len);
            if rates.(l) > peak.(l) then peak.(l) <- rates.(l);
            if rates.(l) <> last_rate.(l) then begin
              last_rate.(l) <- rates.(l);
              last_power.(l) <- Model.dynamic power rates.(l)
            end;
            dyn.(l) <- dyn.(l) +. (last_power.(l) *. len)
          end
        done
      end);
  let flow_stats =
    Array.to_list
      (Array.mapi
         (fun i (p : Schedule.plan) ->
           let f = p.flow in
           let ok =
             match completion.(i) with
             | Some t -> t <= f.Flow.deadline +. 1e-6
             | None -> false
           in
           {
             flow_id = f.Flow.id;
             delivered = delivered.(i);
             completion = completion.(i);
             met_deadline = ok;
           })
         plans)
    |> List.sort (fun a b -> compare a.flow_id b.flow_id)
  in
  let link_stats =
    List.init m Fun.id
    |> List.filter_map (fun l ->
           if busy_time.(l) > 0. then
             Some
               {
                 link = l;
                 busy_time = busy_time.(l);
                 volume = volume.(l);
                 peak_rate = peak.(l);
                 dynamic_energy = dyn.(l);
               }
           else None)
  in
  let t0, t1 = sched.horizon in
  let idle_energy =
    float_of_int (List.length link_stats) *. power.Model.sigma *. (t1 -. t0)
  in
  let dynamic_energy = Array.fold_left ( +. ) 0. dyn in
  let max_rate = Array.fold_left Float.max 0. peak in
  {
    energy = idle_energy +. dynamic_energy;
    idle_energy;
    dynamic_energy;
    flow_stats;
    link_stats;
    all_deadlines_met = List.for_all (fun fs -> fs.met_deadline) flow_stats;
    max_rate;
    capacity_respected = max_rate <= power.Model.cap *. (1. +. 1e-6);
    events;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "energy=%.4f (idle %.4f + dynamic %.4f), %d active links, max rate %.4f, deadlines %s, %d events"
    r.energy r.idle_energy r.dynamic_energy (List.length r.link_stats) r.max_rate
    (if r.all_deadlines_met then "met" else "MISSED")
    r.events
