module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Iset = Dcn_util.Interval_set
module Model = Dcn_power.Model
module Schedule = Dcn_sched.Schedule
module Trace = Dcn_engine.Trace
module Json = Dcn_engine.Json

type group = Solution.mcf_group = {
  link : Graph.link;
  window : float * float;
  intensity : float;
  flow_ids : int list;
}

let eps = 1e-9

(* Rate assignment runs the critical-interval iteration on program
   (P1), in the YDS time-debit formulation: per link, a scheduled flow j with rate s_j
   owes w_j / s_j units of time inside its span, and the availability of
   a window [a, b] is its length minus the debts of the scheduled flows
   whose spans lie inside it — precisely the left-hand side of (P1)'s
   interval constraints.  Windows range over the release times and
   deadlines of ALL flows on the link (scheduled and pending), which is
   what makes the per-link process equal to classic YDS; cross-link
   coupling enters only through the shared rates (the same [s_i] is
   debited on every link of the path), exactly as in (P1).  The greedy
   is not exact on coupled routes: it gives a critical group one common
   rate, where (P1)'s optimum may split it.  On line:4 seed 1236 (test
   core/most_critical_first) its energy 130.94 is 2.3% above a feasible
   virtual-circuit schedule's 127.97; against a converged numeric (P1)
   optimum it was 2.1-2.9% above on 12 of 6000 seeded instances.

   Constructing concrete transmission slots (the virtual-circuit
   realisation) is a separate best-effort phase afterwards; under heavy
   congestion a consistent placement may not exist — (P1) is "the lower
   bound of the energy consumption by SP routing" in the paper's own
   words — and the result is then flagged via [placement_complete]. *)
let solve_routed ?(algorithm = "mcf") inst ~routing =
  Dcn_obs.Stage.time "core.mcf" @@ fun () ->
  Trace.span "mcf.solve"
    ~fields:
      [
        ("algorithm", Json.Str algorithm);
        ("flows", Json.Int (Instance.num_flows inst));
      ]
  @@ fun () ->
  let g = inst.Instance.graph in
  let power = inst.Instance.power in
  let alpha = power.Model.alpha in
  let flows = Instance.flow_array inst in
  let n = Array.length flows in
  let paths =
    Array.map
      (fun (f : Flow.t) ->
        let p = routing f.id in
        if not (Graph.is_path g ~src:f.src ~dst:f.dst p) then
          invalid_arg
            (Printf.sprintf "Most_critical_first.solve_routed: bad route for flow %d" f.id);
        Array.of_list p)
      flows
  in
  let hops = Array.map Array.length paths in
  let vweight =
    Array.mapi
      (fun i (f : Flow.t) -> f.volume *. (float_of_int hops.(i) ** (1. /. alpha)))
      flows
  in
  let pending = Array.make n true in
  let pending_count = ref n in
  let rate = Array.make n 0. in
  let flows_on_link = Array.make (Graph.num_links g) [] in
  Array.iteri
    (fun i path ->
      Array.iter (fun l -> flows_on_link.(l) <- i :: flows_on_link.(l)) path)
    paths;
  let used_links =
    List.filter
      (fun l -> flows_on_link.(l) <> [])
      (List.init (Graph.num_links g) Fun.id)
  in
  let spans_window i a b =
    flows.(i).Flow.release >= a -. eps && flows.(i).Flow.deadline <= b +. eps
  in
  (* Availability of [a, b] on link e: length minus the time debts of
     scheduled flows living inside the window. *)
  let avail e a b =
    List.fold_left
      (fun acc i ->
        if (not pending.(i)) && spans_window i a b then
          acc -. (flows.(i).Flow.volume /. rate.(i))
        else acc)
      (b -. a) flows_on_link.(e)
  in
  let groups = ref [] in
  let order = ref [] in
  (* selection order of flows, for placement *)
  while !pending_count > 0 do
    let best = ref None in
    List.iter
      (fun e ->
        let members_all = List.filter (fun i -> pending.(i)) flows_on_link.(e) in
        if members_all <> [] then begin
          (* Window endpoints come from every flow on the link,
             scheduled or pending (the YDS-equivalence requirement). *)
          let releases =
            List.sort_uniq compare
              (List.map (fun i -> flows.(i).Flow.release) flows_on_link.(e))
          in
          let deadlines =
            List.sort_uniq compare
              (List.map (fun i -> flows.(i).Flow.deadline) flows_on_link.(e))
          in
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  if b > a then begin
                    let members = List.filter (fun i -> spans_window i a b) members_all in
                    if members <> [] then begin
                      let vw =
                        List.fold_left (fun acc i -> acc +. vweight.(i)) 0. members
                      in
                      (* In exact arithmetic availability stays positive
                         whenever a pending member exists; the epsilon
                         floor only guards float drift. *)
                      let av = Float.max 1e-12 (avail e a b) in
                      let intensity = vw /. av in
                      match !best with
                      | Some (bi, _, _, _, _) when bi >= intensity -> ()
                      | _ -> best := Some (intensity, e, a, b, members)
                    end
                  end)
                deadlines)
            releases
        end)
      used_links;
    match !best with
    | None -> assert false (* a pending flow's own span is always a window *)
    | Some (intensity, e, a, b, members) ->
      let member_ids =
        List.sort compare (List.map (fun i -> flows.(i).Flow.id) members)
      in
      (* One record per critical-group selection — the iteration
         structure of Algorithm 1. *)
      if Trace.on () then
        Trace.event "mcf.group"
          ~fields:
            [
              ("link", Json.Int e);
              ("window_lo", Json.float a);
              ("window_hi", Json.float b);
              ("intensity", Json.float intensity);
              ("members", Json.Int (List.length member_ids));
              ("flow_ids", Json.List (List.map (fun id -> Json.Int id) member_ids));
            ];
      groups := { link = e; window = (a, b); intensity; flow_ids = member_ids } :: !groups;
      (* Rates per Theorem 1: s_i = delta / |P_i|^(1/alpha); members in
         EDF order for the placement phase. *)
      let members_edf =
        List.sort
          (fun i j ->
            compare (flows.(i).Flow.deadline, flows.(i).Flow.id)
              (flows.(j).Flow.deadline, flows.(j).Flow.id))
          members
      in
      List.iter
        (fun i ->
          rate.(i) <- intensity /. (float_of_int hops.(i) ** (1. /. alpha));
          pending.(i) <- false;
          order := i :: !order;
          decr pending_count)
        members_edf
  done;
  let order = List.rev !order in
  (* Best-effort virtual-circuit placement: flows in selection order,
     greedy earliest-fit into time free on every link of the path. *)
  let busy = Array.make (Graph.num_links g) Iset.empty in
  let slots_of_flow = Array.make n [] in
  let placement_complete = ref true in
  List.iter
    (fun i ->
      let f = flows.(i) in
      let needed = f.Flow.volume /. rate.(i) in
      let blocked =
        Array.fold_left
          (fun acc l -> Iset.add_all acc (Iset.intervals busy.(l)))
          Iset.empty paths.(i)
      in
      let free = Iset.free_within blocked ~lo:f.Flow.release ~hi:f.Flow.deadline in
      let remaining = ref needed in
      let my_slots = ref [] in
      List.iter
        (fun (lo, hi) ->
          if !remaining > eps && hi > lo then begin
            let take = Float.min (hi -. lo) !remaining in
            my_slots := { Schedule.start = lo; stop = lo +. take; rate = rate.(i) } :: !my_slots;
            remaining := !remaining -. take
          end)
        free;
      if !remaining > 1e-6 *. Float.max 1. needed then placement_complete := false;
      let my_slots = List.rev !my_slots in
      slots_of_flow.(i) <- my_slots;
      Array.iter
        (fun l ->
          busy.(l) <-
            List.fold_left
              (fun acc (s : Schedule.slot) -> Iset.add acc ~lo:s.start ~hi:s.stop)
              busy.(l) my_slots)
        paths.(i))
    order;
  if Trace.on () then
    Trace.event "mcf.placement"
      ~fields:
        [
          ("complete", Json.Bool !placement_complete);
          ("groups", Json.Int (List.length !groups));
        ];
  let t0, t1 = Instance.horizon inst in
  let plans =
    Array.to_list
      (Array.mapi
         (fun i (f : Flow.t) ->
           { Schedule.flow = f; path = Array.to_list paths.(i); slots = slots_of_flow.(i) })
         flows)
  in
  let schedule = Schedule.make ~graph:g ~power ~horizon:(t0, t1) plans in
  (* Eq. (5) with the analytic per-flow rates — the (P1) objective. *)
  let dynamic = ref 0. in
  Array.iteri
    (fun i (f : Flow.t) ->
      dynamic :=
        !dynamic
        +. (float_of_int hops.(i) *. f.volume *. power.Model.mu
           *. (rate.(i) ** (alpha -. 1.))))
    flows;
  let idle =
    float_of_int (List.length used_links) *. power.Model.sigma *. (t1 -. t0)
  in
  let rates =
    Array.to_list (Array.mapi (fun i (f : Flow.t) -> (f.id, rate.(i))) flows)
  in
  let sol =
    {
      Solution.algorithm;
      energy = idle +. !dynamic;
      feasible = !placement_complete;
      schedule;
      per_flow_rates = rates;
      meta =
        Solution.Mcf
          {
            Solution.groups = List.rev !groups;
            placement_complete = !placement_complete;
          };
    }
  in
  Selfcheck.solution inst sol;
  sol

let find_rate = Solution.find_rate
