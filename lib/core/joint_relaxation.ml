module Graph = Dcn_topology.Graph
module Paths = Dcn_topology.Paths
module Flow = Dcn_flow.Flow
module Timeline = Dcn_flow.Timeline
module Model = Dcn_power.Model

type t = {
  cost : float;
  lb : float;
  gap : float;
  iterations : int;
}

let solve ?(max_iters = 60) ?(gap_tol = 1e-3) inst =
  let g = inst.Instance.graph in
  let power = inst.Instance.power in
  let tl = Instance.timeline inst in
  let nk = Timeline.num_intervals tl in
  let m = Graph.num_links g in
  let flows = Instance.flow_array inst in
  let span_intervals =
    Array.map (fun f -> Array.of_list (Timeline.interval_indices_of tl f)) flows
  in
  let len = Array.init nk (Timeline.length tl) in
  (* Aggregate volume per (interval, link); per-flow detail is not
     needed for the bound, which keeps memory linear in K * m. *)
  let agg = Array.make_matrix nk m 0. in
  let env = Model.envelope power and env' = Model.envelope_deriv power in
  let objective a =
    let acc = ref 0. in
    for k = 0 to nk - 1 do
      for e = 0 to m - 1 do
        if a.(k).(e) > 0. then acc := !acc +. (len.(k) *. env (a.(k).(e) /. len.(k)))
      done
    done;
    !acc
  in
  (* Init: every flow spreads at its density on a hop-shortest path. *)
  Array.iteri
    (fun i (f : Flow.t) ->
      match Paths.shortest_path g ~src:f.src ~dst:f.dst with
      | None -> invalid_arg (Printf.sprintf "Joint_relaxation: flow %d disconnected" f.id)
      | Some p ->
        Array.iter
          (fun k ->
            let v = Flow.density f *. len.(k) in
            List.iter (fun e -> agg.(k).(e) <- agg.(k).(e) +. v) p)
          span_intervals.(i))
    flows;
  (* Aggregate volumes of the all-or-nothing point: per flow, the whole
     volume goes to the cheapest (interval, path) pair. *)
  let aon_agg = Array.make_matrix nk m 0. in
  let final_gap = ref infinity in
  let iterations = ref 0 in
  (try
     for iter = 1 to max_iters do
       iterations := iter;
       Array.iteri
         (fun k row ->
           Array.iteri (fun e _ -> aon_agg.(k).(e) <- 0.) row)
         aon_agg;
       (* Marginal cost of one unit of volume on link e in interval k is
          env'(rate); memoise per interval to share across flows. *)
       let weights =
         Array.init nk (fun k ->
             lazy (Array.init m (fun e -> env' (agg.(k).(e) /. len.(k)))))
       in
       let tree_cache = Hashtbl.create 64 in
       let tree_of k src =
         match Hashtbl.find_opt tree_cache (k, src) with
         | Some t -> t
         | None ->
           let w = Lazy.force weights.(k) in
           let t = Paths.shortest_tree ~weight:(fun e -> w.(e) +. 1e-12) g ~src in
           Hashtbl.add tree_cache (k, src) t;
           t
       in
       Array.iteri
         (fun i (f : Flow.t) ->
           let best = ref None in
           Array.iter
             (fun k ->
               let w = Lazy.force weights.(k) in
               let tree = tree_of k f.src in
               match Paths.extract_path g tree ~dst:f.dst with
               | None -> assert false
               | Some p ->
                 let c = List.fold_left (fun acc e -> acc +. w.(e)) 0. p in
                 (match !best with
                 | Some (bc, _, _) when bc <= c -> ()
                 | _ -> best := Some (c, k, p)))
             span_intervals.(i);
           match !best with
           | None -> assert false (* spans are non-empty *)
           | Some (_, k, p) ->
             List.iter (fun e -> aon_agg.(k).(e) <- aon_agg.(k).(e) +. f.volume) p)
         flows;
       (* Duality gap in volume space. *)
       let gap = ref 0. in
       for k = 0 to nk - 1 do
         let w = Lazy.force weights.(k) in
         for e = 0 to m - 1 do
           gap := !gap +. (w.(e) *. (agg.(k).(e) -. aon_agg.(k).(e)))
         done
       done;
       final_gap := Float.max 0. !gap;
       let here = objective agg in
       if !final_gap <= gap_tol *. Float.max 1e-12 here then raise Exit;
       let blend theta =
         let acc = ref 0. in
         for k = 0 to nk - 1 do
           for e = 0 to m - 1 do
             let v = ((1. -. theta) *. agg.(k).(e)) +. (theta *. aon_agg.(k).(e)) in
             if v > 0. then acc := !acc +. (len.(k) *. env (v /. len.(k)))
           done
         done;
         !acc
       in
       (* Exact line search on the cells the step moves; the volume
          derivative of [len * env (v / len)] is [env' (v / len)]. *)
       let deriv theta =
         let acc = ref 0. in
         for k = 0 to nk - 1 do
           for e = 0 to m - 1 do
             let a = agg.(k).(e) and s = aon_agg.(k).(e) in
             if a <> s then begin
               let v = ((1. -. theta) *. a) +. (theta *. s) in
               acc := !acc +. ((s -. a) *. env' (v /. len.(k)))
             end
           done
         done;
         !acc
       in
       let theta = Dcn_mcf.Frank_wolfe.exact_step deriv in
       let theta = if blend theta < here then theta else 0. in
       if theta <= 1e-12 then raise Exit;
       for k = 0 to nk - 1 do
         for e = 0 to m - 1 do
           agg.(k).(e) <- ((1. -. theta) *. agg.(k).(e)) +. (theta *. aon_agg.(k).(e))
         done
       done
     done
   with Exit -> ());
  let cost = objective agg in
  { cost; lb = Float.max 0. (cost -. !final_gap); gap = !final_gap; iterations = !iterations }
