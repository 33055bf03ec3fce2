module Graph = Dcn_topology.Graph
module Paths = Dcn_topology.Paths
module Trace = Dcn_engine.Trace
module Json = Dcn_engine.Json
module Ba = Bigarray

type problem = {
  graph : Graph.t;
  commodities : Commodity.t array;
  cost : float -> float;
  cost_deriv : float -> float;
  capacity : float;
}

type engine = Kernel | Reference

type config = {
  max_iters : int;
  gap_tol : float;
  penalty : float;
  engine : engine;
}

let default_config = { max_iters = 200; gap_tol = 1e-4; penalty = 1e3; engine = Kernel }

type piecewise = {
  threshold : float;
  slope : float;
  sigma : float;
  mu : float;
  alpha : float;
}

type solution = {
  flows : float array array;
  loads : float array;
  cost : float;
  gap : float;
  iterations : int;
  max_overload : float;
}

(* Line-search stop rules: the relative derivative tolerance, the
   narrowest bracket, and the derivative-evaluation cap. *)
let step_tol = 1e-12
let max_step_evals = 64

(* Exact line search for a convex function on [0, 1], given its
   derivative: Illinois regula falsi on the sign change of [deriv].
   No descent at 0 gives 0; no sign change by 1 gives the full step. *)
let exact_step deriv =
  let d0 = deriv 0. in
  if not (d0 < 0.) then 0.
  else
    let d1 = deriv 1. in
    if d1 <= 0. then 1.
    else begin
      let tol = step_tol *. Float.abs d0 in
      let lo = ref 0. and hi = ref 1. and flo = ref d0 and fhi = ref d1 in
      let t = ref 0. and side = ref 0 and evals = ref 2 and go = ref true in
      while !go do
        t := !lo +. (!flo /. (!flo -. !fhi) *. (!hi -. !lo));
        let ft = deriv !t in
        incr evals;
        if Float.abs ft <= tol then go := false
        else begin
          if ft < 0. then begin
            lo := !t;
            flo := ft;
            if !side < 0 then fhi := !fhi /. 2.;
            side := -1
          end
          else begin
            hi := !t;
            fhi := ft;
            if !side > 0 then flo := !flo /. 2.;
            side := 1
          end;
          if !hi -. !lo <= step_tol || !evals >= max_step_evals then go := false
        end
      done;
      !t
    end

(* A load's overload past the capacity, 0 within it or without one.
   Both engines build the capacity penalty [penalty * overload^2] and
   its derivative [2 penalty * overload] from it; for a finite
   penalty >= 0 a within-capacity term is +0, which leaves the sums it
   is added to bit-for-bit unchanged. *)
let[@inline] overload ~cap x =
  if cap = infinity then 0.
  else
    let over = x -. cap in
    if over > 0. then over else 0.

(* The kernel's penalised cost pc and its derivative pc' at load [x]:
   the expression trees of Model.envelope(_deriv) plus the penalty,
   over the piecewise spec's hoisted constants.  Closed and inlined
   (non-flambda OCaml inlines only closed functions), so the kernel's
   loops neither call closures nor box floats. *)
let[@inline] kernel_pc ~r ~slope ~sigma ~mu ~alpha ~cap ~penalty x =
  let c =
    if x = 0. then 0.
    else if r = 0. then mu *. (x ** alpha)
    else if x <= r then x *. slope
    else sigma +. (mu *. (x ** alpha))
  in
  let o = overload ~cap x in
  c +. (penalty *. o *. o)

let[@inline] kernel_pc_deriv ~r ~slope ~am ~alpha1 ~cap ~pen2 x =
  let d =
    if r = 0. then am *. (x ** alpha1)
    else if x <= r then slope
    else am *. (x ** alpha1)
  in
  d +. (pen2 *. overload ~cap x)

(* Per-engine iteration counters for live telemetry; one-branch no-ops
   while the registry is disabled, and incremented unconditionally (the
   trace event below stays gated on an installed trace). *)
let obs_iters_reference =
  Dcn_obs.Registry.counter ~help:"Frank-Wolfe iterations"
    ~labels:[ ("engine", "reference") ] "fw.iterations"

let obs_iters_kernel =
  Dcn_obs.Registry.counter ~help:"Frank-Wolfe iterations"
    ~labels:[ ("engine", "kernel") ] "fw.iterations"

(* One record per Frank–Wolfe iteration: the duality gap, the objective
   it was measured at, and the accepted line-search step (0 on the
   terminating iteration); counters for the iteration and the line
   search's derivative evaluations.  One branch when no trace is
   installed. *)
let trace_iter obs iter gap objective step evals =
  Dcn_obs.Registry.incr obs;
  if Trace.on () then begin
    Trace.event "fw.iter"
      ~fields:
        [
          ("iter", Json.Int iter);
          ("gap", Json.float gap);
          ("objective", Json.float objective);
          ("step", Json.float step);
        ];
    Trace.counter "fw.iters" 1.;
    Trace.counter "fw.ls_evals" (float_of_int evals)
  end

(* The epilogue both engines share: the penalty-free cost through the
   caller's closure, the worst overload, and the [fw.done] record. *)
let finish (problem : problem) ~flows ~loads ~gap ~iterations =
  let cost = Array.fold_left (fun acc x -> acc +. problem.cost x) 0. loads in
  let max_overload =
    if problem.capacity = infinity then neg_infinity
    else
      Array.fold_left
        (fun acc x -> Float.max acc (x -. problem.capacity))
        neg_infinity loads
  in
  if Trace.on () then
    Trace.event "fw.done"
      ~fields:
        [
          ("iterations", Json.Int iterations);
          ("gap", Json.float gap);
          ("cost", Json.float cost);
          ("max_overload", Json.float max_overload);
        ];
  { flows; loads; cost; gap; iterations; max_overload }

(* ------------------------------------------------------------------ *)
(* Reference path: boxed graph walks and per-call allocations.  Kept
   as the semantic ground truth; the kernel path below replays
   exactly these float operations, and Dcn_check.Oracle plus the
   @check-kernel alias assert bit-identical agreement. *)

let reference_impl ~config ~warm_start problem =
  let g = problem.graph in
  let m = Graph.num_links g in
  let commodities = problem.commodities in
  let nc = Array.length commodities in
  Trace.span "fw.solve"
    ~fields:[ ("commodities", Json.Int nc); ("links", Json.Int m) ]
  @@ fun () ->
  let pen x =
    let o = overload ~cap:problem.capacity x in
    config.penalty *. o *. o
  in
  let pen_deriv x = 2. *. config.penalty *. overload ~cap:problem.capacity x in
  let pc x = problem.cost x +. pen x in
  let pc_deriv x = problem.cost_deriv x +. pen_deriv x in
  (* Commodities grouped by source so one Dijkstra serves them all. *)
  let by_src = Hashtbl.create 16 in
  Array.iter
    (fun (c : Commodity.t) ->
      let prev = try Hashtbl.find by_src c.src with Not_found -> [] in
      Hashtbl.replace by_src c.src (c :: prev))
    commodities;
  let sources = Hashtbl.fold (fun s _ acc -> s :: acc) by_src [] in
  let sources = List.sort compare sources in
  let flows = Array.make_matrix nc m 0. in
  let loads = Array.make m 0. in
  let add_path flows_i amount path =
    List.iter (fun l -> flows_i.(l) <- flows_i.(l) +. amount) path
  in
  (* Initial point: the caller's warm-start paths where given (rescaled
     to the demand, so conservation holds by construction), hop-count
     shortest paths otherwise.  Reachability is validated for every
     commodity either way — the all-or-nothing step needs it. *)
  let warm_used = ref 0 in
  List.iter
    (fun src ->
      let tree = Paths.shortest_tree g ~src in
      List.iter
        (fun (c : Commodity.t) ->
          match Paths.extract_path g tree ~dst:c.dst with
          | None ->
            invalid_arg
              (Printf.sprintf "Frank_wolfe.solve: node %d unreachable from %d" c.dst
                 c.src)
          | Some path -> (
            let warm = warm_start c.index in
            let total =
              List.fold_left
                (fun acc (wp : Decompose.weighted_path) -> acc +. wp.weight)
                0. warm
            in
            if total > 0. then begin
              incr warm_used;
              let scale = c.demand /. total in
              List.iter
                (fun (wp : Decompose.weighted_path) ->
                  add_path flows.(c.index) (wp.weight *. scale) wp.links)
                warm
            end
            else add_path flows.(c.index) c.demand path))
        (Hashtbl.find by_src src))
    sources;
  if !warm_used > 0 && Trace.on () then
    Trace.event "fw.warm_start"
      ~fields:[ ("commodities", Json.Int !warm_used) ];
  for e = 0 to m - 1 do
    loads.(e) <- 0.;
    for i = 0 to nc - 1 do
      loads.(e) <- loads.(e) +. flows.(i).(e)
    done
  done;
  let objective xs = Array.fold_left (fun acc x -> acc +. pc x) 0. xs in
  let aon_loads = Array.make m 0. in
  let aon_paths = Array.make nc [] in
  let weights = Array.make m 0. in
  let final_gap = ref infinity in
  let iterations = ref 0 in
  (try
     for iter = 1 to config.max_iters do
       (* Cooperative cancellation: the watchdog's budget is polled at
          iteration boundaries, so an expired run unwinds with
          [Deadline.Expired] instead of finishing the sweep. *)
       Dcn_engine.Deadline.check ();
       iterations := iter;
       (* Marginal costs at the current loads; a tiny hop bias breaks the
          ties that arise where the derivative vanishes at load 0. *)
       let max_w = ref 0. in
       for e = 0 to m - 1 do
         weights.(e) <- pc_deriv loads.(e);
         max_w := Float.max !max_w weights.(e)
       done;
       let tie = 1e-9 *. Float.max 1. !max_w in
       Array.fill aon_loads 0 m 0.;
       List.iter
         (fun src ->
           let tree = Paths.shortest_tree ~weight:(fun l -> weights.(l) +. tie) g ~src in
           List.iter
             (fun (c : Commodity.t) ->
               match Paths.extract_path g tree ~dst:c.dst with
               | None -> assert false (* reachability checked at init *)
               | Some path ->
                 aon_paths.(c.index) <- path;
                 List.iter
                   (fun l -> aon_loads.(l) <- aon_loads.(l) +. c.demand)
                   path)
             (Hashtbl.find by_src src))
         sources;
       (* Duality gap <grad, x - s>. *)
       let gap = ref 0. in
       for e = 0 to m - 1 do
         gap := !gap +. (weights.(e) *. (loads.(e) -. aon_loads.(e)))
       done;
       final_gap := Float.max 0. !gap;
       let obj_now = objective loads in
       if !final_gap <= config.gap_tol *. Float.max 1e-12 obj_now then begin
         trace_iter obs_iters_reference iter !final_gap obj_now 0. 0;
         raise Exit
       end;
       (* Exact line search over the segment towards the all-or-nothing
          point, on the support: the links the step moves, ascending
          (the objective is constant on the others). *)
       let over_support f =
         let acc = ref 0. in
         for e = 0 to m - 1 do
           if loads.(e) <> aon_loads.(e) then acc := !acc +. f e
         done;
         !acc
       in
       let blend theta e = ((1. -. theta) *. loads.(e)) +. (theta *. aon_loads.(e)) in
       let evals = ref 0 in
       let theta =
         exact_step (fun theta ->
             incr evals;
             over_support (fun e ->
                 (aon_loads.(e) -. loads.(e)) *. pc_deriv (blend theta e)))
       in
       (* Descent guard: keep the step only if it lowers the objective. *)
       let theta =
         if theta > 0.
            && over_support (fun e -> pc (blend theta e))
               < over_support (fun e -> pc loads.(e))
         then theta
         else 0.
       in
       trace_iter obs_iters_reference iter !final_gap obj_now theta !evals;
       if theta <= 1e-12 then raise Exit;
       for i = 0 to nc - 1 do
         let fi = flows.(i) in
         for e = 0 to m - 1 do
           fi.(e) <- fi.(e) *. (1. -. theta)
         done;
         add_path fi (theta *. commodities.(i).Commodity.demand) aon_paths.(i)
       done;
       for e = 0 to m - 1 do
         loads.(e) <- ((1. -. theta) *. loads.(e)) +. (theta *. aon_loads.(e))
       done
     done
   with Exit -> ());
  finish problem ~flows ~loads ~gap:!final_gap ~iterations:!iterations

(* ------------------------------------------------------------------ *)
(* Kernel path: the same float operations in the same order, on the
   flat arenas of {!Kernel}, with pc/pc' computed by the inlined
   [kernel_pc]/[kernel_pc_deriv] so the loops neither call the cost
   closures nor box floats.  Loop-carried float sums fold through the
   arena's [acc] cells ([float array] stores are unboxed; [float ref]
   assignments are not).  The line search is [exact_step] itself, over
   a derivative closure built once per iteration.  See DESIGN.md for
   the bit-identicality argument. *)

(* How often the flat loop polls the ambient deadline: iterations
   1, 1+N, 1+2N, ... so a zero budget still expires before any work
   and a watchdog preempts within N iterations.  The reference engine
   polls every iteration. *)
let deadline_poll_period = 4

let kernel_impl ~config ~warm_start ~workspace ~(pw : piecewise) problem =
  let g = problem.graph in
  let m = Graph.num_links g in
  let n = Graph.num_nodes g in
  let commodities = problem.commodities in
  let nc = Array.length commodities in
  Trace.span "fw.solve"
    ~fields:[ ("commodities", Json.Int nc); ("links", Json.Int m) ]
  @@ fun () ->
  Trace.span "fw.kernel"
    ~fields:[ ("commodities", Json.Int nc); ("links", Json.Int m) ]
  @@ fun () ->
  let a = Kernel.acquire workspace ~graph:g ~nc in
  let acc = a.Kernel.acc in
  (* The constants of [kernel_pc]/[kernel_pc_deriv], hoisted. *)
  let cap = problem.capacity in
  let r = pw.threshold in
  let slope = pw.slope in
  let sigma = pw.sigma and mu = pw.mu and alpha = pw.alpha in
  let am = alpha *. mu in
  let alpha1 = alpha -. 1. in
  let penalty = config.penalty in
  let pen2 = 2. *. penalty in
  (* Commodity vectors. *)
  let com_src = a.Kernel.com_src
  and com_dst = a.Kernel.com_dst
  and demand = a.Kernel.demand in
  for i = 0 to nc - 1 do
    let c = commodities.(i) in
    Ba.Array1.unsafe_set com_src i c.Commodity.src;
    Ba.Array1.unsafe_set com_dst i c.Commodity.dst;
    Ba.Array1.unsafe_set demand i c.Commodity.demand
  done;
  (* Evaluation order: sources ascending, commodity index descending
     within a source — the reference's Hashtbl-of-prepended-lists
     traversal — via a counting sort filled back-to-front. *)
  let order = a.Kernel.order and count = a.Kernel.count in
  for v = 0 to n do
    Ba.Array1.unsafe_set count v 0
  done;
  for i = 0 to nc - 1 do
    let s = Ba.Array1.unsafe_get com_src i in
    Ba.Array1.unsafe_set count s (Ba.Array1.unsafe_get count s + 1)
  done;
  let run = ref 0 in
  for v = 0 to n - 1 do
    let c = Ba.Array1.unsafe_get count v in
    Ba.Array1.unsafe_set count v !run;
    run := !run + c
  done;
  for i = nc - 1 downto 0 do
    let s = Ba.Array1.unsafe_get com_src i in
    let at = Ba.Array1.unsafe_get count s in
    Ba.Array1.unsafe_set order at i;
    Ba.Array1.unsafe_set count s (at + 1)
  done;
  let flows = a.Kernel.flows
  and loads = a.Kernel.loads
  and aon_loads = a.Kernel.aon_loads
  and weights = a.Kernel.weights
  and path_off = a.Kernel.path_off
  and path_len = a.Kernel.path_len in
  for idx = 0 to (nc * m) - 1 do
    Ba.Array1.unsafe_set flows idx 0.
  done;
  (* Initial point (see the reference): warm-start paths rescaled to the
     demand where given, hop-count shortest paths otherwise, with
     reachability validated per commodity. *)
  let warm_used = ref 0 in
  let s = ref 0 in
  while !s < nc do
    let src = Ba.Array1.unsafe_get com_src (Ba.Array1.unsafe_get order !s) in
    Kernel.dijkstra a ~src ~use_weights:false ~tie:0.;
    while
      !s < nc
      && Ba.Array1.unsafe_get com_src (Ba.Array1.unsafe_get order !s) = src
    do
      let i = Ba.Array1.unsafe_get order !s in
      let dst = Ba.Array1.unsafe_get com_dst i in
      if not (Kernel.reachable a ~dst) then
        invalid_arg
          (Printf.sprintf "Frank_wolfe.solve: node %d unreachable from %d" dst src);
      let warm = warm_start i in
      let total =
        List.fold_left
          (fun acc (wp : Decompose.weighted_path) -> acc +. wp.weight)
          0. warm
      in
      let base = i * m in
      if total > 0. then begin
        incr warm_used;
        let scale = Ba.Array1.unsafe_get demand i /. total in
        List.iter
          (fun (wp : Decompose.weighted_path) ->
            let amount = wp.Decompose.weight *. scale in
            List.iter
              (fun l ->
                Ba.Array1.unsafe_set flows (base + l)
                  (Ba.Array1.unsafe_get flows (base + l) +. amount))
              wp.Decompose.links)
          warm
      end
      else begin
        let d = Ba.Array1.unsafe_get demand i in
        let v = ref dst in
        while Ba.Array1.unsafe_get a.Kernel.pred !v >= 0 do
          let l = Ba.Array1.unsafe_get a.Kernel.pred !v in
          Ba.Array1.unsafe_set flows (base + l)
            (Ba.Array1.unsafe_get flows (base + l) +. d);
          v := Ba.Array1.unsafe_get a.Kernel.lsrc l
        done
      end;
      incr s
    done
  done;
  if !warm_used > 0 && Trace.on () then
    Trace.event "fw.warm_start"
      ~fields:[ ("commodities", Json.Int !warm_used) ];
  (* Initial loads; per cell the summands arrive in ascending commodity
     order, as in the reference (the loop nest is swapped for cache
     locality, which permutes only writes to distinct cells). *)
  for e = 0 to m - 1 do
    Ba.Array1.unsafe_set loads e 0.
  done;
  for i = 0 to nc - 1 do
    let base = i * m in
    for e = 0 to m - 1 do
      Ba.Array1.unsafe_set loads e
        (Ba.Array1.unsafe_get loads e +. Ba.Array1.unsafe_get flows (base + e))
    done
  done;
  (* acc cells: 0 the running sum of whichever loop is running (max
     weight, gap, objective, line-search derivative, objective at the
     step); 1 the objective over the support at the current loads, kept
     for the descent guard. *)
  let support = a.Kernel.support in
  let final_gap = ref infinity in
  let iterations = ref 0 in
  let minor0 = Gc.minor_words () in
  (try
     for iter = 1 to config.max_iters do
       (* Cooperative cancellation, polled every few iterations (the
          flat loop is fast; the first iteration is always checked so a
          zero budget expires before any work). *)
       if iter mod deadline_poll_period = 1 then Dcn_engine.Deadline.check ();
       iterations := iter;
       (* Marginal costs at the current loads. *)
       acc.(0) <- 0.;
       for e = 0 to m - 1 do
         let w =
           kernel_pc_deriv ~r ~slope ~am ~alpha1 ~cap ~pen2
             (Ba.Array1.unsafe_get loads e)
         in
         Ba.Array1.unsafe_set weights e w;
         if w > acc.(0) then acc.(0) <- w
       done;
       let tie = 1e-9 *. Float.max 1. acc.(0) in
       for e = 0 to m - 1 do
         Ba.Array1.unsafe_set aon_loads e 0.
       done;
       (* All-or-nothing step: one Dijkstra per source, paths recorded
          in the incidence store and accumulated in evaluation order. *)
       let slot = ref 0 in
       let s = ref 0 in
       while !s < nc do
         let src =
           Ba.Array1.unsafe_get com_src (Ba.Array1.unsafe_get order !s)
         in
         Kernel.dijkstra a ~src ~use_weights:true ~tie;
         while
           !s < nc
           && Ba.Array1.unsafe_get com_src (Ba.Array1.unsafe_get order !s) = src
         do
           let i = Ba.Array1.unsafe_get order !s in
           let d = Ba.Array1.unsafe_get demand i in
           Ba.Array1.unsafe_set path_off i !slot;
           let v = ref (Ba.Array1.unsafe_get com_dst i) in
           while Ba.Array1.unsafe_get a.Kernel.pred !v >= 0 do
             let l = Ba.Array1.unsafe_get a.Kernel.pred !v in
             Kernel.push_path_link a ~slot:!slot l;
             incr slot;
             Ba.Array1.unsafe_set aon_loads l
               (Ba.Array1.unsafe_get aon_loads l +. d);
             v := Ba.Array1.unsafe_get a.Kernel.lsrc l
           done;
           Ba.Array1.unsafe_set path_len i
             (!slot - Ba.Array1.unsafe_get path_off i);
           incr s
         done
       done;
       (* Duality gap <grad, x - s>. *)
       acc.(0) <- 0.;
       for e = 0 to m - 1 do
         acc.(0) <-
           acc.(0)
           +. Ba.Array1.unsafe_get weights e
              *. (Ba.Array1.unsafe_get loads e -. Ba.Array1.unsafe_get aon_loads e)
       done;
       final_gap := Float.max 0. acc.(0);
       (* Objective at the current loads; the same loop lists the
          support (links with loads <> aon_loads, ascending) and sums
          the objective over it. *)
       acc.(0) <- 0.;
       acc.(1) <- 0.;
       let ns = ref 0 in
       for e = 0 to m - 1 do
         let x = Ba.Array1.unsafe_get loads e in
         let c = kernel_pc ~r ~slope ~sigma ~mu ~alpha ~cap ~penalty x in
         acc.(0) <- acc.(0) +. c;
         if x <> Ba.Array1.unsafe_get aon_loads e then begin
           Ba.Array1.unsafe_set support !ns e;
           incr ns;
           acc.(1) <- acc.(1) +. c
         end
       done;
       let obj_now = acc.(0) in
       if !final_gap <= config.gap_tol *. Float.max 1e-12 obj_now then begin
         trace_iter obs_iters_kernel iter !final_gap obj_now 0. 0;
         raise Exit
       end;
       (* Exact line search: phi'(theta) over the support, as the
          reference's. *)
       let ns = !ns in
       let evals = ref 0 in
       let theta =
         exact_step (fun theta ->
             incr evals;
             let one_t = 1. -. theta in
             acc.(0) <- 0.;
             for j = 0 to ns - 1 do
               let e = Ba.Array1.unsafe_get support j in
               let xe = Ba.Array1.unsafe_get loads e in
               let se = Ba.Array1.unsafe_get aon_loads e in
               let x = (one_t *. xe) +. (theta *. se) in
               acc.(0) <-
                 acc.(0)
                 +. ((se -. xe) *. kernel_pc_deriv ~r ~slope ~am ~alpha1 ~cap ~pen2 x)
             done;
             acc.(0))
       in
       (* Descent guard, on the support. *)
       let theta =
         if theta > 0. then begin
           let one_t = 1. -. theta in
           acc.(0) <- 0.;
           for j = 0 to ns - 1 do
             let e = Ba.Array1.unsafe_get support j in
             let x =
               (one_t *. Ba.Array1.unsafe_get loads e)
               +. (theta *. Ba.Array1.unsafe_get aon_loads e)
             in
             acc.(0) <- acc.(0) +. kernel_pc ~r ~slope ~sigma ~mu ~alpha ~cap ~penalty x
           done;
           if acc.(0) < acc.(1) then theta else 0.
         end
         else 0.
       in
       trace_iter obs_iters_kernel iter !final_gap obj_now theta !evals;
       if theta <= 1e-12 then raise Exit;
       (* Convex blend of the per-commodity flows and the loads. *)
       for i = 0 to nc - 1 do
         let base = i * m in
         for e = 0 to m - 1 do
           Ba.Array1.unsafe_set flows (base + e)
             (Ba.Array1.unsafe_get flows (base + e) *. (1. -. theta))
         done;
         let amount = theta *. Ba.Array1.unsafe_get demand i in
         let off = Ba.Array1.unsafe_get path_off i in
         for idx = off to off + Ba.Array1.unsafe_get path_len i - 1 do
           let l = Ba.Array1.unsafe_get a.Kernel.path_links idx in
           Ba.Array1.unsafe_set flows (base + l)
             (Ba.Array1.unsafe_get flows (base + l) +. amount)
         done
       done;
       for e = 0 to m - 1 do
         Ba.Array1.unsafe_set loads e
           (((1. -. theta) *. Ba.Array1.unsafe_get loads e)
           +. (theta *. Ba.Array1.unsafe_get aon_loads e))
       done
     done
   with Exit -> ());
  if Trace.on () && !iterations > 0 then
    Trace.counter "fw.kernel_minor_words"
      ((Gc.minor_words () -. minor0) /. float_of_int !iterations);
  (* Copy out in the reference's shapes. *)
  let flows =
    Array.init nc (fun i ->
        let base = i * m in
        Array.init m (fun e -> Ba.Array1.unsafe_get flows (base + e)))
  in
  let loads = Array.init m (fun e -> Ba.Array1.unsafe_get loads e) in
  finish problem ~flows ~loads ~gap:!final_gap ~iterations:!iterations

(* The entry both engines share.  Both address a commodity's flow row
   by its [index] and its demand by its array position, so the two
   must agree. *)
let solve ?(config = default_config) ?(warm_start = fun _ -> []) ?workspace
    ?piecewise problem =
  if Array.length problem.commodities = 0 then
    invalid_arg "Frank_wolfe.solve: no commodities";
  Array.iteri
    (fun i (c : Commodity.t) ->
      if c.index <> i then
        invalid_arg
          (Printf.sprintf "Frank_wolfe.solve: commodity at position %d has index %d" i
             c.index))
    problem.commodities;
  match (config.engine, piecewise) with
  | Kernel, Some pw ->
    let workspace =
      match workspace with Some w -> w | None -> Kernel.Workspace.default
    in
    kernel_impl ~config ~warm_start ~workspace ~pw problem
  | _ -> reference_impl ~config ~warm_start problem

let solve_reference ?(config = default_config) ?warm_start problem =
  solve ~config:{ config with engine = Reference } ?warm_start problem

let lower_bound_cost _problem solution = Float.max 0. (solution.cost -. solution.gap)
