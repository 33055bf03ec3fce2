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

type config = { max_iters : int; gap_tol : float; engine : engine }

let default_config = { max_iters = 200; gap_tol = 1e-4; engine = Kernel }
let resolve_config = { default_config with max_iters = 60; gap_tol = 1e-3 }
let penalty = 1e3

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
   derivative: Illinois regula falsi on the sign change of phi'.  No
   descent at 0 gives 0; no sign change by 1 gives the full step.  The
   floats travel through cells, so a caller that must not allocate can
   call it: [deriv ()] reads t from [io.(0)] and writes phi'(t) to
   [io.(1)], and the step is left in [io.(0)]. *)
let exact_step_in (io : float array) deriv =
  io.(0) <- 0.;
  deriv ();
  let d0 = io.(1) in
  if not (d0 < 0.) then io.(0) <- 0.
  else begin
    io.(0) <- 1.;
    deriv ();
    let d1 = io.(1) in
    if d1 <= 0. then io.(0) <- 1.
    else begin
      let tol = step_tol *. Float.abs d0 in
      let lo = ref 0. and hi = ref 1. and flo = ref d0 and fhi = ref d1 in
      let t = ref 0. and side = ref 0 and evals = ref 2 and go = ref true in
      while !go do
        t := !lo +. (!flo /. (!flo -. !fhi) *. (!hi -. !lo));
        io.(0) <- !t;
        deriv ();
        let ft = io.(1) in
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
      io.(0) <- !t
    end
  end

let exact_step deriv =
  let io = [| 0.; 0. |] in
  exact_step_in io (fun () -> io.(1) <- deriv io.(0));
  io.(0)

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

(* Load [x] after a pairwise step moves [delta] along a link with net
   coefficient [c]; clamped at 0, so rounding on a link the step empties
   never hands pc/pc' a negative load. *)
let[@inline] shifted x c delta =
  let y = x +. (c *. delta) in
  if y > 0. then y else 0.

(* A path whose weight falls to this fraction of its commodity's demand
   leaves the active set. *)
let drop_tol = 1e-12

(* The kernel's cost and derivative at load [x]: the expression trees
   of Model.envelope(_deriv), over the piecewise spec's hoisted
   constants, with Model.dynamic's exact square at alpha = 2 ([sq]).
   [kernel_pc]/[kernel_pc_deriv] add the capacity penalty.  Closed and
   inlined (non-flambda OCaml inlines only closed functions), so the
   kernel's loops neither call closures nor box floats. *)
let[@inline] kernel_cost ~r ~slope ~sigma ~mu ~alpha ~sq x =
  if x = 0. then 0.
  else if r = 0. then if sq then mu *. (x *. x) else mu *. (x ** alpha)
  else if x <= r then x *. slope
  else sigma +. if sq then mu *. (x *. x) else mu *. (x ** alpha)

let[@inline] kernel_pc ~r ~slope ~sigma ~mu ~alpha ~sq ~cap ~penalty x =
  let o = overload ~cap x in
  kernel_cost ~r ~slope ~sigma ~mu ~alpha ~sq x +. (penalty *. o *. o)

let[@inline] kernel_pc_deriv ~r ~slope ~am ~alpha1 ~sq ~cap ~pen2 x =
  let d =
    if r <> 0. && x <= r then slope else if sq then am *. x else am *. (x ** alpha1)
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
   it was measured at, the largest accepted pairwise step and the number
   of commodities that stepped (both 0 on the terminating iteration);
   counters for the iteration and the line searches' derivative
   evaluations, summed over commodities.  One branch when no trace is
   installed. *)
let trace_iter obs iter gap objective step moved evals =
  Dcn_obs.Registry.incr obs;
  if Trace.on () then begin
    Trace.event "fw.iter"
      ~fields:
        [
          ("iter", Json.Int iter);
          ("gap", Json.float gap);
          ("objective", Json.float objective);
          ("step", Json.float step);
          ("moved", Json.Int moved);
        ];
    Trace.counter "fw.iters" 1.;
    Trace.counter "fw.ls_evals" (float_of_int evals)
  end

(* The epilogue both engines share: the worst overload and the
   [fw.done] record around the penalty-free [cost], which each engine
   sums over the links in index order. *)
let finish (problem : problem) ~cost ~flows ~loads ~gap ~iterations =
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

(* One member of a commodity's active set. *)
type active_path = { links : Graph.link list; mutable weight : float }

let same_links = List.equal Int.equal

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
    penalty *. o *. o
  in
  let pen_deriv x = 2. *. penalty *. overload ~cap:problem.capacity x in
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
  (* Per commodity, the distinct weighted paths carrying its demand,
     oldest first. *)
  let active = Array.make nc [] in
  (* Add [amount] on [links] to commodity [i]'s active set: to the path
     with the same links if there is one, else as a new last path. *)
  let add_to i links amount =
    match List.find_opt (fun p -> same_links p.links links) active.(i) with
    | Some p -> p.weight <- p.weight +. amount
    | None -> active.(i) <- active.(i) @ [ { links; weight = amount } ]
  in
  (* Initial point: the caller's warm-start paths where given (rescaled
     to the demand, so conservation holds by construction; identical
     link lists merged), the hop-count shortest path otherwise.
     Reachability is validated for every commodity either way — the
     all-or-nothing step needs it. *)
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
                  add_to c.index wp.links (wp.weight *. scale))
                warm;
              active.(c.index) <-
                List.filter (fun p -> p.weight > drop_tol *. c.demand) active.(c.index)
            end
            else add_to c.index path c.demand))
        (Hashtbl.find by_src src))
    sources;
  if !warm_used > 0 && Trace.on () then
    Trace.event "fw.warm_start"
      ~fields:[ ("commodities", Json.Int !warm_used) ];
  (* Per-link sums over the active sets: commodities ascending, paths
     in set order, links in path order. *)
  let sum_paths add =
    Array.iteri
      (fun i paths -> List.iter (fun p -> List.iter (add i p.weight) p.links) paths)
      active
  in
  let loads = Array.make m 0. in
  sum_paths (fun _ w l -> loads.(l) <- loads.(l) +. w);
  (* A solve without any warm start takes joint steps over dense
     per-commodity flows (see [joint_step]); any warm start makes it
     take pairwise steps over the active sets. *)
  let joint = !warm_used = 0 in
  let flows = Array.make_matrix (if joint then nc else 0) m 0. in
  if joint then sum_paths (fun i w l -> flows.(i).(l) <- flows.(i).(l) +. w);
  let objective xs = Array.fold_left (fun acc x -> acc +. pc x) 0. xs in
  let aon_loads = Array.make m 0. in
  let aon_paths = Array.make nc [] in
  let weights = Array.make m 0. in
  let coef = Array.make m 0 in
  let price links = List.fold_left (fun acc l -> acc +. weights.(l)) 0. links in
  (* The vanilla Frank–Wolfe step: every commodity moves towards its
     all-or-nothing path under one line search, over the links whose
     load the step changes, ascending.  From the hop-count start it
     beats a sweep of pairwise steps (EXPERIMENTS E19).  Returns the
     step, the commodities moved (all or none) and the derivative
     evaluations. *)
  let joint_step () =
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
          over_support (fun e -> (aon_loads.(e) -. loads.(e)) *. pc_deriv (blend theta e)))
    in
    (* Descent guard: keep the step only if it lowers the objective. *)
    let theta =
      if theta > 0.
         && over_support (fun e -> pc (blend theta e))
            < over_support (fun e -> pc loads.(e))
      then theta
      else 0.
    in
    if theta <= 1e-12 then (theta, 0, !evals)
    else begin
      for i = 0 to nc - 1 do
        let fi = flows.(i) in
        for e = 0 to m - 1 do
          fi.(e) <- fi.(e) *. (1. -. theta)
        done;
        let amount = theta *. commodities.(i).Commodity.demand in
        List.iter (fun l -> fi.(l) <- fi.(l) +. amount) aon_paths.(i)
      done;
      for e = 0 to m - 1 do
        loads.(e) <- blend theta e
      done;
      (theta, nc, !evals)
    end
  in
  (* A Gauss–Seidel sweep of pairwise steps, commodities ascending:
     move weight from the costliest other active path v to the
     all-or-nothing path s, pricing at the current loads (the weights
     follow every accepted step).  Returns the largest accepted step,
     the commodities moved and the derivative evaluations. *)
  let pairwise_sweep () =
    let step = ref 0. and moved = ref 0 and evals = ref 0 in
    for i = 0 to nc - 1 do
      let s = aon_paths.(i) in
      let ps = price s in
      let costliest =
        List.fold_left
          (fun best p ->
            if same_links p.links s then best
            else
              let pp = price p.links in
              match best with
              | Some (_, pb) when pb >= pp -> best
              | _ -> Some (p, pp))
          None active.(i)
      in
      match costliest with
      | Some (v, pv) when pv > ps ->
        (* The support: links whose load the step moves, s's then
           v's, each once with its net coefficient. *)
        List.iter (fun l -> coef.(l) <- coef.(l) + 1) s;
        List.iter (fun l -> coef.(l) <- coef.(l) - 1) v.links;
        let support =
          List.filter_map
            (fun l ->
              let c = coef.(l) in
              if c = 0 then None
              else begin
                coef.(l) <- 0;
                Some (l, float_of_int c)
              end)
            (s @ v.links)
        in
        let over_support f =
          List.fold_left (fun acc (e, c) -> acc +. f e c) 0. support
        in
        (* Exact line search over t in [0, 1], moving t * w(v). *)
        let wv = v.weight in
        let moved_load t e c = shifted loads.(e) c (t *. wv) in
        let t =
          exact_step (fun t ->
              incr evals;
              over_support (fun e c -> c *. pc_deriv (moved_load t e c)))
        in
        (* Descent guard, as in [joint_step]. *)
        if
          t > 0.
          && over_support (fun e c -> pc (moved_load t e c))
             < over_support (fun e _ -> pc loads.(e))
        then begin
          let delta = t *. wv in
          List.iter
            (fun (e, c) ->
              loads.(e) <- shifted loads.(e) c delta;
              weights.(e) <- pc_deriv loads.(e))
            support;
          v.weight <- wv -. delta;
          add_to i s delta;
          if v.weight <= drop_tol *. commodities.(i).Commodity.demand then
            active.(i) <- List.filter (fun p -> p != v) active.(i);
          incr moved;
          if t > !step then step := t
        end
      | _ -> ()
    done;
    (!step, !moved, !evals)
  in
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
         trace_iter obs_iters_reference iter !final_gap obj_now 0. 0 0;
         raise Exit
       end;
       let step, moved, evals = if joint then joint_step () else pairwise_sweep () in
       trace_iter obs_iters_reference iter !final_gap obj_now step moved evals;
       if moved = 0 then raise Exit
     done
   with Exit -> ());
  let flows =
    if joint then flows
    else begin
      let flows = Array.make_matrix nc m 0. in
      sum_paths (fun i w l -> flows.(i).(l) <- flows.(i).(l) +. w);
      flows
    end
  in
  let cost = Array.fold_left (fun acc x -> acc +. problem.cost x) 0. loads in
  finish problem ~cost ~flows ~loads ~gap:!final_gap ~iterations:!iterations

(* ------------------------------------------------------------------ *)
(* Kernel path: the same float operations in the same order, on the
   flat arenas of {!Kernel}, with pc/pc' computed by the inlined
   [kernel_pc]/[kernel_pc_deriv] so the loops neither call the cost
   closures nor box floats.  Loop-carried float sums fold through the
   arena's [acc] cells ([float array] stores are unboxed; [float ref]
   assignments are not).  The line search is [exact_step_in], over two
   derivative closures built once per solve (joint and pairwise) that
   take t and return phi'(t) through cells, so a step boxes no float.
   See DESIGN.md for the bit-identicality argument. *)

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
  let sq = alpha = 2. in
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
  let loads = a.Kernel.loads
  and aon_loads = a.Kernel.aon_loads
  and weights = a.Kernel.weights
  and costs = a.Kernel.costs
  and path_off = a.Kernel.path_off
  and path_len = a.Kernel.path_len in
  (* Add the path in incidence slots [off, off + len) to commodity [i]'s
     active set, merging into an identical path (the reference's
     [add_to]).  The amount is in [acc.(2)], so no float is passed. *)
  let add_to i ~off ~len =
    let p = ref (Kernel.first_path a i) in
    while !p >= 0 && not (Kernel.same_as_aon a !p ~off ~len) do
      p := Kernel.next_path a !p
    done;
    let p = if !p >= 0 then !p else Kernel.add_aon_path a i ~off ~len in
    let w = a.Kernel.pool_weight in
    Ba.Array1.unsafe_set w p (Ba.Array1.unsafe_get w p +. acc.(2))
  in
  (* Mark the destinations of the source whose run of commodities in
     evaluation order starts at [s], so its Dijkstra stops once they
     are final. *)
  let mark_run s =
    let src = Ba.Array1.unsafe_get com_src (Ba.Array1.unsafe_get order s) in
    let j = ref s in
    while !j < nc && Ba.Array1.unsafe_get com_src (Ba.Array1.unsafe_get order !j) = src do
      Kernel.mark_target a (Ba.Array1.unsafe_get com_dst (Ba.Array1.unsafe_get order !j));
      incr j
    done
  in
  (* Initial point (see the reference): warm-start paths rescaled to the
     demand and merged where given, the hop-count shortest path
     otherwise, with reachability validated per commodity. *)
  let warm_used = ref 0 in
  let s = ref 0 in
  while !s < nc do
    let src = Ba.Array1.unsafe_get com_src (Ba.Array1.unsafe_get order !s) in
    mark_run !s;
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
      let d = Ba.Array1.unsafe_get demand i in
      if total > 0. then begin
        incr warm_used;
        let scale = d /. total in
        List.iter
          (fun (wp : Decompose.weighted_path) ->
            let len = Kernel.store_list a ~slot:0 wp.Decompose.links in
            acc.(2) <- wp.Decompose.weight *. scale;
            add_to i ~off:0 ~len)
          warm;
        let p = ref (Kernel.first_path a i) in
        while !p >= 0 do
          let q = Kernel.next_path a !p in
          if not (Ba.Array1.unsafe_get a.Kernel.pool_weight !p > drop_tol *. d) then
            Kernel.remove_path a i !p;
          p := q
        done
      end
      else begin
        let len = Kernel.store_tree_path a ~slot:0 ~dst in
        acc.(2) <- d;
        add_to i ~off:0 ~len
      end;
      incr s
    done
  done;
  if !warm_used > 0 && Trace.on () then
    Trace.event "fw.warm_start"
      ~fields:[ ("commodities", Json.Int !warm_used) ];
  (* Add every active path of commodity [i] to [buf] from [base] on: the
     reference's [sum_paths], one commodity at a time. *)
  let spread_commodity i buf ~base =
    let p = ref (Kernel.first_path a i) in
    while !p >= 0 do
      Kernel.spread_path a !p buf ~base;
      p := Kernel.next_path a !p
    done
  in
  let zero (buf : Kernel.fbuf) len =
    for k = 0 to len - 1 do
      Ba.Array1.unsafe_set buf k 0.
    done
  in
  zero loads m;
  for i = 0 to nc - 1 do
    spread_commodity i loads ~base:0
  done;
  (* The step rule, as the reference's: joint steps over dense flows
     without any warm start, pairwise sweeps otherwise. *)
  let joint = !warm_used = 0 in
  let flows = Kernel.dense_flows a ~rows:(if joint then nc else 0) in
  if joint then begin
    zero flows (nc * m);
    for i = 0 to nc - 1 do
      spread_commodity i flows ~base:(i * m)
    done
  end;
  (* acc cells: 0 the running sum of whichever loop is running (max
     weight, gap, objective, a path's price, the line-search derivative,
     the objective over the support at the step); 1 the objective over
     the support at the current loads, for the descent guard; 2 the
     weight of the path giving up mass during a pairwise line search,
     else the amount [add_to] adds; 3 the price of s; 4 the price of
     the costliest other active path; 5 the largest accepted step of
     the iteration.  The line search's own floats live in [io]. *)
  let io = [| 0.; 0. |] in
  let support = a.Kernel.support and sup_coef = a.Kernel.sup_coef in
  (* The line searches' derivatives, built once per solve: phi'(t) over
     the current support ([ns] entries) at t = io.(0), into io.(1). *)
  let ns = ref 0 and evals = ref 0 in
  let joint_deriv () =
    incr evals;
    let theta = io.(0) in
    let one_t = 1. -. theta in
    acc.(0) <- 0.;
    for j = 0 to !ns - 1 do
      let e = Ba.Array1.unsafe_get support j in
      let xe = Ba.Array1.unsafe_get loads e in
      let se = Ba.Array1.unsafe_get aon_loads e in
      let x = (one_t *. xe) +. (theta *. se) in
      acc.(0) <-
        acc.(0) +. ((se -. xe) *. kernel_pc_deriv ~r ~slope ~am ~alpha1 ~sq ~cap ~pen2 x)
    done;
    io.(1) <- acc.(0)
  in
  let pairwise_deriv () =
    incr evals;
    let delta = io.(0) *. acc.(2) in
    acc.(0) <- 0.;
    for j = 0 to !ns - 1 do
      let e = Ba.Array1.unsafe_get support j in
      let c = Ba.Array1.unsafe_get sup_coef j in
      let x = shifted (Ba.Array1.unsafe_get loads e) c delta in
      acc.(0) <- acc.(0) +. (c *. kernel_pc_deriv ~r ~slope ~am ~alpha1 ~sq ~cap ~pen2 x)
    done;
    io.(1) <- acc.(0)
  in
  let moved = ref 0 in
  (* The reference's [joint_step]; the step is left in io.(0). *)
  let joint_step () =
    ns := 0;
    acc.(1) <- 0.;
    for e = 0 to m - 1 do
      if Ba.Array1.unsafe_get loads e <> Ba.Array1.unsafe_get aon_loads e then begin
        Ba.Array1.unsafe_set support !ns e;
        incr ns;
        acc.(1) <- acc.(1) +. Ba.Array1.unsafe_get costs e
      end
    done;
    exact_step_in io joint_deriv;
    (* Descent guard, on the support. *)
    if io.(0) > 0. then begin
      let theta = io.(0) in
      let one_t = 1. -. theta in
      acc.(0) <- 0.;
      for j = 0 to !ns - 1 do
        let e = Ba.Array1.unsafe_get support j in
        let x =
          (one_t *. Ba.Array1.unsafe_get loads e)
          +. (theta *. Ba.Array1.unsafe_get aon_loads e)
        in
        acc.(0) <- acc.(0) +. kernel_pc ~r ~slope ~sigma ~mu ~alpha ~sq ~cap ~penalty x
      done;
      if not (acc.(0) < acc.(1)) then io.(0) <- 0.
    end;
    acc.(5) <- io.(0);
    if io.(0) > 1e-12 then begin
      let theta = io.(0) in
      let one_t = 1. -. theta in
      for i = 0 to nc - 1 do
        let base = i * m in
        for e = 0 to m - 1 do
          Ba.Array1.unsafe_set flows (base + e)
            (Ba.Array1.unsafe_get flows (base + e) *. one_t)
        done;
        let amount = theta *. Ba.Array1.unsafe_get demand i in
        let off = Ba.Array1.unsafe_get path_off i in
        for k = off to off + Ba.Array1.unsafe_get path_len i - 1 do
          let l = Ba.Array1.unsafe_get a.Kernel.path_links k in
          Ba.Array1.unsafe_set flows (base + l)
            (Ba.Array1.unsafe_get flows (base + l) +. amount)
        done
      done;
      for e = 0 to m - 1 do
        Ba.Array1.unsafe_set loads e
          ((one_t *. Ba.Array1.unsafe_get loads e)
          +. (theta *. Ba.Array1.unsafe_get aon_loads e))
      done;
      moved := nc
    end
  in
  (* The reference's [pairwise_sweep]. *)
  let pairwise_sweep () =
    for i = 0 to nc - 1 do
      let off = Ba.Array1.unsafe_get path_off i in
      let len = Ba.Array1.unsafe_get path_len i in
      Kernel.price_aon a ~off ~len;
      acc.(3) <- acc.(0);
      (* The costliest active path other than s, first on ties. *)
      let v = ref (-1) in
      let p = ref (Kernel.first_path a i) in
      while !p >= 0 do
        if not (Kernel.same_as_aon a !p ~off ~len) then begin
          Kernel.price_path a !p;
          if !v < 0 || acc.(0) > acc.(4) then begin
            v := !p;
            acc.(4) <- acc.(0)
          end
        end;
        p := Kernel.next_path a !p
      done;
      let v = !v in
      if v >= 0 && acc.(4) > acc.(3) then begin
        ns := Kernel.build_support a ~off ~len v;
        (* The objective over the support at the current loads. *)
        acc.(1) <- 0.;
        for j = 0 to !ns - 1 do
          acc.(1) <- acc.(1) +. Ba.Array1.unsafe_get costs (Ba.Array1.unsafe_get support j)
        done;
        acc.(2) <- Ba.Array1.unsafe_get a.Kernel.pool_weight v;
        exact_step_in io pairwise_deriv;
        (* Descent guard, on the support. *)
        if io.(0) > 0. then begin
          let delta = io.(0) *. acc.(2) in
          acc.(0) <- 0.;
          for j = 0 to !ns - 1 do
            let e = Ba.Array1.unsafe_get support j in
            let c = Ba.Array1.unsafe_get sup_coef j in
            let x = shifted (Ba.Array1.unsafe_get loads e) c delta in
            acc.(0) <- acc.(0) +. kernel_pc ~r ~slope ~sigma ~mu ~alpha ~sq ~cap ~penalty x
          done;
          if not (acc.(0) < acc.(1)) then io.(0) <- 0.
        end;
        if io.(0) > 0. then begin
          let delta = io.(0) *. acc.(2) in
          for j = 0 to !ns - 1 do
            let e = Ba.Array1.unsafe_get support j in
            let x =
              shifted (Ba.Array1.unsafe_get loads e) (Ba.Array1.unsafe_get sup_coef j) delta
            in
            Ba.Array1.unsafe_set loads e x;
            Ba.Array1.unsafe_set weights e
              (kernel_pc_deriv ~r ~slope ~am ~alpha1 ~sq ~cap ~pen2 x);
            Ba.Array1.unsafe_set costs e
              (kernel_pc ~r ~slope ~sigma ~mu ~alpha ~sq ~cap ~penalty x)
          done;
          Ba.Array1.unsafe_set a.Kernel.pool_weight v (acc.(2) -. delta);
          acc.(2) <- delta;
          add_to i ~off ~len;
          if
            Ba.Array1.unsafe_get a.Kernel.pool_weight v
            <= drop_tol *. Ba.Array1.unsafe_get demand i
          then Kernel.remove_path a i v;
          incr moved;
          if io.(0) > acc.(5) then acc.(5) <- io.(0)
        end
      end
    done
  in
  let final_gap = ref infinity in
  let iterations = ref 0 in
  (try
     for iter = 1 to config.max_iters do
       (* Cooperative cancellation, polled every few iterations (the
          flat loop is fast; the first iteration is always checked so a
          zero budget expires before any work). *)
       if iter mod deadline_poll_period = 1 then Dcn_engine.Deadline.check ();
       iterations := iter;
       (* Marginal costs and costs at the current loads.  A pairwise
          sweep refreshes both on the links it moves, so after the
          first iteration they are current and only the maximum is
          taken; a joint step moves every link. *)
       acc.(0) <- 0.;
       if joint || iter = 1 then
         for e = 0 to m - 1 do
           let x = Ba.Array1.unsafe_get loads e in
           let w = kernel_pc_deriv ~r ~slope ~am ~alpha1 ~sq ~cap ~pen2 x in
           Ba.Array1.unsafe_set weights e w;
           Ba.Array1.unsafe_set costs e
             (kernel_pc ~r ~slope ~sigma ~mu ~alpha ~sq ~cap ~penalty x);
           if w > acc.(0) then acc.(0) <- w
         done
       else
         for e = 0 to m - 1 do
           let w = Ba.Array1.unsafe_get weights e in
           if w > acc.(0) then acc.(0) <- w
         done;
       let tie = 1e-9 *. Float.max 1. acc.(0) in
       zero aon_loads m;
       (* All-or-nothing step: one Dijkstra per source, paths recorded
          in the incidence store and accumulated in evaluation order. *)
       let slot = ref 0 in
       let s = ref 0 in
       while !s < nc do
         let src =
           Ba.Array1.unsafe_get com_src (Ba.Array1.unsafe_get order !s)
         in
         mark_run !s;
         Kernel.dijkstra a ~src ~use_weights:true ~tie;
         while
           !s < nc
           && Ba.Array1.unsafe_get com_src (Ba.Array1.unsafe_get order !s) = src
         do
           let i = Ba.Array1.unsafe_get order !s in
           let d = Ba.Array1.unsafe_get demand i in
           let len =
             Kernel.store_tree_path a ~slot:!slot
               ~dst:(Ba.Array1.unsafe_get com_dst i)
           in
           Ba.Array1.unsafe_set path_off i !slot;
           Ba.Array1.unsafe_set path_len i len;
           for k = !slot to !slot + len - 1 do
             let l = Ba.Array1.unsafe_get a.Kernel.path_links k in
             Ba.Array1.unsafe_set aon_loads l (Ba.Array1.unsafe_get aon_loads l +. d)
           done;
           slot := !slot + len;
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
       (* Objective at the current loads. *)
       acc.(0) <- 0.;
       for e = 0 to m - 1 do
         acc.(0) <- acc.(0) +. Ba.Array1.unsafe_get costs e
       done;
       let obj_now = acc.(0) in
       if !final_gap <= config.gap_tol *. Float.max 1e-12 obj_now then begin
         trace_iter obs_iters_kernel iter !final_gap obj_now 0. 0 0;
         raise Exit
       end;
       acc.(5) <- 0.;
       evals := 0;
       moved := 0;
       if joint then joint_step () else pairwise_sweep ();
       trace_iter obs_iters_kernel iter !final_gap obj_now acc.(5) !moved !evals;
       if !moved = 0 then raise Exit
     done
   with Exit -> ());
  (* Copy out in the reference's shapes; without dense flows, each
     commodity's row is summed from its active set in [aon_loads]. *)
  let row (buf : Kernel.fbuf) base =
    Array.init m (fun e -> Ba.Array1.unsafe_get buf (base + e))
  in
  let flows =
    Array.init nc (fun i ->
        if joint then row flows (i * m)
        else begin
          zero aon_loads m;
          spread_commodity i aon_loads ~base:0;
          row aon_loads 0
        end)
  in
  (* The penalty-free cost, as the reference sums [problem.cost]. *)
  acc.(0) <- 0.;
  for e = 0 to m - 1 do
    acc.(0) <-
      acc.(0) +. kernel_cost ~r ~slope ~sigma ~mu ~alpha ~sq (Ba.Array1.unsafe_get loads e)
  done;
  finish problem ~cost:acc.(0) ~flows ~loads:(row loads 0) ~gap:!final_gap
    ~iterations:!iterations

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
