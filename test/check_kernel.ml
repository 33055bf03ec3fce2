(* Kernel differential + allocation harness (the @check-kernel alias).

   1. Differential: over seeded Dcn_check.Gen instances, the flat-kernel
      Frank-Wolfe engine and the boxed reference engine must produce
      BIT-IDENTICAL relaxations - same costs, bounds, overloads and
      weighted path decompositions.  This is the contract that lets
      Random_schedule round either engine's fractional solution into the
      same certified schedule.
   2. Pairwise steps: hand-built warm starts that force a step into a
      path that is already active (its weight merges) and two warm
      paths with identical links; kernel and reference solutions must be
      bit-identical.  (The drop step, t = 1, is test_mcf's "drop step
      empties a link".)  Then two fixed re-solves, warm started from a
      cold solve, so their pairwise sweeps run through the kernel's
      per-link cost caches: the serving model (sigma 0, alpha 2) with a
      capacity that a 2:1 oversubscribed leaf-spine's uplinks exceed,
      so the penalty term is live on links the steps move, and an
      alpha-3 model with idle power on fat-tree k=4.
   3. Allocation: after a warm-up solve, a kernel-engine FW iteration
      must allocate at most 128 minor-heap words, both for the joint
      steps of a solve without warm start and for the pairwise sweeps
      of a warm-started one - the workspace arenas absorb the hot path,
      where a boxed iteration burns millions.
   4. With --trace FILE, writes a traced kernel run (fw.kernel spans,
      ws.reuse/ws.grow counters) for check_json --kernel to validate.

   Exits 0 on success, 1 with a diagnostic on the first failure. *)

module Fw = Dcn_mcf.Frank_wolfe
module Model = Dcn_power.Model
module Relaxation = Dcn_core.Relaxation
module Gen = Dcn_check.Gen
module Trace = Dcn_engine.Trace
module Json = Dcn_engine.Json

let failures = ref 0

let failf fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.eprintf "check_kernel: FAIL %s\n%!" s)
    fmt

let fw_config = Fw.resolve_config
let reference_config = { fw_config with Fw.engine = Fw.Reference }

let bits = Int64.bits_of_float

(* Bit-level float equality (compare conflates 0. and -0.). *)
let feq a b = Int64.equal (bits a) (bits b)

let same_weighted_paths (a : Dcn_mcf.Decompose.weighted_path list)
    (b : Dcn_mcf.Decompose.weighted_path list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Dcn_mcf.Decompose.weighted_path)
            (y : Dcn_mcf.Decompose.weighted_path) ->
         x.links = y.links && feq x.weight y.weight)
       a b

let check_relaxation label (k : Relaxation.t) (r : Relaxation.t) =
  if not (feq k.cost r.cost) then
    failf "%s: cost %h (kernel) <> %h (reference)" label k.cost r.cost;
  if not (feq k.lb r.lb) then
    failf "%s: lb %h (kernel) <> %h (reference)" label k.lb r.lb;
  if Array.length k.intervals <> Array.length r.intervals then
    failf "%s: interval counts differ" label
  else
    Array.iteri
      (fun i (ki : Relaxation.interval_solution) ->
        let ri = r.intervals.(i) in
        if not (feq ki.cost ri.cost) then
          failf "%s: interval %d cost %h <> %h" label i ki.cost ri.cost;
        if not (feq ki.max_overload ri.max_overload) then
          failf "%s: interval %d max_overload differs" label i;
        let ids l = List.map fst l in
        if ids ki.flow_paths <> ids ri.flow_paths then
          failf "%s: interval %d flow ids differ" label i
        else
          List.iter2
            (fun (id, kp) (_, rp) ->
              if not (same_weighted_paths kp rp) then
                failf "%s: interval %d flow %d paths differ" label i id)
            ki.flow_paths ri.flow_paths)
      k.intervals

let differential () =
  let cases = Gen.batch ~seed:20260808 ~n:12 in
  Array.iter
    (fun (case : Gen.case) ->
      let inst = case.instance in
      let k = Relaxation.solve ~fw_config inst in
      let r = Relaxation.solve ~fw_config:reference_config inst in
      check_relaxation (Printf.sprintf "case %d (%s)" case.index case.label) k r)
    cases;
  Printf.printf "check_kernel: differential ok (%d cases)\n%!" (Array.length cases)

let check_solution label (k : Fw.solution) (r : Fw.solution) =
  let same_array a b =
    Array.length a = Array.length b && Array.for_all2 feq a b
  in
  if not (feq k.cost r.cost) then
    failf "%s: cost %h (kernel) <> %h (reference)" label k.cost r.cost;
  if not (feq k.gap r.gap) then failf "%s: gap %h <> %h" label k.gap r.gap;
  if k.iterations <> r.iterations then
    failf "%s: %d iterations <> %d" label k.iterations r.iterations;
  if not (same_array k.loads r.loads) then failf "%s: loads differ" label;
  if not (Array.length k.flows = Array.length r.flows
          && Array.for_all2 same_array k.flows r.flows)
  then failf "%s: flows differ" label

(* Host 0 reaches host 1 over a direct link and over two three-hop
   routes that share their first link; under a linear envelope the
   direct link is three times cheaper, so each pairwise step is a full
   step (t = 1) out of a three-hop route. *)
let pairwise_cases () =
  let module G = Dcn_topology.Graph in
  let b = G.Builder.create () in
  let host () = G.Builder.add_node b G.Host in
  let switch () = G.Builder.add_node b (G.Switch { tier = 0 }) in
  let h0 = host () and h1 = host () in
  let sw = switch () and sa = switch () and sb = switch () in
  let cable u v = fst (G.Builder.add_cable b u v) in
  let direct = cable h0 h1 and shared = cable h0 sw in
  let route_a = [ shared; cable sw sa; cable sa h1 ] in
  let route_b = [ shared; cable sw sb; cable sb h1 ] in
  let g = G.Builder.finish b in
  let power = Model.make ~sigma:4. ~mu:1. ~alpha:2. () in
  let problem demand =
    {
      Fw.graph = g;
      commodities = [| Dcn_mcf.Commodity.make ~index:0 ~src:h0 ~dst:h1 ~demand |];
      cost = Model.envelope power;
      cost_deriv = Model.envelope_deriv power;
      capacity = infinity;
    }
  in
  let wp links weight = { Dcn_mcf.Decompose.links; weight } in
  let cases =
    [
      (* s = the direct link is active from the start: weight merges. *)
      ("merge into active s", 1., [ wp route_a 0.5; wp [ direct ] 0.5 ]);
      (* Identical warm paths merge into one before the first step. *)
      ("identical warm paths", 1.5, [ wp route_b 1.; wp [ direct ] 1.; wp route_b 1. ]);
    ]
  in
  List.iter
    (fun (label, demand, warm) ->
      let warm_start _ = warm in
      let p = problem demand in
      let k =
        Fw.solve ~config:fw_config ~warm_start ~piecewise:(Relaxation.piecewise_of power) p
      in
      let r = Fw.solve_reference ~config:fw_config ~warm_start p in
      check_solution label k r;
      if not (k.Fw.loads.(direct) = demand && k.Fw.loads.(shared) = 0.) then
        failf "%s: direct link carries %h, shared link %h (want %h and 0)" label
          k.Fw.loads.(direct) k.Fw.loads.(shared) demand)
    cases;
  Printf.printf "check_kernel: pairwise cases ok (%d cases)\n%!" (List.length cases)

(* 30 paper-random flows solved cold, then a 31st arrives and the
   intervals its span overlaps are re-solved from the cold solution's
   paths; both engines, bit-identical at each stage. *)
let warm_resolve_cases () =
  let module B = Dcn_topology.Builders in
  let cases =
    [
      ( "serving model, cap 1.5",
        B.leaf_spine ~spines:2 ~leaves:4 ~hosts_per_leaf:4,
        Model.make ~sigma:0. ~mu:1. ~alpha:2. ~cap:1.5 (),
        true );
      ("alpha 3, sigma 2", B.fat_tree 4, Model.make ~sigma:2. ~mu:1. ~alpha:3. (), false);
    ]
  in
  List.iter
    (fun (label, graph, power, overloaded) ->
      let flows =
        Dcn_flow.Workload.paper_random ~rng:(Dcn_util.Prng.create 7) ~graph ~n:31 ()
      in
      let arrival = List.nth flows 30 in
      let before = List.filteri (fun i _ -> i < 30) flows in
      let inst0 = Dcn_core.Instance.make ~graph ~power ~flows:before in
      let inst1 = Dcn_core.Instance.make ~graph ~power ~flows in
      let k0 = Relaxation.solve ~fw_config inst0 in
      let r0 = Relaxation.solve ~fw_config:reference_config inst0 in
      check_relaxation (label ^ ", cold") k0 r0;
      let window = (arrival.Dcn_flow.Flow.release, arrival.Dcn_flow.Flow.deadline) in
      let k1, stats = Relaxation.resolve ~fw_config ~previous:k0 ~window inst1 in
      let r1, _ = Relaxation.resolve ~fw_config:reference_config ~previous:r0 ~window inst1 in
      check_relaxation (label ^ ", warm") k1 r1;
      if stats.Relaxation.resolved = 0 then failf "%s: no interval re-solved" label;
      let over =
        Array.exists (fun (i : Relaxation.interval_solution) -> i.max_overload > 0.) k1.intervals
      in
      if overloaded && not over then failf "%s: no interval exceeds the capacity" label)
    cases;
  Printf.printf "check_kernel: warm re-solve cases ok (%d cases)\n%!" (List.length cases)

(* A single-interval F-MCF at fat-tree k=4 with one commodity per host
   pair sample: big enough that a boxed iteration allocates megabytes,
   small enough to run in milliseconds. *)
let alloc_problem () =
  let g = Dcn_topology.Builders.fat_tree 4 in
  let hosts = Dcn_topology.Graph.hosts g in
  let nh = Array.length hosts in
  let commodities =
    Array.init 24 (fun i ->
        let src = hosts.(i mod nh) in
        let dst = hosts.((i + (nh / 2)) mod nh) in
        Dcn_mcf.Commodity.make ~index:i ~src ~dst ~demand:(1. +. (0.125 *. float_of_int i)))
  in
  let power = Model.make ~sigma:1. ~mu:1. ~alpha:2. ~cap:50. () in
  ( {
      Fw.graph = g;
      commodities;
      cost = Model.envelope power;
      cost_deriv = Model.envelope_deriv power;
      capacity = power.Model.cap;
    },
    Relaxation.piecewise_of power )

(* Each commodity's hop-count path as its warm start: the same starting
   point as a cold solve, but the solve takes pairwise steps. *)
let hop_warm_start (problem : Fw.problem) i =
  let c = problem.commodities.(i) in
  let g = problem.graph in
  let tree = Dcn_topology.Paths.shortest_tree g ~src:c.Dcn_mcf.Commodity.src in
  match Dcn_topology.Paths.extract_path g tree ~dst:c.Dcn_mcf.Commodity.dst with
  | Some links -> [ { Dcn_mcf.Decompose.links; weight = 1. } ]
  | None -> []

(* Minor words per FW iteration, exactly: the difference between two
   solves on warm arenas that both run every iteration they are allowed
   ([gap_tol = 0], and every iteration moves some commodity), over the
   difference in iteration counts.  Setup and copy-out are the same in
   both solves and cancel. *)
let allocation () =
  let problem, piecewise = alloc_problem () in
  let config iters = { Fw.default_config with max_iters = iters; gap_tol = 0. } in
  let short = 5 and long = 12 in
  let per_iteration label warm_start =
    let measured iters =
      let config = config iters in
      let before = Gc.minor_words () in
      let sol = Fw.solve ~config ~warm_start ~piecewise problem in
      let words = Gc.minor_words () -. before in
      if sol.Fw.iterations <> iters then
        failf "allocation (%s): %d of %d iterations ran" label sol.Fw.iterations iters;
      let refsol = Fw.solve_reference ~config ~warm_start problem in
      if not (feq refsol.Fw.cost sol.Fw.cost) then
        failf "allocation (%s): kernel cost %h <> reference %h" label sol.Fw.cost
          refsol.Fw.cost;
      (words, sol)
    in
    (* Warm-up: sizes the arenas. *)
    let _, warm = measured long in
    let w_short, _ = measured short in
    let w_long, sol = measured long in
    if not (feq warm.Fw.cost sol.Fw.cost) then
      failf "allocation (%s): warm-up and measured solves disagree" label;
    let per_iter = (w_long -. w_short) /. float_of_int (long - short) in
    Printf.printf "check_kernel: %s: %.0f minor words/iteration (%d vs %d iterations)\n%!"
      label per_iter long short;
    if per_iter > 128. then
      failf "allocation (%s): %.0f minor words per FW iteration (budget 128)" label
        per_iter
  in
  per_iteration "joint steps, no warm start" (fun _ -> []);
  per_iteration "pairwise sweeps, warm start" (hop_warm_start problem)

(* The telemetry layer's disabled contract: with the metrics registry
   off (this harness never enables it), every Dcn_obs update must
   return after a single branch without allocating.  The kernel loop
   increments a registry counter per FW iteration, so an allocating
   disabled path would also blow the per-iteration budget above — this
   checks the contract directly, on every update helper.  (Constant
   float arguments: caller-side boxing would be the caller's
   allocation, not the registry's.) *)
let registry_disabled_alloc () =
  if Dcn_obs.Registry.on () then
    failf "registry_disabled: registry unexpectedly enabled"
  else begin
    let c = Dcn_obs.Registry.counter "check.kernel.disabled" in
    let g = Dcn_obs.Registry.gauge "check.kernel.disabled_gauge" in
    let h = Dcn_obs.Registry.histogram "check.kernel.disabled_hist" in
    let before = Gc.minor_words () in
    for _ = 1 to 100_000 do
      Dcn_obs.Registry.incr c;
      Dcn_obs.Registry.add c 2.5;
      Dcn_obs.Registry.set g 1.5;
      Dcn_obs.Registry.observe h 0.25
    done;
    let delta = Gc.minor_words () -. before in
    if delta > 0. then
      failf "registry_disabled: %.0f minor words allocated while disabled" delta
    else
      Printf.printf "check_kernel: disabled-registry hot path allocation-free\n%!"
  end

let write_trace path =
  let t = Trace.create () in
  let problem, piecewise = alloc_problem () in
  let config = { Fw.default_config with max_iters = 20 } in
  Trace.with_trace t (fun () ->
      (* Two solves: the first grows the arenas (ws.grow), the second
         reuses them (ws.reuse). *)
      ignore (Fw.solve ~config ~piecewise problem);
      ignore (Fw.solve ~config ~piecewise problem));
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true (Trace.to_json t));
  output_char oc '\n';
  close_out oc;
  Printf.printf "check_kernel: trace written to %s\n%!" path

let () =
  let trace_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--trace" :: path :: rest ->
      trace_out := Some path;
      parse rest
    | arg :: _ ->
      Printf.eprintf "check_kernel: unknown argument %s\n%!" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  differential ();
  pairwise_cases ();
  warm_resolve_cases ();
  allocation ();
  registry_disabled_alloc ();
  Option.iter write_trace !trace_out;
  if !failures > 0 then exit 1
