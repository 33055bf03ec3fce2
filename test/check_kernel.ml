(* Kernel differential + allocation harness (the @check-kernel alias).

   1. Differential: over seeded Dcn_check.Gen instances, the flat-kernel
      Frank-Wolfe engine and the boxed reference engine must produce
      BIT-IDENTICAL relaxations - same costs, bounds, overloads and
      weighted path decompositions.  This is the contract that lets
      Random_schedule round either engine's fractional solution into the
      same certified schedule.
   2. Allocation: after a warm-up solve, a kernel-engine FW iteration
      must allocate at most 128 minor-heap words - the workspace arenas
      absorb the hot path, where a boxed iteration burns millions.
   3. With --trace FILE, writes a traced kernel run (fw.kernel spans,
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

let fw_config = { Fw.default_config with max_iters = 60; gap_tol = 1e-3 }
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

(* Minor words per FW iteration, exactly: the difference between two
   warm solves that both run every iteration they are allowed
   ([gap_tol = 0]), over the difference in iteration counts.  Setup and
   copy-out are the same in both solves and cancel. *)
let allocation () =
  let problem, piecewise = alloc_problem () in
  let config iters = { Fw.default_config with max_iters = iters; gap_tol = 0. } in
  let short = 5 and long = 12 in
  let measured iters =
    let config = config iters in
    let before = Gc.minor_words () in
    let sol = Fw.solve ~config ~piecewise problem in
    let words = Gc.minor_words () -. before in
    if sol.Fw.iterations <> iters then
      failf "allocation: %d of %d iterations ran" sol.Fw.iterations iters;
    let refsol = Fw.solve_reference ~config problem in
    if not (feq refsol.Fw.cost sol.Fw.cost) then
      failf "allocation: kernel cost %h <> reference %h" sol.Fw.cost refsol.Fw.cost;
    (words, sol)
  in
  (* Warm-up: sizes the arenas. *)
  let _, warm = measured long in
  let w_short, _ = measured short in
  let w_long, sol = measured long in
  if not (feq warm.Fw.cost sol.Fw.cost) then
    failf "allocation: warm-up and measured solves disagree";
  let per_iter = (w_long -. w_short) /. float_of_int (long - short) in
  Printf.printf "check_kernel: %.0f minor words/iteration (%d vs %d iterations)\n%!"
    per_iter long short;
  if per_iter > 128. then
    failf "allocation: %.0f minor words per FW iteration (budget 128)" per_iter

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
  allocation ();
  registry_disabled_alloc ();
  Option.iter write_trace !trace_out;
  if !failures > 0 then exit 1
