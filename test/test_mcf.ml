(* Tests for Dcn_mcf: the Frank-Wolfe convex MCF solver is checked
   against closed-form optima on parallel-link and line networks, its
   own duality gap, and flow-conservation invariants; the
   Raghavan-Tompson decomposition must recompose to the fractional
   solution. *)

open Dcn_mcf
module Graph = Dcn_topology.Graph
module Builders = Dcn_topology.Builders

let quad = ((fun x -> x *. x), fun x -> 2. *. x)

let problem ?(capacity = infinity) ?(cost = quad) graph commodities =
  let c, c' = cost in
  { Frank_wolfe.graph; commodities = Array.of_list commodities; cost = c;
    cost_deriv = c'; capacity }

let commodity ~index ~src ~dst ~demand = Commodity.make ~index ~src ~dst ~demand

(* Net flow out of a node for one commodity. *)
let net_out g flow v =
  let out = Array.fold_left (fun acc l -> acc +. flow.(l)) 0. (Graph.out_links g v) in
  let inc = Array.fold_left (fun acc l -> acc +. flow.(l)) 0. (Graph.in_links g v) in
  out -. inc

let test_commodity_invalid () =
  let invalid f = Alcotest.(check bool) "invalid" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  invalid (fun () -> commodity ~index:0 ~src:0 ~dst:0 ~demand:1.);
  invalid (fun () -> commodity ~index:0 ~src:0 ~dst:1 ~demand:0.)

let test_fw_line_forced_route () =
  (* On a line there is a single route: cost = hops * cost(demand). *)
  let g = Builders.line 4 in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:3 ~demand:5. ] in
  let s = Frank_wolfe.solve p in
  Alcotest.(check (float 1e-6)) "cost = 3 * 25" 75. s.Frank_wolfe.cost;
  Alcotest.(check bool) "gap tiny" true (s.Frank_wolfe.gap < 1e-3)

let test_fw_parallel_even_split () =
  (* Quadratic cost on k parallel links: optimal split is even.
     demand 8 over 4 links -> 4 * (8/4)^2 = 16. *)
  let g = Builders.parallel ~links:4 in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:8. ] in
  let s = Frank_wolfe.solve p in
  Alcotest.(check bool)
    (Printf.sprintf "cost %.4f close to 16" s.Frank_wolfe.cost)
    true
    (Float.abs (s.Frank_wolfe.cost -. 16.) /. 16. < 0.02);
  (* Each of the 4 forward links carries about 2. *)
  List.iter
    (fun l ->
      Alcotest.(check bool) "balanced" true
        (Float.abs (s.Frank_wolfe.loads.(l) -. 2.) < 0.15))
    (Graph.links_between g ~src:0 ~dst:1)

let test_fw_two_commodities_share () =
  (* Two opposite commodities on the same parallel pair use opposite
     directed links and do not interact. *)
  let g = Builders.parallel ~links:2 in
  let p =
    problem g
      [
        commodity ~index:0 ~src:0 ~dst:1 ~demand:4.;
        commodity ~index:1 ~src:1 ~dst:0 ~demand:2.;
      ]
  in
  let s = Frank_wolfe.solve p in
  (* 2*(4/2)^2 + 2*(2/2)^2 = 8 + 2 = 10 *)
  Alcotest.(check bool)
    (Printf.sprintf "cost %.4f close to 10" s.Frank_wolfe.cost)
    true
    (Float.abs (s.Frank_wolfe.cost -. 10.) /. 10. < 0.02)

let test_fw_lower_bound () =
  let g = Builders.parallel ~links:3 in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:6. ] in
  let s = Frank_wolfe.solve p in
  let lb = Frank_wolfe.lower_bound_cost p s in
  (* true optimum is 3 * 4 = 12 *)
  Alcotest.(check bool) "lb below cost" true (lb <= s.Frank_wolfe.cost +. 1e-12);
  Alcotest.(check bool) "lb below optimum" true (lb <= 12. +. 1e-9);
  Alcotest.(check bool) "lb close to optimum" true (lb > 11.5)

let test_fw_capacity_overload_reported () =
  (* One link, demand above capacity: the penalty cannot reroute, so the
     overload must be reported. *)
  let g = Builders.parallel ~links:1 in
  let p = problem ~capacity:1. g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:1.5 ] in
  let s = Frank_wolfe.solve p in
  Alcotest.(check bool) "overload about 0.5" true
    (Float.abs (s.Frank_wolfe.max_overload -. 0.5) < 1e-6)

let test_fw_capacity_respected_when_possible () =
  (* Three links with capacity 3 and demand 6: even split respects. *)
  let g = Builders.parallel ~links:3 in
  let p = problem ~capacity:3. g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:6. ] in
  let s = Frank_wolfe.solve p in
  Alcotest.(check bool) "within capacity (tolerance)" true
    (s.Frank_wolfe.max_overload < 0.05)

let test_fw_quartic_even_split () =
  (* x^4 on 4 parallel links, demand 8: optimum 4 * 2^4 = 64. *)
  let g = Builders.parallel ~links:4 in
  let quartic = ((fun x -> x ** 4.), fun x -> 4. *. (x ** 3.)) in
  let p = problem ~cost:quartic g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:8. ] in
  let s = Frank_wolfe.solve p in
  Alcotest.(check bool)
    (Printf.sprintf "cost %.3f close to 64" s.Frank_wolfe.cost)
    true
    (Float.abs (s.Frank_wolfe.cost -. 64.) /. 64. < 0.03)

let test_fw_envelope_cost () =
  (* The fixed-charge envelope: sigma = 4, mu = 1, alpha = 2 gives
     r_opt = 2 and a linear segment of slope 4 below it.  A demand of 2
     on 2 parallel links costs 8 however it is split (the envelope is
     linear there), so Frank-Wolfe must find cost ~8. *)
  let model = Dcn_power.Model.make ~sigma:4. ~mu:1. ~alpha:2. () in
  let g = Builders.parallel ~links:2 in
  let p =
    problem
      ~cost:(Dcn_power.Model.envelope model, Dcn_power.Model.envelope_deriv model)
      g
      [ commodity ~index:0 ~src:0 ~dst:1 ~demand:2. ]
  in
  let s = Frank_wolfe.solve p in
  Alcotest.(check bool)
    (Printf.sprintf "cost %.4f close to 8" s.Frank_wolfe.cost)
    true
    (Float.abs (s.Frank_wolfe.cost -. 8.) < 0.05)

let test_fw_empty_commodities () =
  let g = Builders.line 2 in
  Alcotest.(check bool) "raises" true
    (try ignore (Frank_wolfe.solve (problem g [])); false
     with Invalid_argument _ -> true)

let test_fw_fat_tree_host_links_forced () =
  (* In a fat-tree every host has one uplink: the commodity's full
     demand must appear there no matter how the core splits. *)
  let g = Builders.fat_tree 4 in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:15 ~demand:3. ] in
  let s = Frank_wolfe.solve p in
  let up = (Graph.out_links g 0).(0) in
  Alcotest.(check (float 1e-6)) "host uplink carries demand" 3. s.Frank_wolfe.loads.(up);
  Alcotest.(check bool) "converged" true
    (s.Frank_wolfe.gap < 1e-3 *. Float.max 1. s.Frank_wolfe.cost)

let test_fw_fat_tree_beats_single_path () =
  (* With quadratic cost, splitting across the 4 disjoint cross-pod
     routes beats any single path: single-path cost = 6 * d^2; the
     4 middle hops can be split 4 ways. *)
  let g = Builders.fat_tree 4 in
  let d = 4. in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:15 ~demand:d ] in
  let s = Frank_wolfe.solve p in
  Alcotest.(check bool)
    (Printf.sprintf "cost %.3f < single-path %.3f" s.Frank_wolfe.cost (6. *. d *. d))
    true
    (s.Frank_wolfe.cost < 6. *. d *. d)

(* --- decomposition ------------------------------------------------ *)

let test_decompose_single_path () =
  let g = Builders.line 3 in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:2 ~demand:2. ] in
  let s = Frank_wolfe.solve p in
  let paths = Decompose.run g ~src:0 ~dst:2 ~flow:s.Frank_wolfe.flows.(0) in
  Alcotest.(check int) "one path" 1 (List.length paths);
  Alcotest.(check (float 1e-6)) "full weight" 2. (Decompose.total_weight paths)

let test_decompose_parallel_split () =
  let g = Builders.parallel ~links:4 in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:8. ] in
  let s = Frank_wolfe.solve p in
  let paths = Decompose.run g ~src:0 ~dst:1 ~flow:s.Frank_wolfe.flows.(0) in
  Alcotest.(check bool) "several paths" true (List.length paths >= 2);
  Alcotest.(check bool) "weights sum to demand" true
    (Float.abs (Decompose.total_weight paths -. 8.) < 1e-6);
  List.iter
    (fun (wp : Decompose.weighted_path) ->
      Alcotest.(check bool) "valid path" true (Graph.is_path g ~src:0 ~dst:1 wp.links))
    paths

let test_decompose_cycle_cancelling () =
  (* Hand-build a flow with a spurious cycle on a 4-node line plus the
     path: the cycle must disappear, the path must survive. *)
  let g = Builders.line 4 in
  let flow = Array.make (Graph.num_links g) 0. in
  let set u v x =
    match Graph.find_link g ~src:u ~dst:v with
    | Some l -> flow.(l) <- flow.(l) +. x
    | None -> Alcotest.fail "missing link"
  in
  set 0 1 1.;
  set 1 2 1.;
  set 2 3 1.;
  (* cycle 1 -> 2 -> 1 *)
  set 1 2 0.5;
  set 2 1 0.5;
  let paths = Decompose.run g ~src:0 ~dst:3 ~flow in
  Alcotest.(check (float 1e-9)) "path weight 1" 1. (Decompose.total_weight paths);
  List.iter
    (fun (wp : Decompose.weighted_path) ->
      Alcotest.(check int) "simple 3-hop path" 3 (List.length wp.links))
    paths

let test_decompose_dead_end_noise () =
  (* A dangling branch that conserves nothing is dropped silently. *)
  let g = Builders.star ~leaves:3 in
  let flow = Array.make (Graph.num_links g) 0. in
  let set u v x =
    match Graph.find_link g ~src:u ~dst:v with
    | Some l -> flow.(l) <- flow.(l) +. x
    | None -> Alcotest.fail "missing link"
  in
  (* hub is node 3; route 0 -> 3 -> 1 plus noise 0 -> 3 -> 2 (dead end
     at host 2 which is not the destination). *)
  set 0 3 1.1;
  set 3 1 1.;
  set 3 2 0.1;
  let paths = Decompose.run g ~src:0 ~dst:1 ~flow in
  Alcotest.(check bool) "recovers the real path" true
    (Float.abs (Decompose.total_weight paths -. 1.) < 0.2)

let test_decompose_empty () =
  let g = Builders.line 3 in
  let flow = Array.make (Graph.num_links g) 0. in
  Alcotest.(check int) "no flow, no paths" 0
    (List.length (Decompose.run g ~src:0 ~dst:2 ~flow))

(* --- properties --------------------------------------------------- *)

let random_problem seed =
  let rng = Dcn_util.Prng.create seed in
  let g = Builders.random_fabric ~switches:6 ~degree:3 ~hosts:8 ~seed in
  let hosts = Graph.hosts g in
  let nc = 1 + Dcn_util.Prng.int rng 5 in
  let commodities =
    List.init nc (fun index ->
        let src = Dcn_util.Prng.pick rng hosts in
        let rec dst () =
          let d = Dcn_util.Prng.pick rng hosts in
          if d = src then dst () else d
        in
        commodity ~index ~src ~dst:(dst ()) ~demand:(0.5 +. Dcn_util.Prng.float rng 5.))
  in
  (g, commodities)

let prop_fw_conservation =
  QCheck.Test.make ~name:"frank-wolfe: flows conserve at every node" ~count:40
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let g, commodities = random_problem seed in
      let s = Frank_wolfe.solve (problem g commodities) in
      List.for_all
        (fun (c : Commodity.t) ->
          let flow = s.Frank_wolfe.flows.(c.index) in
          let ok = ref true in
          for v = 0 to Graph.num_nodes g - 1 do
            let expected =
              if v = c.src then c.demand else if v = c.dst then -.c.demand else 0.
            in
            if Float.abs (net_out g flow v -. expected) > 1e-6 then ok := false
          done;
          !ok)
        commodities)

let prop_fw_gap_bounds_optimum =
  QCheck.Test.make ~name:"frank-wolfe: duality lower bound below cost" ~count:40
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let g, commodities = random_problem seed in
      let p = problem g commodities in
      let s = Frank_wolfe.solve p in
      Frank_wolfe.lower_bound_cost p s <= s.Frank_wolfe.cost +. 1e-9)

let prop_decompose_recomposes =
  QCheck.Test.make ~name:"decompose: paths recompose the link flows" ~count:40
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let g, commodities = random_problem seed in
      let s = Frank_wolfe.solve (problem g commodities) in
      List.for_all
        (fun (c : Commodity.t) ->
          let flow = s.Frank_wolfe.flows.(c.index) in
          let paths = Decompose.run g ~src:c.src ~dst:c.dst ~flow in
          let rebuilt = Array.make (Graph.num_links g) 0. in
          List.iter
            (fun (wp : Decompose.weighted_path) ->
              List.iter (fun l -> rebuilt.(l) <- rebuilt.(l) +. wp.weight) wp.links)
            paths;
          let ok = ref true in
          (* Decomposition may cancel opposite-direction pairs (cycles in
             the union of iterates), so the rebuilt flow is a lower
             envelope of the fractional one, never an excess. *)
          Array.iteri
            (fun l x -> if x > flow.(l) +. 1e-5 then ok := false)
            rebuilt;
          !ok
          && Float.abs (Decompose.total_weight paths -. c.demand) < 1e-5
          && List.for_all
               (fun (wp : Decompose.weighted_path) ->
                 Graph.is_path g ~src:c.src ~dst:c.dst wp.links && wp.weight > 0.)
               paths)
        commodities)

(* --- Kernel.dijkstra ------------------------------------------------- *)

(* Switches 0 and 1 on a cable, hosts 2 and 3 on one each, and two
   one-way links that [Graph] cannot build, made by mirroring a cable in
   one direction only: host 4 is cabled to both switches but keeps only
   0 -> 4 and 4 -> 1 (one in-link, one out-link, two neighbours), and
   host 5 hangs off switch 1 with a second link 0 -> 5 into it. *)
let one_way_graph () =
  let b = Graph.Builder.create () in
  let s0 = Graph.Builder.add_node b (Graph.Switch { tier = 0 }) in
  let s1 = Graph.Builder.add_node b (Graph.Switch { tier = 0 }) in
  let h () = Graph.Builder.add_node b Graph.Host in
  let h2 = h () and h3 = h () and h4 = h () and h5 = h () in
  ignore (Graph.Builder.add_cable b s0 s1);
  ignore (Graph.Builder.add_cable b s0 h2);
  ignore (Graph.Builder.add_cable b s1 h3);
  let _, h4_s0 = Graph.Builder.add_cable b s0 h4 in
  let s1_h4, _ = Graph.Builder.add_cable b s1 h4 in
  ignore (Graph.Builder.add_cable b s1 h5);
  let _, h5_s0 = Graph.Builder.add_cable b s0 h5 in
  (Graph.Builder.finish b, [ h4_s0; s1_h4; h5_s0 ], [ h4; h5 ])

(* (label, graph, links left out of the mirror, nodes that must not be
   leaves). *)
let dijkstra_graphs =
  let all_nodes g = List.init (Graph.num_nodes g) Fun.id in
  let parallel = Builders.parallel ~links:3 in
  let one_way, banned, not_leaves = one_way_graph () in
  [
    ("line", Builders.line 5, [], []);
    ("star", Builders.star ~leaves:5, [], []);
    ("parallel", parallel, [], all_nodes parallel);
    ("leaf-spine", Builders.leaf_spine ~spines:2 ~leaves:3 ~hosts_per_leaf:2, [], []);
    ("fat-tree 4", Builders.fat_tree 4, [], []);
    ("bcube", Builders.bcube ~n:3 ~level:1, [], []);
    ("dcell", Builders.dcell ~n:2 ~level:1, [], []);
    ("random fabric", Builders.random_fabric ~switches:6 ~degree:3 ~hosts:8 ~seed:3, [], []);
    ("one-way", one_way, banned, not_leaves);
  ]

let dijkstra_ws = Kernel.Workspace.create ()

(* The leaf definition, on the links that stay: one in-link and one
   out-link, joining the node to one other node. *)
let expected_leaf g ~kept v =
  let ins = List.filter kept (Array.to_list (Graph.in_links g v)) in
  let outs = List.filter kept (Array.to_list (Graph.out_links g v)) in
  match (ins, outs) with
  | [ i ], [ o ] -> Graph.link_src g i = Graph.link_dst g o && Graph.link_dst g o <> v
  | _ -> false

let prop_dijkstra_matches_paths =
  QCheck.Test.make ~name:"kernel: dijkstra = Paths.shortest_tree, full and early exit"
    ~count:300
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let rng = Dcn_util.Prng.create seed in
      let label, g, banned, not_leaves = Dcn_util.Prng.pick rng (Array.of_list dijkstra_graphs) in
      let kept l = not (List.mem l banned) in
      let n = Graph.num_nodes g and m = Graph.num_links g in
      let a = Kernel.acquire dijkstra_ws ~graph:g ~nc:1 in
      if banned <> [] then Kernel.mirror a g ~keep:kept;
      let fail fmt = Printf.ksprintf (fun msg -> QCheck.Test.fail_reportf "%s: %s" label msg) fmt in
      for v = 0 to n - 1 do
        if (a.Kernel.leaf.{v} = 1) <> expected_leaf g ~kept v then fail "leaf mark of node %d" v;
        if List.mem v not_leaves && a.Kernel.leaf.{v} = 1 then fail "node %d marked a leaf" v
      done;
      (* Weights from a four-value set, so equal distances (ties) are
         common; hop counts on one run in four. *)
      let use_weights = Dcn_util.Prng.int rng 4 > 0 in
      for l = 0 to m - 1 do
        a.Kernel.weights.{l} <- 0.5 *. float_of_int (Dcn_util.Prng.int rng 4)
      done;
      let tie = if Dcn_util.Prng.int rng 2 = 0 then 0. else 1e-9 in
      let weight l = if use_weights then a.Kernel.weights.{l} +. tie else 1. in
      let src = Dcn_util.Prng.int rng n in
      let tree =
        Dcn_topology.Paths.shortest_tree ~weight ~banned_links:(fun l -> not (kept l)) g ~src
      in
      let same v =
        Int64.equal (Int64.bits_of_float a.Kernel.dist.{v}) (Int64.bits_of_float tree.dist.(v))
        && a.Kernel.pred.{v} = tree.pred.(v)
      in
      Kernel.dijkstra a ~src ~use_weights ~tie;
      for v = 0 to n - 1 do
        if not (same v) then fail "full run from %d: node %d differs" src v
      done;
      (* Early exit: every marked node's pred chain, back to the root. *)
      let marked = List.init (1 + Dcn_util.Prng.int rng 3) (fun _ -> Dcn_util.Prng.int rng n) in
      List.iter (Kernel.mark_target a) marked;
      Kernel.dijkstra a ~src ~use_weights ~tie;
      List.iter
        (fun dst ->
          let rec chain v =
            if not (same v) then fail "early exit from %d to %d: node %d differs" src dst v;
            if a.Kernel.pred.{v} >= 0 then chain (Graph.link_src g a.Kernel.pred.{v})
          in
          chain dst)
        marked;
      for v = 0 to n - 1 do
        if a.Kernel.target.{v} <> 0 then fail "mark of node %d left set" v
      done;
      true)

(* --- exact line search ---------------------------------------------- *)

module Trace = Dcn_engine.Trace
module Json = Dcn_engine.Json

(* Solve under a trace; return the solution and each [fw.iter] record's
   (step, objective), in iteration order. *)
let traced_solve ?piecewise ?warm_start p =
  let t = Trace.create () in
  let s = Trace.with_trace t (fun () -> Frank_wolfe.solve ?piecewise ?warm_start p) in
  let field fields k =
    match List.assoc_opt k fields with
    | Some j -> Json.to_float j
    | None -> Alcotest.failf "fw.iter without %s" k
  in
  let iters =
    List.filter_map
      (fun (r : Trace.record) ->
        match r.entry with
        | Trace.Event { name = "fw.iter"; fields; _ } ->
          Some (field fields "step", field fields "objective")
        | _ -> None)
      (Trace.records t)
  in
  (s, iters)

(* Both engines: the reference (no piecewise spec) and the kernel. *)
let engines pw = [ ("reference", None); ("kernel", Some pw) ]

let first_step label iters =
  match iters with
  | (step, _) :: _ -> step
  | [] -> Alcotest.failf "%s: no fw.iter record" label

(* Linear cost: the envelope spec with an unreachable kink. *)
let linear = ((fun x -> x), fun _ -> 1.)

let linear_pw =
  { Frank_wolfe.threshold = infinity; slope = 1.; sigma = 0.; mu = 1.; alpha = 2. }

(* Hosts 0 and 1 joined directly and through switch 2; returns the
   graph, the direct link and the two-hop path. *)
let triangle () =
  let b = Graph.Builder.create () in
  let h0 = Graph.Builder.add_node b Graph.Host in
  let h1 = Graph.Builder.add_node b Graph.Host in
  let sw = Graph.Builder.add_node b (Graph.Switch { tier = 0 }) in
  let direct, _ = Graph.Builder.add_cable b h0 h1 in
  let up, _ = Graph.Builder.add_cable b h0 sw in
  let down, _ = Graph.Builder.add_cable b sw h1 in
  (Graph.Builder.finish b, direct, [ up; down ])

let test_ls_even_split_one_step () =
  (* x^3 on two identical links, everything starting on one: phi' is
     odd about 1/2, so the first secant lands on the even split and
     the next iteration certifies it. *)
  let g = Builders.parallel ~links:2 in
  let cubic = ((fun x -> x ** 3.), fun x -> 3. *. (x ** 2.)) in
  let pw = { Frank_wolfe.threshold = 0.; slope = 0.; sigma = 0.; mu = 1.; alpha = 3. } in
  List.iter
    (fun (engine, piecewise) ->
      let p = problem ~cost:cubic g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:4. ] in
      let s, iters = traced_solve ?piecewise p in
      let theta = first_step engine iters in
      Alcotest.(check bool)
        (Printf.sprintf "%s: first step %.17g is 1/2" engine theta)
        true
        (Float.abs (theta -. 0.5) <= 1e-9);
      Alcotest.(check bool)
        (Printf.sprintf "%s: stops within 2 iterations (%d)" engine
           s.Frank_wolfe.iterations)
        true
        (s.Frank_wolfe.iterations <= 2);
      List.iter
        (fun l -> Alcotest.(check (float 1e-9)) "link carries 2" 2. s.Frank_wolfe.loads.(l))
        (Graph.links_between g ~src:0 ~dst:1))
    (engines pw)

let test_ls_full_step () =
  (* Linear cost, all flow warm-started on the two-hop route: the cost
     falls all the way to the direct link (phi'(1) < 0), so the step is
     exactly 1. *)
  let g, direct, two_hop = triangle () in
  List.iter
    (fun (engine, piecewise) ->
      let p = problem ~cost:linear g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:3. ] in
      let warm_start _ = [ { Decompose.links = two_hop; weight = 1. } ] in
      let s, iters = traced_solve ?piecewise ~warm_start p in
      Alcotest.(check (float 0.)) (engine ^ ": full step") 1. (first_step engine iters);
      Alcotest.(check (float 0.)) (engine ^ ": direct link carries all") 3.
        s.Frank_wolfe.loads.(direct);
      Alcotest.(check (float 0.)) (engine ^ ": cost 3") 3. s.Frank_wolfe.cost)
    (engines linear_pw)

let test_ls_penalty_kink () =
  (* Linear cost, capacity 1, demand 2 starting on the direct link.
     Moving a fraction theta to the two-hop route costs 2 theta more
     hops but relieves the overload penalty until theta = 1/2, where
     both routes reach capacity.  With penalty p the penalised
     objective bottoms out just short of that kink, at
     theta = 1/2 - 1/(4p); the step must land there, not overshoot to
     the all-or-nothing point. *)
  let g, direct, _ = triangle () in
  let penalty = Frank_wolfe.penalty in
  let kink = 0.5 -. (1. /. (4. *. penalty)) in
  List.iter
    (fun (engine, piecewise) ->
      let p =
        problem ~capacity:1. ~cost:linear g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:2. ]
      in
      let s, iters = traced_solve ?piecewise p in
      let theta = first_step engine iters in
      Alcotest.(check bool)
        (Printf.sprintf "%s: step %.17g at the kink %.17g" engine theta kink)
        true
        (Float.abs (theta -. kink) <= 1e-9);
      Alcotest.(check bool)
        (Printf.sprintf "%s: direct-link overload %.3g is the penalty's slack" engine
           (s.Frank_wolfe.loads.(direct) -. 1.))
        true
        (Float.abs (s.Frank_wolfe.loads.(direct) -. 1. -. (1. /. (2. *. penalty))) <= 1e-6))
    (engines linear_pw)

let test_drop_step_empties_link () =
  (* Host 0 reaches host 1 directly and over two three-hop routes that
     share their first link.  Warm-started with 0.7 on one route and 0.1
     on the other, the shared link's load is 0.7 + 0.1, which rounds
     below 0.8; under the envelope's linear segment the direct link is
     three times cheaper, so the routes leave in two drop steps (t = 1)
     and the second one takes 0.1 from a load of 0.1 - 1.3e-16.
     Unclamped, pc' would see a negative rate, which the power model
     rejects. *)
  let b = Graph.Builder.create () in
  let host () = Graph.Builder.add_node b Graph.Host in
  let switch () = Graph.Builder.add_node b (Graph.Switch { tier = 0 }) in
  let h0 = host () and h1 = host () in
  let sw = switch () and sa = switch () and sb = switch () in
  let cable u v = fst (Graph.Builder.add_cable b u v) in
  let direct = cable h0 h1 and shared = cable h0 sw in
  let route_a = [ shared; cable sw sa; cable sa h1 ] in
  let route_b = [ shared; cable sw sb; cable sb h1 ] in
  let g = Graph.Builder.finish b in
  let power = Dcn_power.Model.make ~sigma:4. ~mu:1. ~alpha:2. () in
  let demand = 0.7 +. 0.1 in
  let warm_start _ =
    [ { Decompose.links = route_a; weight = 0.7 }; { links = route_b; weight = 0.1 } ]
  in
  let solutions =
    List.map
      (fun (engine, piecewise) ->
        let p =
          problem
            ~cost:(Dcn_power.Model.envelope power, Dcn_power.Model.envelope_deriv power)
            g
            [ commodity ~index:0 ~src:h0 ~dst:h1 ~demand ]
        in
        let s, iters = traced_solve ?piecewise ~warm_start p in
        (match iters with
        | (t1, _) :: (t2, _) :: _ ->
          Alcotest.(check (float 0.)) (engine ^ ": first step drops") 1. t1;
          Alcotest.(check (float 0.)) (engine ^ ": second step drops") 1. t2
        | _ -> Alcotest.failf "%s: fewer than two iterations" engine);
        Alcotest.(check (float 0.)) (engine ^ ": shared link empty") 0.
          s.Frank_wolfe.loads.(shared);
        Alcotest.(check (float 0.)) (engine ^ ": direct link carries all") demand
          s.Frank_wolfe.loads.(direct);
        Array.iter
          (fun x -> Alcotest.(check bool) (engine ^ ": no negative load") true (x >= 0.))
          s.Frank_wolfe.loads;
        s)
      (engines (Dcn_core.Relaxation.piecewise_of power))
  in
  (* The two engines agree bit for bit. *)
  match solutions with
  | [ r; k ] ->
    let bits = Array.map Int64.bits_of_float in
    Alcotest.(check int64) "cost bits" (Int64.bits_of_float r.Frank_wolfe.cost)
      (Int64.bits_of_float k.Frank_wolfe.cost);
    Alcotest.(check int64) "gap bits" (Int64.bits_of_float r.Frank_wolfe.gap)
      (Int64.bits_of_float k.Frank_wolfe.gap);
    Alcotest.(check int) "iterations" r.Frank_wolfe.iterations k.Frank_wolfe.iterations;
    Alcotest.(check (array int64)) "load bits" (bits r.Frank_wolfe.loads)
      (bits k.Frank_wolfe.loads);
    Alcotest.(check (array (array int64))) "flow bits"
      (Array.map bits r.Frank_wolfe.flows) (Array.map bits k.Frank_wolfe.flows)
  | _ -> Alcotest.fail "expected two engines"

let test_fw_permuted_indices_rejected () =
  (* Both engines address an active set by [index] but read the
     demand at the array position: indices that are not the positions
     must be rejected, not silently mis-route. *)
  let g = Builders.fat_tree 4 in
  let hosts = Graph.hosts g in
  let pw = { Frank_wolfe.threshold = 0.; slope = 0.; sigma = 0.; mu = 1.; alpha = 2. } in
  List.iter
    (fun (engine, piecewise) ->
      let p =
        problem g
          [
            commodity ~index:1 ~src:hosts.(0) ~dst:hosts.(5) ~demand:1.;
            commodity ~index:0 ~src:hosts.(2) ~dst:hosts.(9) ~demand:5.;
          ]
      in
      Alcotest.(check bool)
        (engine ^ ": permuted indices raise")
        true
        (try
           ignore (Frank_wolfe.solve ?piecewise p);
           false
         with Invalid_argument _ -> true))
    (engines pw)

let test_ls_engines_same_work () =
  (* Both engines run [exact_step]: on the same instance they must
     spend the same iterations and derivative evaluations, with and
     without idle power and a capacity. *)
  List.iter
    (fun (seed, sigma, cap) ->
      let g, commodities = random_problem seed in
      let power = Dcn_power.Model.make ~sigma ~mu:1. ~alpha:2. ~cap () in
      let p =
        problem ~capacity:cap
          ~cost:(Dcn_power.Model.envelope power, Dcn_power.Model.envelope_deriv power)
          g commodities
      in
      let work =
        List.map
          (fun (_, piecewise) ->
            let t = Trace.create () in
            ignore (Trace.with_trace t (fun () -> Frank_wolfe.solve ?piecewise p));
            (Trace.counter_total t "fw.iters", Trace.counter_total t "fw.ls_evals"))
          (engines (Dcn_core.Relaxation.piecewise_of power))
      in
      match work with
      | [ (ri, re); (ki, ke) ] ->
        let label = Printf.sprintf "seed %d" seed in
        Alcotest.(check bool) (label ^ ": derivative evaluations ran") true (re > 0.);
        Alcotest.(check (float 0.)) (label ^ ": fw.iters") ri ki;
        Alcotest.(check (float 0.)) (label ^ ": fw.ls_evals") re ke
      | _ -> assert false)
    [ (3, 0., infinity); (8, 1., infinity); (21, 0., 4.); (34, 1., 4.) ]

(* Random instances on the kernel engine with the power model's
   envelope, with and without idle power and a capacity.  The descent
   guard compares the objective over the support only, so the full sum
   recomputed next iteration may differ from it by rounding: allow one
   part in 10^12. *)
let prop_ls_objective_monotone =
  QCheck.Test.make ~name:"frank-wolfe: fw.iter objective never increases" ~count:60
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let g, commodities = random_problem seed in
      let power =
        Dcn_power.Model.make
          ~sigma:(if seed mod 2 = 0 then 0. else 1.)
          ~mu:1.
          ~alpha:(if seed mod 3 = 0 then 3. else 2.)
          ~cap:(if seed mod 5 < 2 then 4. else infinity)
          ()
      in
      let p =
        problem ~capacity:power.Dcn_power.Model.cap
          ~cost:(Dcn_power.Model.envelope power, Dcn_power.Model.envelope_deriv power)
          g commodities
      in
      let _, iters = traced_solve ~piecewise:(Dcn_core.Relaxation.piecewise_of power) p in
      let rec monotone = function
        | (_, a) :: ((_, b) :: _ as rest) -> b <= a +. (1e-12 *. Float.abs a) && monotone rest
        | _ -> true
      in
      iters <> [] && monotone iters)

(* ------------------------------------------------------------------ *)
(* Determinism (group more/misc)                                      *)
(* ------------------------------------------------------------------ *)

let test_frank_wolfe_deterministic () =
  let g = Builders.fat_tree 4 in
  let commodities =
    Array.init 5 (fun index ->
        commodity ~index ~src:index ~dst:(15 - index) ~demand:(1. +. float_of_int index))
  in
  let problem =
    {
      Frank_wolfe.graph = g;
      commodities;
      cost = (fun x -> x *. x);
      cost_deriv = (fun x -> 2. *. x);
      capacity = infinity;
    }
  in
  let s1 = Frank_wolfe.solve problem in
  let s2 = Frank_wolfe.solve problem in
  Alcotest.(check (float 1e-9)) "same cost" s1.Frank_wolfe.cost s2.Frank_wolfe.cost;
  Alcotest.(check bool) "same loads" true (s1.Frank_wolfe.loads = s2.Frank_wolfe.loads)

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "mcf/frank_wolfe",
      [
        Alcotest.test_case "commodity invalid" `Quick test_commodity_invalid;
        Alcotest.test_case "line forced route" `Quick test_fw_line_forced_route;
        Alcotest.test_case "parallel even split" `Quick test_fw_parallel_even_split;
        Alcotest.test_case "two commodities" `Quick test_fw_two_commodities_share;
        Alcotest.test_case "duality lower bound" `Quick test_fw_lower_bound;
        Alcotest.test_case "capacity overload reported" `Quick
          test_fw_capacity_overload_reported;
        Alcotest.test_case "capacity respected" `Quick test_fw_capacity_respected_when_possible;
        Alcotest.test_case "quartic even split" `Quick test_fw_quartic_even_split;
        Alcotest.test_case "envelope cost" `Quick test_fw_envelope_cost;
        Alcotest.test_case "empty commodities" `Quick test_fw_empty_commodities;
        Alcotest.test_case "permuted indices rejected" `Quick
          test_fw_permuted_indices_rejected;
        Alcotest.test_case "fat-tree host links forced" `Quick
          test_fw_fat_tree_host_links_forced;
        Alcotest.test_case "fat-tree beats single path" `Quick
          test_fw_fat_tree_beats_single_path;
        qt prop_fw_conservation;
        qt prop_fw_gap_bounds_optimum;
      ] );
    ( "mcf/line_search",
      [
        Alcotest.test_case "even split in one step" `Quick test_ls_even_split_one_step;
        Alcotest.test_case "full step" `Quick test_ls_full_step;
        Alcotest.test_case "penalty kink" `Quick test_ls_penalty_kink;
        Alcotest.test_case "engines do the same work" `Quick test_ls_engines_same_work;
        Alcotest.test_case "drop step empties a link" `Quick test_drop_step_empties_link;
        qt prop_ls_objective_monotone;
      ] );
    ( "mcf/decompose",
      [
        Alcotest.test_case "single path" `Quick test_decompose_single_path;
        Alcotest.test_case "parallel split" `Quick test_decompose_parallel_split;
        Alcotest.test_case "cycle cancelling" `Quick test_decompose_cycle_cancelling;
        Alcotest.test_case "dead-end noise" `Quick test_decompose_dead_end_noise;
        Alcotest.test_case "empty flow" `Quick test_decompose_empty;
        qt prop_decompose_recomposes;
      ] );
    ("mcf/kernel", [ qt prop_dijkstra_matches_paths ]);
  ]

let more_misc =
  [ Alcotest.test_case "frank-wolfe deterministic" `Quick test_frank_wolfe_deterministic ]
