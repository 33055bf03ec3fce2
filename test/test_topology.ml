(* Tests for Dcn_topology: graph construction invariants, topology
   builders (structural properties of fat-tree, BCube, ...), and path
   algorithms (Dijkstra vs. BFS hop counts, Yen, enumeration). *)

open Dcn_topology

let test_builder_basic () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_node b Graph.Host in
  let c = Graph.Builder.add_node b (Graph.Switch { tier = 1 }) in
  let fwd, bwd = Graph.Builder.add_cable b a c in
  let g = Graph.Builder.finish b in
  Alcotest.(check int) "nodes" 2 (Graph.num_nodes g);
  Alcotest.(check int) "links" 2 (Graph.num_links g);
  Alcotest.(check int) "cables" 1 (Graph.num_cables g);
  Alcotest.(check int) "fwd src" a (Graph.link_src g fwd);
  Alcotest.(check int) "fwd dst" c (Graph.link_dst g fwd);
  Alcotest.(check int) "reverse pairs" bwd (Graph.reverse g fwd);
  Alcotest.(check int) "reverse involution" fwd (Graph.reverse g bwd);
  Alcotest.(check bool) "host kind" true (Graph.is_host g a);
  Alcotest.(check bool) "switch kind" false (Graph.is_host g c)

let test_builder_self_loop () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_node b Graph.Host in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.Builder.add_cable: self-loop")
    (fun () -> ignore (Graph.Builder.add_cable b a a))

let test_builder_reuse () =
  let b = Graph.Builder.create () in
  ignore (Graph.Builder.add_node b Graph.Host);
  ignore (Graph.Builder.finish b);
  Alcotest.check_raises "reuse" (Invalid_argument "Graph.Builder: reuse after finish")
    (fun () -> ignore (Graph.Builder.add_node b Graph.Host))

let test_multigraph () =
  let g = Builders.parallel ~links:4 in
  Alcotest.(check int) "nodes" 2 (Graph.num_nodes g);
  Alcotest.(check int) "cables" 4 (Graph.num_cables g);
  Alcotest.(check int) "parallel directed links" 4
    (List.length (Graph.links_between g ~src:0 ~dst:1))

let test_line () =
  let g = Builders.line 3 in
  Alcotest.(check int) "nodes" 3 (Graph.num_nodes g);
  Alcotest.(check int) "cables" 2 (Graph.num_cables g);
  Alcotest.(check bool) "connected" true (Graph.connected g);
  match Paths.shortest_path g ~src:0 ~dst:2 with
  | Some p -> Alcotest.(check int) "2 hops" 2 (List.length p)
  | None -> Alcotest.fail "no path on line"

let test_star () =
  let g = Builders.star ~leaves:5 in
  Alcotest.(check int) "nodes" 6 (Graph.num_nodes g);
  Alcotest.(check int) "hosts" 5 (Array.length (Graph.hosts g));
  Alcotest.(check int) "switches" 1 (Array.length (Graph.switches g));
  Alcotest.(check int) "hub degree" 5 (Graph.degree_out g 5)

let test_leaf_spine () =
  let g = Builders.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:16 in
  Alcotest.(check int) "hosts" 128 (Array.length (Graph.hosts g));
  Alcotest.(check int) "switches" 12 (Array.length (Graph.switches g));
  Alcotest.(check int) "cables" ((8 * 16) + (8 * 4)) (Graph.num_cables g);
  Alcotest.(check bool) "connected" true (Graph.connected g);
  (* Any host-to-host path between different leaves takes 4 hops. *)
  match Paths.shortest_path g ~src:0 ~dst:127 with
  | Some p -> Alcotest.(check int) "4 hops across leaves" 4 (List.length p)
  | None -> Alcotest.fail "no path in leaf-spine"

let test_fat_tree_k4 () =
  let g = Builders.fat_tree 4 in
  Alcotest.(check int) "hosts" 16 (Array.length (Graph.hosts g));
  Alcotest.(check int) "switches" 20 (Array.length (Graph.switches g));
  (* k^3/4 host links + k * (k/2)^2 edge-agg + (k/2)^2 * k agg-core *)
  Alcotest.(check int) "cables" (16 + 16 + 16) (Graph.num_cables g);
  Alcotest.(check bool) "connected" true (Graph.connected g);
  (* Every switch in a k=4 fat-tree has degree 4 (edge: 2 hosts + 2 aggs;
     agg: 2 edges + 2 cores; core: one agg per pod). *)
  Array.iter
    (fun sw -> Alcotest.(check int) "switch degree" 4 (Graph.degree_out g sw))
    (Graph.switches g)

let test_fat_tree_k8_is_paper_network () =
  let g = Builders.fat_tree 8 in
  Alcotest.(check int) "80 switches" 80 (Array.length (Graph.switches g));
  Alcotest.(check int) "128 servers" 128 (Array.length (Graph.hosts g));
  Alcotest.(check bool) "connected" true (Graph.connected g)

let test_fat_tree_path_lengths () =
  let g = Builders.fat_tree 4 in
  (* Same edge switch: 2 hops; same pod different edge: 4; across pods: 6. *)
  let hops src dst =
    match Paths.shortest_path g ~src ~dst with
    | Some p -> List.length p
    | None -> Alcotest.fail "unreachable in fat-tree"
  in
  Alcotest.(check int) "same edge" 2 (hops 0 1);
  Alcotest.(check int) "same pod" 4 (hops 0 2);
  Alcotest.(check int) "cross pod" 6 (hops 0 15)

let test_fat_tree_invalid () =
  Alcotest.check_raises "odd k" (Invalid_argument "Builders.fat_tree: k must be even and >= 2")
    (fun () -> ignore (Builders.fat_tree 3))

let test_bcube () =
  let g = Builders.bcube ~n:4 ~level:1 in
  (* BCube_1 with n=4: 16 hosts, 2*4 = 8 switches, each host has 2 links. *)
  Alcotest.(check int) "hosts" 16 (Array.length (Graph.hosts g));
  Alcotest.(check int) "switches" 8 (Array.length (Graph.switches g));
  Alcotest.(check bool) "connected" true (Graph.connected g);
  Array.iter
    (fun h -> Alcotest.(check int) "host degree = level+1" 2 (Graph.degree_out g h))
    (Graph.hosts g);
  Array.iter
    (fun sw -> Alcotest.(check int) "switch degree = n" 4 (Graph.degree_out g sw))
    (Graph.switches g)

let test_bcube_level0 () =
  let g = Builders.bcube ~n:3 ~level:0 in
  Alcotest.(check int) "hosts" 3 (Array.length (Graph.hosts g));
  Alcotest.(check int) "switches" 1 (Array.length (Graph.switches g))

let test_dcell_level0 () =
  let g = Builders.dcell ~n:4 ~level:0 in
  Alcotest.(check int) "hosts" 4 (Array.length (Graph.hosts g));
  Alcotest.(check int) "one switch" 1 (Array.length (Graph.switches g));
  Alcotest.(check int) "cables" 4 (Graph.num_cables g)

let test_dcell_level1 () =
  (* DCell_1 with n=4: 5 sub-cells of 4 hosts = 20 hosts, 5 switches,
     level-0 cables 20 + full interconnection C(5,2) = 10. *)
  let g = Builders.dcell ~n:4 ~level:1 in
  Alcotest.(check int) "hosts" 20 (Array.length (Graph.hosts g));
  Alcotest.(check int) "switches" 5 (Array.length (Graph.switches g));
  Alcotest.(check int) "cables" 30 (Graph.num_cables g);
  Alcotest.(check bool) "connected" true (Graph.connected g);
  (* Every host has exactly one level-1 cross link: degree 2. *)
  Array.iter
    (fun h -> Alcotest.(check int) "host degree" 2 (Graph.degree_out g h))
    (Graph.hosts g)

let test_dcell_level2 () =
  let g = Builders.dcell ~n:2 ~level:2 in
  (* t0=2, t1=6, t2=7*6=42 hosts; 21 switches. *)
  Alcotest.(check int) "hosts" 42 (Array.length (Graph.hosts g));
  Alcotest.(check int) "switches" 21 (Array.length (Graph.switches g));
  Alcotest.(check bool) "connected" true (Graph.connected g);
  Array.iter
    (fun h -> Alcotest.(check int) "host degree = level+1" 3 (Graph.degree_out g h))
    (Graph.hosts g)

let test_dcell_guard () =
  Alcotest.(check bool) "explosion guard" true
    (try ignore (Builders.dcell ~n:10 ~level:3); false with Invalid_argument _ -> true)

let test_fat_tree_k6 () =
  let g = Builders.fat_tree 6 in
  Alcotest.(check int) "hosts" 54 (Array.length (Graph.hosts g));
  Alcotest.(check int) "switches" 45 (Array.length (Graph.switches g));
  Alcotest.(check bool) "connected" true (Graph.connected g)

let test_bcube_level2 () =
  let g = Builders.bcube ~n:2 ~level:2 in
  Alcotest.(check int) "hosts" 8 (Array.length (Graph.hosts g));
  Alcotest.(check int) "switches" 12 (Array.length (Graph.switches g));
  Alcotest.(check bool) "connected" true (Graph.connected g);
  Array.iter
    (fun h -> Alcotest.(check int) "host degree" 3 (Graph.degree_out g h))
    (Graph.hosts g)

let test_builders_invalid_args () =
  let invalid f = Alcotest.(check bool) "invalid" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  invalid (fun () -> Builders.line 1);
  invalid (fun () -> Builders.parallel ~links:0);
  invalid (fun () -> Builders.star ~leaves:1);
  invalid (fun () -> Builders.leaf_spine ~spines:0 ~leaves:1 ~hosts_per_leaf:1);
  invalid (fun () -> Builders.bcube ~n:1 ~level:0);
  invalid (fun () -> Builders.bcube ~n:2 ~level:(-1));
  invalid (fun () -> Builders.random_fabric ~switches:5 ~degree:3 ~hosts:2 ~seed:1);
  invalid (fun () -> Builders.random_fabric ~switches:4 ~degree:4 ~hosts:2 ~seed:1)

let test_random_fabric () =
  let g = Builders.random_fabric ~switches:10 ~degree:4 ~hosts:20 ~seed:1 in
  Alcotest.(check int) "hosts" 20 (Array.length (Graph.hosts g));
  Alcotest.(check int) "switches" 10 (Array.length (Graph.switches g));
  Alcotest.(check bool) "connected" true (Graph.connected g);
  Array.iter
    (fun sw ->
      (* degree 4 fabric links + attached hosts (2 per switch here) *)
      Alcotest.(check int) "switch degree" 6 (Graph.degree_out g sw))
    (Graph.switches g)

let test_random_fabric_deterministic () =
  let g1 = Builders.random_fabric ~switches:8 ~degree:3 ~hosts:8 ~seed:7 in
  let g2 = Builders.random_fabric ~switches:8 ~degree:3 ~hosts:8 ~seed:7 in
  let edges g =
    List.init (Graph.num_links g) (fun l -> (Graph.link_src g l, Graph.link_dst g l))
  in
  Alcotest.(check (list (pair int int))) "same edges" (edges g1) (edges g2)

let test_remove_cables () =
  let g = Builders.fat_tree 4 in
  let cables = Graph.num_cables g in
  (* Remove one aggregation-core cable (the last cable added). *)
  let victim = 2 * (cables - 1) in
  let g' = Graph.remove_cables g ~cables:[ victim ] in
  Alcotest.(check int) "one fewer cable" (cables - 1) (Graph.num_cables g');
  Alcotest.(check int) "same nodes" (Graph.num_nodes g) (Graph.num_nodes g');
  Alcotest.(check bool) "still connected" true (Graph.connected g');
  (* Identifying a cable by its backward link works too. *)
  let g'' = Graph.remove_cables g ~cables:[ victim + 1 ] in
  Alcotest.(check int) "backward id same effect" (cables - 1) (Graph.num_cables g'');
  Alcotest.(check bool) "unknown link raises" true
    (try ignore (Graph.remove_cables g ~cables:[ 99999 ]); false
     with Invalid_argument _ -> true)

let test_path_nodes_and_is_path () =
  let g = Builders.line 4 in
  match Paths.shortest_path g ~src:0 ~dst:3 with
  | None -> Alcotest.fail "no path"
  | Some p ->
    Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3 ] (Graph.path_nodes g ~src:0 p);
    Alcotest.(check bool) "is_path" true (Graph.is_path g ~src:0 ~dst:3 p);
    Alcotest.(check bool) "wrong dst" false (Graph.is_path g ~src:0 ~dst:2 p);
    Alcotest.(check bool) "empty path same node" true (Graph.is_path g ~src:1 ~dst:1 [])

let test_dijkstra_weights () =
  (* Parallel links with different weights: picks the lighter one. *)
  let g = Builders.parallel ~links:2 in
  let weight l = if l = 0 then 5. else 1. in
  match Paths.shortest_path ~weight g ~src:0 ~dst:1 with
  | Some [ l ] -> Alcotest.(check bool) "uses cheap link" true (weight l = 1.)
  | _ -> Alcotest.fail "expected single-link path"

let test_dijkstra_negative_weight () =
  let g = Builders.line 3 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Paths.shortest_path ~weight:(fun _ -> -1.) g ~src:0 ~dst:2);
       false
     with Invalid_argument _ -> true)

let test_shortest_tree_unreachable () =
  (* Two disconnected cliques cannot be built with Builder (cables pair);
     instead ban all links to make dst unreachable. *)
  let g = Builders.line 3 in
  let tree = Paths.shortest_tree ~banned_links:(fun _ -> true) g ~src:0 in
  Alcotest.(check (option (list int))) "unreachable" None (Paths.extract_path g tree ~dst:2)

let test_k_shortest_fat_tree () =
  let g = Builders.fat_tree 4 in
  (* Cross-pod pair: exactly 4 disjoint 6-hop paths exist (one per core). *)
  let paths = Paths.k_shortest g ~k:4 ~src:0 ~dst:15 in
  Alcotest.(check int) "found 4" 4 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check bool) "valid path" true (Graph.is_path g ~src:0 ~dst:15 p);
      Alcotest.(check int) "6 hops" 6 (List.length p))
    paths;
  Alcotest.(check int) "all distinct" 4
    (List.length (List.sort_uniq compare paths))

let test_k_shortest_ordering () =
  let g = Builders.line 5 in
  (* On a line there is exactly one simple path. *)
  let paths = Paths.k_shortest g ~k:3 ~src:0 ~dst:4 in
  Alcotest.(check int) "single path" 1 (List.length paths)

let test_all_simple_paths () =
  let g = Builders.parallel ~links:3 in
  let paths = Paths.all_simple_paths g ~src:0 ~dst:1 in
  Alcotest.(check int) "three links, three paths" 3 (List.length paths);
  let g4 = Builders.fat_tree 4 in
  let cross = Paths.all_simple_paths ~max_hops:6 g4 ~src:0 ~dst:15 in
  Alcotest.(check int) "4 shortest cross-pod routes" 4 (List.length cross);
  let same_pod = Paths.all_simple_paths ~max_hops:4 g4 ~src:0 ~dst:2 in
  Alcotest.(check int) "2 same-pod routes plus none shorter" 2 (List.length same_pod)

let test_all_simple_paths_limit () =
  let g = Builders.fat_tree 4 in
  let paths = Paths.all_simple_paths ~limit:5 g ~src:0 ~dst:15 in
  Alcotest.(check int) "limit respected" 5 (List.length paths)

(* Property: in any random fabric, shortest paths found by Dijkstra with
   hop weights have minimal length among enumerated simple paths. *)
let prop_dijkstra_minimal =
  QCheck.Test.make ~name:"paths: dijkstra finds minimum-hop path" ~count:30
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 1000 st))
    (fun seed ->
      let g = Dcn_topology.Builders.random_fabric ~switches:6 ~degree:3 ~hosts:6 ~seed in
      let hosts = Graph.hosts g in
      let src = hosts.(0) and dst = hosts.(Array.length hosts - 1) in
      match Paths.shortest_path g ~src ~dst with
      | None -> false
      | Some p ->
        let enumerated = Paths.all_simple_paths ~max_hops:8 g ~src ~dst in
        enumerated = []
        || List.length p
           = List.fold_left (fun acc q -> min acc (List.length q)) max_int enumerated)

(* Property: reverse is a fixpoint-free involution matching endpoints. *)
let prop_reverse_involution =
  QCheck.Test.make ~name:"graph: reverse is an involution" ~count:50
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 1000 st))
    (fun seed ->
      let g = Dcn_topology.Builders.random_fabric ~switches:8 ~degree:3 ~hosts:4 ~seed in
      let ok = ref true in
      for l = 0 to Graph.num_links g - 1 do
        let r = Graph.reverse g l in
        if
          r = l
          || Graph.reverse g r <> l
          || Graph.link_src g r <> Graph.link_dst g l
          || Graph.link_dst g r <> Graph.link_src g l
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Path odds and ends (group more/misc)                               *)
(* ------------------------------------------------------------------ *)

let test_path_cost () =
  let g = Builders.line 4 in
  match Paths.shortest_path g ~src:0 ~dst:3 with
  | Some p ->
    Alcotest.(check (float 1e-9)) "hop cost" 3. (Paths.path_cost Paths.hop_weight p);
    Alcotest.(check (float 1e-9)) "custom weight" 6. (Paths.path_cost (fun _ -> 2.) p)
  | None -> Alcotest.fail "no path"

let test_k_shortest_costs_non_decreasing () =
  let g = Builders.fat_tree 4 in
  let paths = Paths.k_shortest g ~k:8 ~src:0 ~dst:2 in
  let costs = List.map (fun p -> Paths.path_cost Paths.hop_weight p) paths in
  let rec non_decreasing = function
    | a :: b :: rest -> a <= b && non_decreasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "sorted by cost" true (non_decreasing costs);
  Alcotest.(check int) "no duplicates" (List.length paths)
    (List.length (List.sort_uniq compare paths))

let test_k_shortest_invalid () =
  let g = Builders.line 3 in
  Alcotest.(check bool) "k < 1 raises" true
    (try ignore (Paths.k_shortest g ~k:0 ~src:0 ~dst:2); false
     with Invalid_argument _ -> true)

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "topology/graph",
      [
        Alcotest.test_case "builder basic" `Quick test_builder_basic;
        Alcotest.test_case "self loop" `Quick test_builder_self_loop;
        Alcotest.test_case "builder reuse" `Quick test_builder_reuse;
        Alcotest.test_case "multigraph" `Quick test_multigraph;
        Alcotest.test_case "path nodes / is_path" `Quick test_path_nodes_and_is_path;
        Alcotest.test_case "remove cables" `Quick test_remove_cables;
        qt prop_reverse_involution;
      ] );
    ( "topology/builders",
      [
        Alcotest.test_case "line" `Quick test_line;
        Alcotest.test_case "star" `Quick test_star;
        Alcotest.test_case "leaf-spine" `Quick test_leaf_spine;
        Alcotest.test_case "fat-tree k=4" `Quick test_fat_tree_k4;
        Alcotest.test_case "fat-tree k=8 = paper network" `Quick
          test_fat_tree_k8_is_paper_network;
        Alcotest.test_case "fat-tree path lengths" `Quick test_fat_tree_path_lengths;
        Alcotest.test_case "fat-tree invalid" `Quick test_fat_tree_invalid;
        Alcotest.test_case "bcube" `Quick test_bcube;
        Alcotest.test_case "bcube level 0" `Quick test_bcube_level0;
        Alcotest.test_case "bcube level 2" `Quick test_bcube_level2;
        Alcotest.test_case "dcell level 0" `Quick test_dcell_level0;
        Alcotest.test_case "dcell level 1" `Quick test_dcell_level1;
        Alcotest.test_case "dcell level 2" `Quick test_dcell_level2;
        Alcotest.test_case "dcell guard" `Quick test_dcell_guard;
        Alcotest.test_case "fat-tree k=6" `Quick test_fat_tree_k6;
        Alcotest.test_case "invalid args" `Quick test_builders_invalid_args;
        Alcotest.test_case "random fabric" `Quick test_random_fabric;
        Alcotest.test_case "random fabric deterministic" `Quick
          test_random_fabric_deterministic;
      ] );
    ( "topology/paths",
      [
        Alcotest.test_case "dijkstra weights" `Quick test_dijkstra_weights;
        Alcotest.test_case "negative weight" `Quick test_dijkstra_negative_weight;
        Alcotest.test_case "unreachable" `Quick test_shortest_tree_unreachable;
        Alcotest.test_case "k-shortest fat-tree" `Quick test_k_shortest_fat_tree;
        Alcotest.test_case "k-shortest single path" `Quick test_k_shortest_ordering;
        Alcotest.test_case "all simple paths" `Quick test_all_simple_paths;
        Alcotest.test_case "enumeration limit" `Quick test_all_simple_paths_limit;
        qt prop_dijkstra_minimal;
      ] );
  ]

let more_misc =
  [
    Alcotest.test_case "path cost" `Quick test_path_cost;
    Alcotest.test_case "k-shortest sorted" `Quick test_k_shortest_costs_non_decreasing;
    Alcotest.test_case "k-shortest invalid" `Quick test_k_shortest_invalid;
  ]
