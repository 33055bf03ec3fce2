module Graph = Dcn_topology.Graph
module Paths = Dcn_topology.Paths
module Flow = Dcn_flow.Flow

let shortest_path_routing inst =
  let g = inst.Instance.graph in
  let by_src = Hashtbl.create 16 in
  List.iter
    (fun (f : Flow.t) ->
      let prev = try Hashtbl.find by_src f.src with Not_found -> [] in
      Hashtbl.replace by_src f.src (f :: prev))
    inst.Instance.flows;
  let routes = Hashtbl.create 16 in
  Hashtbl.iter
    (fun src flows ->
      let tree = Paths.shortest_tree g ~src in
      List.iter
        (fun (f : Flow.t) ->
          match Paths.extract_path g tree ~dst:f.dst with
          | Some p -> Hashtbl.replace routes f.id p
          | None ->
            invalid_arg
              (Printf.sprintf "Baselines.shortest_path_routing: flow %d disconnected"
                 f.id))
        flows)
    by_src;
  fun id ->
    match Hashtbl.find_opt routes id with
    | Some p -> p
    | None -> raise Not_found

let sp_mcf inst =
  let routing = shortest_path_routing inst in
  Most_critical_first.solve_routed ~algorithm:"sp+mcf" inst ~routing

let ecmp_routing ?(fanout = 16) ~rng inst =
  let g = inst.Instance.graph in
  (* Minimum-hop candidates per (src, dst), computed once per pair. *)
  let cache = Hashtbl.create 16 in
  let candidates src dst =
    match Hashtbl.find_opt cache (src, dst) with
    | Some c -> c
    | None ->
      let all = Paths.k_shortest g ~k:fanout ~src ~dst in
      let c =
        match all with
        | [] ->
          invalid_arg
            (Printf.sprintf "Baselines.ecmp_routing: %d and %d disconnected" src dst)
        | first :: _ ->
          let best = List.length first in
          Array.of_list (List.filter (fun p -> List.length p = best) all)
      in
      Hashtbl.add cache (src, dst) c;
      c
  in
  let routes = Hashtbl.create 16 in
  List.iter
    (fun (f : Flow.t) ->
      let c = candidates f.src f.dst in
      Hashtbl.replace routes f.id (Dcn_util.Prng.pick rng c))
    inst.Instance.flows;
  fun id ->
    match Hashtbl.find_opt routes id with Some p -> p | None -> raise Not_found

let ecmp_mcf ?fanout ~rng inst =
  let routing = ecmp_routing ?fanout ~rng inst in
  Most_critical_first.solve_routed ~algorithm:"ecmp+mcf" inst ~routing
