module Json = Dcn_engine.Json
module Prng = Dcn_util.Prng
module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Instance = Dcn_core.Instance
module Gen = Dcn_check.Gen

type event =
  | Cable_cut of { at : float; cables : Graph.link list }
  | Degradation of { at : float; cables : Graph.link list; factor : float }
  | Burst of { at : float; flows : Flow.t list }

let at = function
  | Cable_cut { at; _ } | Degradation { at; _ } | Burst { at; _ } -> at

let kind = function
  | Cable_cut _ -> "cable_cut"
  | Degradation _ -> "degradation"
  | Burst _ -> "burst"

let event_to_json e =
  let links cables = Json.List (List.map (fun l -> Json.Int l) cables) in
  let fields =
    match e with
    | Cable_cut { at; cables } ->
      [ ("at", Json.float at); ("cables", links cables) ]
    | Degradation { at; cables; factor } ->
      [ ("at", Json.float at); ("cables", links cables); ("factor", Json.float factor) ]
    | Burst { at; flows } ->
      [
        ("at", Json.float at);
        ( "flows",
          Json.List
            (List.map
               (fun (f : Flow.t) ->
                 Json.Obj
                   [
                     ("id", Json.Int f.id);
                     ("src", Json.Int f.src);
                     ("dst", Json.Int f.dst);
                     ("volume", Json.float f.volume);
                     ("release", Json.float f.release);
                     ("deadline", Json.float f.deadline);
                   ])
               flows) );
      ]
  in
  Json.Obj (("kind", Json.Str (kind e)) :: fields)

(* Strike inside the middle half of the horizon: flows exist on both
   sides of the cut, so both the salvage and the residual are
   non-trivial. *)
let strike_time rng inst =
  let t0, t1 = Instance.horizon inst in
  let span = t1 -. t0 in
  Prng.uniform rng ~lo:(t0 +. (0.25 *. span)) ~hi:(t0 +. (0.75 *. span))

(* Distinct cables (identified by their forward link, the even id of
   the pair), never the whole fabric. *)
let pick_cables rng graph =
  let cables = Graph.num_cables graph in
  let want =
    if cables <= 1 then 1 else 1 + Prng.int rng (min 2 (cables - 1))
  in
  let ids = Array.init cables (fun c -> 2 * c) in
  Prng.shuffle rng ids;
  Array.to_list (Array.sub ids 0 (min want cables))

let burst_flows rng inst ~at =
  let graph = inst.Instance.graph in
  let hosts = Graph.hosts graph in
  let _, t1 = Instance.horizon inst in
  let next_id =
    1 + List.fold_left (fun m (f : Flow.t) -> max m f.id) (-1) inst.Instance.flows
  in
  let n = 1 + Prng.int rng 3 in
  List.init n (fun i ->
      let src = Prng.pick rng hosts in
      let dst =
        let rec pick () =
          let d = Prng.pick rng hosts in
          if d = src then pick () else d
        in
        pick ()
      in
      let release = Prng.uniform rng ~lo:at ~hi:(at +. (0.5 *. Float.max 1. (t1 -. at))) in
      let span = Prng.uniform rng ~lo:1. ~hi:4. in
      Flow.make ~id:(next_id + i) ~src ~dst
        ~volume:(Prng.gaussian_positive rng ~mean:4. ~stddev:1.5)
        ~release ~deadline:(release +. span))

let draw ~rng inst =
  let graph = inst.Instance.graph in
  let at = strike_time rng inst in
  let can_burst = Array.length (Graph.hosts graph) >= 2 in
  match Prng.int rng (if can_burst then 3 else 2) with
  | 0 -> Cable_cut { at; cables = pick_cables rng graph }
  | 1 ->
    Degradation
      {
        at;
        cables = pick_cables rng graph;
        factor = Prng.uniform rng ~lo:0.3 ~hi:0.9;
      }
  | _ -> Burst { at; flows = burst_flows rng inst ~at }

type scenario = {
  index : int;
  label : string;
  solver_seed : int;
  instance : Dcn_core.Instance.t;
  event : event;
}

let scenario ~rng ~index =
  let case = Gen.case ~rng ~index in
  let event = draw ~rng case.Gen.instance in
  {
    index;
    label = Printf.sprintf "%s/%s" case.Gen.label (kind event);
    solver_seed = case.Gen.solver_seed;
    instance = case.Gen.instance;
    event;
  }

let campaign ~seed ~n =
  if n < 1 then
    invalid_arg (Printf.sprintf "Fault.campaign: n must be >= 1 (got %d)" n);
  let streams = Dcn_engine.Pool.split_rngs (Prng.create seed) n in
  Array.init n (fun index -> scenario ~rng:streams.(index) ~index)
