(* Tests for Dcn_flow: flow records, the paper's workload generators and
   the interval timeline of Algorithm 2. *)

open Dcn_flow
module Builders = Dcn_topology.Builders

let check_float = Alcotest.(check (float 1e-9))

let mk ?(id = 0) ?(src = 0) ?(dst = 1) ?(volume = 6.) ?(release = 2.) ?(deadline = 4.) ()
    =
  Flow.make ~id ~src ~dst ~volume ~release ~deadline

let test_flow_fields () =
  let f = mk () in
  check_float "density" 3. (Flow.density f);
  check_float "span length" 2. (Flow.span_length f);
  Alcotest.(check (pair (float 0.) (float 0.))) "span" (2., 4.) (Flow.span f);
  Alcotest.(check bool) "active inside" true (Flow.active_at f 3.);
  Alcotest.(check bool) "active boundary" true (Flow.active_at f 4.);
  Alcotest.(check bool) "inactive" false (Flow.active_at f 4.5)

let test_flow_invalid () =
  let invalid f = Alcotest.(check bool) "invalid" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  invalid (fun () -> mk ~volume:0. ());
  invalid (fun () -> mk ~release:4. ~deadline:4. ());
  invalid (fun () -> mk ~src:1 ~dst:1 ())

let test_flow_aggregates () =
  let fs = [ mk ~id:0 (); mk ~id:1 ~release:0. ~deadline:10. ~volume:5. () ] in
  Alcotest.(check (pair (float 0.) (float 0.))) "horizon" (0., 10.) (Flow.horizon fs);
  check_float "total volume" 11. (Flow.total_volume fs);
  check_float "max density" 3. (Flow.max_density fs)

let test_spans_interval () =
  let f = mk () in
  Alcotest.(check bool) "inside" true (Flow.spans_interval f ~lo:2.5 ~hi:3.5);
  Alcotest.(check bool) "exact" true (Flow.spans_interval f ~lo:2. ~hi:4.);
  Alcotest.(check bool) "outside" false (Flow.spans_interval f ~lo:1. ~hi:3.)

(* Workloads *)

let test_paper_random () =
  let graph = Builders.fat_tree 4 in
  let rng = Dcn_util.Prng.create 42 in
  let flows = Workload.paper_random ~rng ~graph ~n:50 () in
  Alcotest.(check int) "count" 50 (List.length flows);
  List.iter
    (fun (f : Flow.t) ->
      Alcotest.(check bool) "volume > 0" true (f.volume > 0.);
      Alcotest.(check bool) "span >= min_span" true (Flow.span_length f >= 1.);
      Alcotest.(check bool) "in horizon" true (f.release >= 1. && f.deadline <= 100.);
      Alcotest.(check bool) "host endpoints" true
        (Dcn_topology.Graph.is_host graph f.src && Dcn_topology.Graph.is_host graph f.dst))
    flows;
  (* Same seed -> same workload. *)
  let rng' = Dcn_util.Prng.create 42 in
  let flows' = Workload.paper_random ~rng:rng' ~graph ~n:50 () in
  Alcotest.(check bool) "deterministic" true (flows = flows')

let test_paper_random_volume_distribution () =
  let graph = Builders.fat_tree 4 in
  let rng = Dcn_util.Prng.create 7 in
  let flows = Workload.paper_random ~rng ~graph ~n:3000 () in
  let vols = Array.of_list (List.map (fun (f : Flow.t) -> f.volume) flows) in
  let m = Dcn_util.Stats.mean vols in
  Alcotest.(check bool) "mean near 10" true (Float.abs (m -. 10.) < 0.3)

let test_all_to_all () =
  let graph = Builders.star ~leaves:4 in
  let flows = Workload.all_to_all ~graph () in
  Alcotest.(check int) "n(n-1) flows" 12 (List.length flows)

let test_incast () =
  let graph = Builders.fat_tree 4 in
  let rng = Dcn_util.Prng.create 3 in
  let flows = Workload.incast ~rng ~graph ~sources:8 () in
  Alcotest.(check int) "count" 8 (List.length flows);
  let sinks = List.sort_uniq compare (List.map (fun (f : Flow.t) -> f.dst) flows) in
  Alcotest.(check int) "single sink" 1 (List.length sinks);
  let srcs = List.sort_uniq compare (List.map (fun (f : Flow.t) -> f.src) flows) in
  Alcotest.(check int) "distinct sources" 8 (List.length srcs);
  Alcotest.(check bool) "sink not a source" true
    (not (List.mem (List.hd sinks) srcs))

let test_shuffle () =
  let graph = Builders.fat_tree 4 in
  let rng = Dcn_util.Prng.create 5 in
  let flows = Workload.shuffle ~rng ~graph ~mappers:3 ~reducers:4 () in
  Alcotest.(check int) "m*r flows" 12 (List.length flows)

let test_stride () =
  let graph = Builders.star ~leaves:6 in
  let flows = Workload.stride ~graph ~stride:2 () in
  Alcotest.(check int) "one per host" 6 (List.length flows);
  List.iter
    (fun (f : Flow.t) -> Alcotest.(check bool) "no self flow" true (f.src <> f.dst))
    flows

let test_trace_basics () =
  let graph = Builders.fat_tree 4 in
  let rng = Dcn_util.Prng.create 13 in
  let flows = Workload.trace ~rng ~graph ~horizon:(0., 200.) () in
  Alcotest.(check bool) "non-empty" true (List.length flows > 10);
  List.iter
    (fun (f : Flow.t) ->
      Alcotest.(check bool) "within horizon" true (f.release >= 0. && f.deadline <= 200.);
      Alcotest.(check bool) "span floor" true (Flow.span_length f >= 0.5);
      Alcotest.(check bool) "volume positive" true (f.volume > 0.))
    flows;
  (* Arrivals are in increasing release order. *)
  let rec increasing = function
    | (a : Flow.t) :: (b : Flow.t) :: rest -> a.release <= b.release && increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "poisson arrivals ordered" true (increasing flows)

let test_trace_load_scales () =
  let graph = Builders.fat_tree 4 in
  let count load =
    let rng = Dcn_util.Prng.create 17 in
    List.length (Workload.trace ~load ~rng ~graph ~horizon:(0., 100.) ())
  in
  Alcotest.(check bool) "heavier load, more flows" true (count 4. > count 0.5)

let test_trace_heavy_tail () =
  (* Pareto 1.5 produces elephants: max volume should dwarf the median. *)
  let graph = Builders.fat_tree 4 in
  let rng = Dcn_util.Prng.create 23 in
  let flows = Workload.trace ~load:4. ~rng ~graph ~horizon:(0., 500.) () in
  let vols = Array.of_list (List.map (fun (f : Flow.t) -> f.volume) flows) in
  Alcotest.(check bool) "tail heavy" true
    (Dcn_util.Stats.maximum vols > 5. *. Dcn_util.Stats.median vols)

let test_trace_diurnal () =
  let graph = Builders.fat_tree 4 in
  let flows amp =
    let rng = Dcn_util.Prng.create 29 in
    Workload.trace ~load:4. ~diurnal:amp ~rng ~graph ~horizon:(0., 200.) ()
  in
  (* Full-amplitude modulation thins arrivals overall and concentrates
     them in the first half-period (where sin > 0). *)
  let plain = flows 0. and modulated = flows 1. in
  Alcotest.(check bool) "thinned" true (List.length modulated < List.length plain);
  let first_half fs =
    List.length (List.filter (fun (f : Flow.t) -> f.release < 100.) fs)
  in
  let frac = float_of_int (first_half modulated) /. float_of_int (List.length modulated) in
  Alcotest.(check bool) "day side heavier" true (frac > 0.6);
  Alcotest.(check bool) "amplitude validated" true
    (try ignore (flows 1.5); false with Invalid_argument _ -> true)

let test_staged () =
  let graph = Builders.star ~leaves:4 in
  let rng = Dcn_util.Prng.create 11 in
  let flows = Workload.staged ~rng ~graph ~stages:3 ~flows_per_stage:5 ~stage_length:2. () in
  Alcotest.(check int) "count" 15 (List.length flows);
  Alcotest.(check (pair (float 0.) (float 0.)))
    "horizon" (0., 6.) (Flow.horizon flows)

(* Split *)

let test_split_conserves_volume () =
  let f = mk ~volume:10. () in
  let parts = Split.flow f ~parts:3 ~first_id:100 in
  Alcotest.(check int) "three parts" 3 (List.length parts);
  check_float "volume conserved" 10. (Flow.total_volume parts);
  List.iteri
    (fun j (p : Flow.t) ->
      Alcotest.(check int) "id" (100 + j) p.id;
      Alcotest.(check (pair (float 0.) (float 0.))) "same span" (Flow.span f) (Flow.span p);
      Alcotest.(check int) "same src" f.src p.src;
      Alcotest.(check int) "same dst" f.dst p.dst)
    parts

let test_split_single_part_identity () =
  let f = mk ~volume:7. () in
  match Split.flow f ~parts:1 ~first_id:0 with
  | [ p ] -> check_float "same volume" 7. p.volume
  | _ -> Alcotest.fail "expected one part"

let test_split_workload_and_mapping () =
  let flows = [ mk ~id:5 ~volume:4. (); mk ~id:9 ~volume:6. () ] in
  let split = Split.workload flows ~parts:2 in
  Alcotest.(check int) "four sub-flows" 4 (List.length split);
  check_float "total volume" 10. (Flow.total_volume split);
  Alcotest.(check (list (pair int int)))
    "mapping" [ (0, 5); (1, 5); (2, 9); (3, 9) ]
    (Split.mapping flows ~parts:2)

let test_split_invalid () =
  Alcotest.(check bool) "raises" true
    (try ignore (Split.flow (mk ()) ~parts:0 ~first_id:0); false
     with Invalid_argument _ -> true)

(* Timeline *)

let test_timeline_basic () =
  (* Example 1's flows: spans [2,4] and [1,3]. *)
  let f1 = mk ~id:1 ~release:2. ~deadline:4. () in
  let f2 = mk ~id:2 ~release:1. ~deadline:3. () in
  let tl = Timeline.make [ f1; f2 ] in
  Alcotest.(check (array (float 0.))) "breakpoints" [| 1.; 2.; 3.; 4. |]
    (Timeline.breakpoints tl);
  Alcotest.(check int) "K" 3 (Timeline.num_intervals tl);
  Alcotest.(check (pair (float 0.) (float 0.))) "I_2" (2., 3.) (Timeline.bounds tl 1);
  check_float "length" 1. (Timeline.length tl 1);
  Alcotest.(check (pair (float 0.) (float 0.))) "horizon" (1., 4.) (Timeline.horizon tl);
  check_float "beta" (1. /. 3.) (Timeline.beta tl 0);
  check_float "lambda" 3. (Timeline.lambda tl)

let test_timeline_active () =
  let f1 = mk ~id:1 ~release:2. ~deadline:4. () in
  let f2 = mk ~id:2 ~release:1. ~deadline:3. () in
  let tl = Timeline.make [ f1; f2 ] in
  let active = Timeline.active_by_interval tl [ f1; f2 ] in
  let ids k = List.map (fun (f : Flow.t) -> f.id) active.(k) in
  Alcotest.(check (list int)) "I1 only f2" [ 2 ] (ids 0);
  Alcotest.(check (list int)) "I2 both" [ 1; 2 ] (ids 1);
  Alcotest.(check (list int)) "I3 only f1" [ 1 ] (ids 2)

let test_timeline_indices_of () =
  let f1 = mk ~id:1 ~release:2. ~deadline:4. () in
  let f2 = mk ~id:2 ~release:1. ~deadline:3. () in
  let tl = Timeline.make [ f1; f2 ] in
  Alcotest.(check (list int)) "f1 intervals" [ 1; 2 ] (Timeline.interval_indices_of tl f1);
  Alcotest.(check (list int)) "f2 intervals" [ 0; 1 ] (Timeline.interval_indices_of tl f2)

let test_timeline_index_at () =
  let f1 = mk ~id:1 ~release:2. ~deadline:4. () in
  let f2 = mk ~id:2 ~release:1. ~deadline:3. () in
  let tl = Timeline.make [ f1; f2 ] in
  Alcotest.(check (option int)) "interior" (Some 1) (Timeline.index_at tl 2.5);
  Alcotest.(check (option int)) "boundary to earlier" (Some 0) (Timeline.index_at tl 2.);
  Alcotest.(check (option int)) "start" (Some 0) (Timeline.index_at tl 1.);
  Alcotest.(check (option int)) "outside" None (Timeline.index_at tl 0.5)

(* Property: intervals of a flow tile its span exactly. *)
let prop_timeline_tiling =
  QCheck.Test.make ~name:"timeline: flow intervals tile its span" ~count:200
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let graph = Builders.star ~leaves:4 in
      let rng = Dcn_util.Prng.create seed in
      let flows = Workload.paper_random ~rng ~graph ~n:8 () in
      let tl = Timeline.make flows in
      List.for_all
        (fun f ->
          let ks = Timeline.interval_indices_of tl f in
          let total = List.fold_left (fun acc k -> acc +. Timeline.length tl k) 0. ks in
          Float.abs (total -. Flow.span_length f) < 1e-6)
        flows)

(* ------------------------------------------------------------------ *)
(* Timeline corners and workload arguments (groups more/misc,         *)
(* more/cross-checks)                                                 *)
(* ------------------------------------------------------------------ *)

let test_timeline_single_flow () =
  let f = Flow.make ~id:0 ~src:0 ~dst:1 ~volume:1. ~release:3. ~deadline:7. in
  let tl = Timeline.make [ f ] in
  Alcotest.(check int) "one interval" 1 (Timeline.num_intervals tl);
  check_float "lambda 1" 1. (Timeline.lambda tl);
  check_float "beta 1" 1. (Timeline.beta tl 0)

let test_timeline_shared_breakpoints () =
  (* Two flows sharing a release instant produce 3 breakpoints, not 4. *)
  let f1 = Flow.make ~id:0 ~src:0 ~dst:1 ~volume:1. ~release:0. ~deadline:2. in
  let f2 = Flow.make ~id:1 ~src:0 ~dst:1 ~volume:1. ~release:0. ~deadline:5. in
  let tl = Timeline.make [ f1; f2 ] in
  Alcotest.(check int) "two intervals" 2 (Timeline.num_intervals tl)

let test_workload_validation () =
  let graph = Builders.star ~leaves:3 in
  let rng = Dcn_util.Prng.create 1 in
  let invalid f = Alcotest.(check bool) "invalid" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  invalid (fun () -> Workload.incast ~rng ~graph ~sources:0 ());
  invalid (fun () -> Workload.incast ~rng ~graph ~sources:5 ());
  invalid (fun () -> Workload.shuffle ~rng ~graph ~mappers:2 ~reducers:2 ());
  invalid (fun () -> Workload.stride ~graph ~stride:3 ());
  invalid (fun () -> Workload.trace ~load:0. ~rng ~graph ~horizon:(0., 10.) ());
  invalid (fun () -> Workload.trace ~rng ~graph ~horizon:(5., 5.) ());
  invalid (fun () ->
      Workload.staged ~rng ~graph ~stages:0 ~flows_per_stage:1 ~stage_length:1. ())

let test_workload_horizons_respected () =
  let graph = Builders.star ~leaves:4 in
  let rng = Dcn_util.Prng.create 2 in
  let check_span flows lo hi =
    List.iter
      (fun (f : Flow.t) ->
        Alcotest.(check bool) "span" true (f.Flow.release >= lo && f.Flow.deadline <= hi))
      flows
  in
  check_span (Workload.all_to_all ~graph ~horizon:(3., 9.) ()) 3. 9.;
  check_span (Workload.incast ~rng ~graph ~sources:2 ~horizon:(1., 2.) ()) 1. 2.;
  check_span
    (Workload.shuffle ~rng ~graph ~mappers:2 ~reducers:1 ~horizon:(0., 5.) ())
    0. 5.

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "flow/flow",
      [
        Alcotest.test_case "fields" `Quick test_flow_fields;
        Alcotest.test_case "invalid" `Quick test_flow_invalid;
        Alcotest.test_case "aggregates" `Quick test_flow_aggregates;
        Alcotest.test_case "spans_interval" `Quick test_spans_interval;
      ] );
    ( "flow/workload",
      [
        Alcotest.test_case "paper random" `Quick test_paper_random;
        Alcotest.test_case "volume distribution" `Quick test_paper_random_volume_distribution;
        Alcotest.test_case "all-to-all" `Quick test_all_to_all;
        Alcotest.test_case "incast" `Quick test_incast;
        Alcotest.test_case "shuffle" `Quick test_shuffle;
        Alcotest.test_case "stride" `Quick test_stride;
        Alcotest.test_case "staged" `Quick test_staged;
        Alcotest.test_case "trace basics" `Quick test_trace_basics;
        Alcotest.test_case "trace load scales" `Quick test_trace_load_scales;
        Alcotest.test_case "trace heavy tail" `Quick test_trace_heavy_tail;
        Alcotest.test_case "trace diurnal" `Quick test_trace_diurnal;
      ] );
    ( "flow/split",
      [
        Alcotest.test_case "conserves volume" `Quick test_split_conserves_volume;
        Alcotest.test_case "single part" `Quick test_split_single_part_identity;
        Alcotest.test_case "workload + mapping" `Quick test_split_workload_and_mapping;
        Alcotest.test_case "invalid" `Quick test_split_invalid;
      ] );
    ( "flow/timeline",
      [
        Alcotest.test_case "breakpoints" `Quick test_timeline_basic;
        Alcotest.test_case "active flows" `Quick test_timeline_active;
        Alcotest.test_case "indices of flow" `Quick test_timeline_indices_of;
        Alcotest.test_case "index_at" `Quick test_timeline_index_at;
        qt prop_timeline_tiling;
      ] );
  ]

let more_misc =
  [
    Alcotest.test_case "timeline single flow" `Quick test_timeline_single_flow;
    Alcotest.test_case "timeline shared breakpoints" `Quick
      test_timeline_shared_breakpoints;
  ]

let more_cross_checks =
  [
    Alcotest.test_case "workload validation" `Quick test_workload_validation;
    Alcotest.test_case "workload horizons" `Quick test_workload_horizons_respected;
  ]
