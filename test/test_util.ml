(* Tests for Dcn_util: PRNG, stats, interval sets, priority queue,
   tables, approximate comparison. *)

open Dcn_util

let check_float = Alcotest.(check (float 1e-9))

(* Substring test, shared by the suites that check rendered text. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_changes_stream () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_prng_copy_independent () =
  let a = Prng.create 7 in
  let b = Prng.copy a in
  let xa = Prng.bits64 a in
  let xb = Prng.bits64 b in
  Alcotest.(check int64) "copy replays" xa xb;
  ignore (Prng.bits64 a);
  ignore (Prng.bits64 a);
  let _ = Prng.bits64 b in
  ()

let test_prng_split_diverges () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  Alcotest.(check bool) "split streams differ" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_int_bounds () =
  let g = Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_prng_int_invalid () =
  let g = Prng.create 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_float_bounds () =
  let g = Prng.create 5 in
  for _ = 1 to 1000 do
    let x = Prng.float g 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0. && x < 2.5)
  done

let test_prng_uniform_range () =
  let g = Prng.create 9 in
  for _ = 1 to 500 do
    let x = Prng.uniform g ~lo:(-3.) ~hi:4. in
    Alcotest.(check bool) "in range" true (x >= -3. && x < 4.)
  done

let test_prng_uniform_degenerate () =
  let g = Prng.create 9 in
  check_float "lo = hi" 1.5 (Prng.uniform g ~lo:1.5 ~hi:1.5)

let test_prng_gaussian_moments () =
  let g = Prng.create 11 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Prng.gaussian g ~mean:10. ~stddev:3.) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  Alcotest.(check bool) "mean close" true (Float.abs (m -. 10.) < 0.15);
  Alcotest.(check bool) "stddev close" true (Float.abs (sd -. 3.) < 0.15)

let test_prng_gaussian_positive () =
  let g = Prng.create 13 in
  for _ = 1 to 2000 do
    let x = Prng.gaussian_positive g ~mean:1. ~stddev:5. in
    Alcotest.(check bool) "positive" true (x > 0.)
  done

let test_prng_pick_weighted () =
  let g = Prng.create 17 in
  let counts = Array.make 3 0 in
  let weights = [| 1.; 0.; 3. |] in
  for _ = 1 to 4000 do
    let i = Prng.pick_weighted g ~weights in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never picked" 0 counts.(1);
  Alcotest.(check bool) "ratio roughly 1:3" true
    (float_of_int counts.(2) /. float_of_int counts.(0) > 2.);
  Alcotest.check_raises "all-zero weights"
    (Invalid_argument "Prng.pick_weighted: zero total weight") (fun () ->
      ignore (Prng.pick_weighted g ~weights:[| 0.; 0. |]))

let test_prng_shuffle_permutation () =
  let g = Prng.create 19 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_mean_stddev () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean xs);
  check_float "stddev" (sqrt (32. /. 7.)) (Stats.stddev xs)

let test_stats_singleton () =
  check_float "mean" 3. (Stats.mean [| 3. |]);
  check_float "stddev" 0. (Stats.stddev [| 3. |])

let test_stats_percentile () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "p0" 1. (Stats.percentile xs 0.);
  check_float "p100" 4. (Stats.percentile xs 100.);
  check_float "median" 2.5 (Stats.median xs);
  check_float "p25" 1.75 (Stats.percentile xs 25.)

let test_stats_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Stats.mean [||]))

let test_stats_summary () =
  let s = Stats.summarize [| 1.; 2.; 3. |] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  check_float "mean" 2. s.Stats.mean;
  check_float "min" 1. s.Stats.min;
  check_float "max" 3. s.Stats.max

(* ------------------------------------------------------------------ *)
(* Interval_set                                                       *)
(* ------------------------------------------------------------------ *)

let test_iset_empty () =
  Alcotest.(check bool) "is_empty" true (Interval_set.is_empty Interval_set.empty);
  check_float "total" 0. (Interval_set.total Interval_set.empty)

let test_iset_add_disjoint () =
  let s = Interval_set.add (Interval_set.add Interval_set.empty ~lo:0. ~hi:1.) ~lo:2. ~hi:3. in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "two intervals" [ (0., 1.); (2., 3.) ] (Interval_set.intervals s);
  check_float "total" 2. (Interval_set.total s)

let test_iset_add_merge () =
  let s =
    Interval_set.add_all Interval_set.empty [ (0., 2.); (1., 3.); (3., 4.); (10., 11.) ]
  in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "merged" [ (0., 4.); (10., 11.) ] (Interval_set.intervals s)

let test_iset_add_zero_length () =
  let s = Interval_set.add Interval_set.empty ~lo:1. ~hi:1. in
  Alcotest.(check bool) "still empty" true (Interval_set.is_empty s)

let test_iset_mem () =
  let s = Interval_set.add Interval_set.empty ~lo:1. ~hi:2. in
  Alcotest.(check bool) "inside" true (Interval_set.mem s 1.5);
  Alcotest.(check bool) "boundary" true (Interval_set.mem s 2.);
  Alcotest.(check bool) "outside" false (Interval_set.mem s 2.5)

let test_iset_covered_available () =
  let s = Interval_set.add_all Interval_set.empty [ (1., 3.); (5., 6.) ] in
  check_float "covered" 1.5 (Interval_set.covered_within s ~lo:2. ~hi:5.5);
  check_float "available" 2.0 (Interval_set.available_within s ~lo:2. ~hi:5.5);
  check_float "covered disjoint window" 0. (Interval_set.covered_within s ~lo:3.5 ~hi:4.5)

let test_iset_free_within () =
  let s = Interval_set.add_all Interval_set.empty [ (1., 3.); (5., 6.) ] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "gaps" [ (0., 1.); (3., 5.); (6., 7.) ]
    (Interval_set.free_within s ~lo:0. ~hi:7.);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "window inside busy" []
    (Interval_set.free_within s ~lo:1.2 ~hi:2.8);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "window overlaps start" [ (3., 4.) ]
    (Interval_set.free_within s ~lo:2. ~hi:4.)

(* Property: available + covered = window length. *)
let prop_iset_partition =
  QCheck.Test.make ~name:"interval_set: covered + available = length" ~count:500
    QCheck.(
      pair
        (small_list (pair (float_bound_exclusive 10.) (float_bound_exclusive 10.)))
        (pair (float_bound_exclusive 10.) (float_bound_exclusive 10.)))
    (fun (ivs, (a, b)) ->
      let s =
        List.fold_left
          (fun acc (x, y) ->
            Interval_set.add acc ~lo:(Float.min x y) ~hi:(Float.max x y))
          Interval_set.empty ivs
      in
      let lo = Float.min a b and hi = Float.max a b in
      let c = Interval_set.covered_within s ~lo ~hi in
      let v = Interval_set.available_within s ~lo ~hi in
      Float.abs (c +. v -. (hi -. lo)) < 1e-9)

(* Property: free_within gaps are disjoint from the set and fill the
   complement exactly. *)
let prop_iset_free =
  QCheck.Test.make ~name:"interval_set: free_within complements covered" ~count:500
    QCheck.(
      small_list (pair (float_bound_exclusive 10.) (float_bound_exclusive 10.)))
    (fun ivs ->
      let s =
        List.fold_left
          (fun acc (x, y) ->
            Interval_set.add acc ~lo:(Float.min x y) ~hi:(Float.max x y))
          Interval_set.empty ivs
      in
      let free = Interval_set.free_within s ~lo:0. ~hi:10. in
      let free_total = List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. free in
      let ok_disjoint =
        List.for_all
          (fun (a, b) -> Interval_set.covered_within s ~lo:a ~hi:b < 1e-9)
          free
      in
      ok_disjoint
      && Float.abs (free_total -. Interval_set.available_within s ~lo:0. ~hi:10.) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                             *)
(* ------------------------------------------------------------------ *)

let test_pqueue_basic () =
  let q = Pqueue.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  List.iter (Pqueue.add q) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "length" 5 (Pqueue.length q);
  Alcotest.(check (option int)) "peek" (Some 1) (Pqueue.peek q);
  Alcotest.(check (option int)) "pop1" (Some 1) (Pqueue.pop q);
  Alcotest.(check (option int)) "pop2" (Some 1) (Pqueue.pop q);
  Alcotest.(check (option int)) "pop3" (Some 3) (Pqueue.pop q);
  Alcotest.(check (option int)) "pop4" (Some 4) (Pqueue.pop q);
  Alcotest.(check (option int)) "pop5" (Some 5) (Pqueue.pop q);
  Alcotest.(check (option int)) "drained" None (Pqueue.pop q)

let test_pqueue_pop_exn_empty () =
  let q = Pqueue.create ~cmp:compare in
  Alcotest.check_raises "pop_exn" (Invalid_argument "Pqueue.pop_exn: empty queue")
    (fun () -> ignore (Pqueue.pop_exn q))

let test_pqueue_to_sorted_list () =
  let q = Pqueue.of_list ~cmp:compare [ 3; 1; 2 ] in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Pqueue.to_sorted_list q);
  Alcotest.(check int) "unchanged" 3 (Pqueue.length q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue: drains in sorted order" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let q = Pqueue.of_list ~cmp:compare xs in
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Table                                                              *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let s =
    Table.render ~headers:[ "name"; "v" ] ~rows:[ [ "a"; "1" ]; [ "bb"; "22" ] ] ()
  in
  Alcotest.(check bool) "mentions header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + rule + 2 rows + trailing" 5 (List.length lines)

let test_table_series () =
  let s =
    Table.render_series ~x_label:"n" ~xs:[| 1.; 2. |]
      ~series:[ { Table.label = "rs"; values = [| 1.5; 1.25 |] } ]
      ()
  in
  Alcotest.(check bool) "contains label" true (contains s "rs");
  Alcotest.(check bool) "contains value" true (contains s "1.250")

let test_table_series_mismatch () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Table.render_series ~x_label:"n" ~xs:[| 1. |]
            ~series:[ { Table.label = "a"; values = [| 1.; 2. |] } ]
            ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Approx                                                             *)
(* ------------------------------------------------------------------ *)

let test_approx () =
  Alcotest.(check bool) "equal within eps" true (Approx.equal 1. (1. +. 1e-12));
  Alcotest.(check bool) "not equal" false (Approx.equal 1. 1.1);
  Alcotest.(check bool) "leq" true (Approx.leq 1.0000000001 1. ~eps:1e-6);
  Alcotest.(check bool) "geq" true (Approx.geq 0.9999999999 1. ~eps:1e-6);
  check_float "clamp" 2. (Approx.clamp ~lo:0. ~hi:2. 5.);
  Alcotest.(check bool) "close_rel big numbers" true (Approx.close_rel 1e9 (1e9 +. 1.))

(* ------------------------------------------------------------------ *)
(* Odds and ends (groups more/misc, more/cross-checks,                *)
(* more/identifiers-and-boundaries)                                   *)
(* ------------------------------------------------------------------ *)

let test_prng_split_streams_differ_from_parent () =
  let parent = Prng.create 5 in
  let child = Prng.split parent in
  let a = Array.init 32 (fun _ -> Prng.bits64 parent) in
  let b = Array.init 32 (fun _ -> Prng.bits64 child) in
  Alcotest.(check bool) "distinct streams" true (a <> b)

let test_iset_pp_and_add_all () =
  let s = Interval_set.add_all Interval_set.empty [ (0., 1.); (2., 3.) ] in
  let str = Format.asprintf "%a" Interval_set.pp s in
  Alcotest.(check bool) "prints both" true
    (String.length str > 5 && String.contains str '[')

(* Interval set no-op and degenerate queries. *)
let test_iset_degenerate () =
  let s = Interval_set.add Interval_set.empty ~lo:1. ~hi:3. in
  let s' = Interval_set.add s ~lo:1.5 ~hi:2.5 in
  Alcotest.(check (list (pair (float 1e-12) (float 1e-12))))
    "subsumed add is a no-op" [ (1., 3.) ] (Interval_set.intervals s');
  check_float "empty window" 0. (Interval_set.covered_within s ~lo:5. ~hi:5.);
  check_float "reversed window" 0. (Interval_set.available_within s ~lo:5. ~hi:4.)

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "util/prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed changes stream" `Quick test_prng_seed_changes_stream;
        Alcotest.test_case "copy replays" `Quick test_prng_copy_independent;
        Alcotest.test_case "split diverges" `Quick test_prng_split_diverges;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
        Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
        Alcotest.test_case "uniform range" `Quick test_prng_uniform_range;
        Alcotest.test_case "uniform degenerate" `Quick test_prng_uniform_degenerate;
        Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
        Alcotest.test_case "gaussian positive" `Quick test_prng_gaussian_positive;
        Alcotest.test_case "pick_weighted" `Quick test_prng_pick_weighted;
        Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
      ] );
    ( "util/stats",
      [
        Alcotest.test_case "mean stddev" `Quick test_stats_mean_stddev;
        Alcotest.test_case "singleton" `Quick test_stats_singleton;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "empty raises" `Quick test_stats_empty;
        Alcotest.test_case "summary" `Quick test_stats_summary;
      ] );
    ( "util/interval_set",
      [
        Alcotest.test_case "empty" `Quick test_iset_empty;
        Alcotest.test_case "add disjoint" `Quick test_iset_add_disjoint;
        Alcotest.test_case "add merge" `Quick test_iset_add_merge;
        Alcotest.test_case "zero length ignored" `Quick test_iset_add_zero_length;
        Alcotest.test_case "mem" `Quick test_iset_mem;
        Alcotest.test_case "covered/available" `Quick test_iset_covered_available;
        Alcotest.test_case "free_within" `Quick test_iset_free_within;
        qt prop_iset_partition;
        qt prop_iset_free;
      ] );
    ( "util/pqueue",
      [
        Alcotest.test_case "basic order" `Quick test_pqueue_basic;
        Alcotest.test_case "pop_exn empty" `Quick test_pqueue_pop_exn_empty;
        Alcotest.test_case "to_sorted_list" `Quick test_pqueue_to_sorted_list;
        qt prop_pqueue_sorts;
      ] );
    ( "util/table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "series" `Quick test_table_series;
        Alcotest.test_case "series mismatch" `Quick test_table_series_mismatch;
      ] );
    ("util/approx", [ Alcotest.test_case "comparisons" `Quick test_approx ]);
  ]

let more_misc =
  [
    Alcotest.test_case "prng split streams" `Quick
      test_prng_split_streams_differ_from_parent;
  ]

let more_cross_checks =
  [ Alcotest.test_case "iset pp" `Quick test_iset_pp_and_add_all ]

let more_boundaries =
  [ Alcotest.test_case "interval set degenerate" `Quick test_iset_degenerate ]
