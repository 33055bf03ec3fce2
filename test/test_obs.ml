(* Dcn_obs: registry semantics, the zero-cost disabled contract,
   jobs-invariant snapshot totals, wire round-trips and totality on the
   malformed-snapshot corpus, Prometheus exposition, SLO derivation. *)

module Json = Dcn_engine.Json
module Pool = Dcn_engine.Pool
module Prng = Dcn_util.Prng
module Builders = Dcn_topology.Builders
module Model = Dcn_power.Model
module Flow = Dcn_flow.Flow
module Event = Dcn_serve.Event
module Session = Dcn_serve.Session
module Repair = Dcn_resilience.Repair
module Registry = Dcn_obs.Registry
module Snapshot = Dcn_obs.Snapshot
module Slo = Dcn_obs.Slo
module Expose = Dcn_obs.Expose

(* The registry is process-global; every test that enables it must
   leave it disabled so the other suites keep the zero-cost default. *)
let with_registry f =
  Registry.enable ();
  Fun.protect ~finally:Registry.disable f

let feq = Alcotest.(check (float 1e-9))

(* ----------------------------- registry ---------------------------- *)

let test_counter_semantics () =
  with_registry @@ fun () ->
  let c = Registry.counter ~help:"test counter" "test.obs.count" in
  feq "starts at zero" 0. (Registry.value c);
  Registry.incr c;
  Registry.incr ~by:41 c;
  feq "incr accumulates" 42. (Registry.value c);
  Registry.add c 0.5;
  feq "add accumulates" 42.5 (Registry.value c);
  (* Registration is idempotent on (name, labels): same handle. *)
  let c' = Registry.counter "test.obs.count" in
  Registry.incr c';
  feq "same (name, labels) shares the total" 43.5 (Registry.value c);
  (* Distinct labels are a distinct metric. *)
  let cl = Registry.counter ~labels:[ ("k", "v") ] "test.obs.count" in
  Registry.incr ~by:7 cl;
  feq "labelled variant is separate" 43.5 (Registry.value c);
  feq "labelled total" 7. (Registry.value cl);
  (* A (name, labels) pair cannot change kind. *)
  (match Registry.gauge "test.obs.count" with
  | _ -> Alcotest.fail "kind conflict was not rejected"
  | exception Invalid_argument _ -> ());
  (* Reset zeroes totals but keeps registrations and enablement. *)
  Registry.reset ();
  Alcotest.(check bool) "still enabled" true (Registry.on ());
  feq "reset zeroes" 0. (Registry.value c);
  Registry.incr c;
  feq "counts again after reset" 1. (Registry.value c)

let test_gauge_and_histogram () =
  with_registry @@ fun () ->
  let g = Registry.gauge ~help:"test gauge" "test.obs.gauge" in
  Alcotest.(check bool) "unset gauge" true (Registry.gauge_value g = None);
  Registry.set g 2.5;
  Registry.set g 4.25;
  Alcotest.(check bool)
    "last write wins" true
    (Registry.gauge_value g = Some 4.25);
  let h = Registry.histogram ~help:"test hist" "test.obs.hist" in
  List.iter (Registry.observe h) [ 1.0; 2.0; 4.0; 8.0 ];
  let snap = Snapshot.scrape ~seq:1 () in
  (match Snapshot.dist snap "test.obs.hist" with
  | None -> Alcotest.fail "histogram missing from scrape"
  | Some d ->
    Alcotest.(check int) "observation count" 4 d.Registry.d_count;
    feq "sum" 15. d.Registry.d_sum;
    feq "min" 1. d.Registry.d_min;
    feq "max" 8. d.Registry.d_max);
  (* An unset gauge is skipped by the scrape; a set one appears. *)
  Alcotest.(check bool)
    "set gauge scraped" true
    (Snapshot.gauge_value snap "test.obs.gauge" = Some 4.25);
  let unset = Registry.gauge "test.obs.gauge_unset" in
  ignore unset;
  Alcotest.(check bool)
    "unset gauge skipped" true
    (Snapshot.find snap "test.obs.gauge_unset" = None)

let test_disabled_is_inert () =
  Alcotest.(check bool) "disabled by default" false (Registry.on ());
  let c = Registry.counter "test.obs.inert" in
  Registry.incr ~by:100 c;
  feq "disabled incr records nothing" 0. (Registry.value c);
  with_registry (fun () ->
      Registry.incr ~by:3 c;
      feq "enabled incr records" 3. (Registry.value c));
  Registry.incr ~by:100 c;
  feq "inert again after disable" 3. (Registry.value c)

(* The zero-cost contract: while disabled, every update helper returns
   after one branch without allocating.  Constant float arguments keep
   caller-side boxing out of the measurement. *)
let test_disabled_zero_allocation () =
  Alcotest.(check bool) "registry disabled" false (Registry.on ());
  let c = Registry.counter "test.obs.alloc" in
  let g = Registry.gauge "test.obs.alloc_gauge" in
  let h = Registry.histogram "test.obs.alloc_hist" in
  Registry.incr c;
  Registry.set g 1.;
  Registry.observe h 1.;
  let before = Gc.minor_words () in
  for _ = 1 to 50_000 do
    Registry.incr c;
    Registry.add c 2.5;
    Registry.set g 1.5;
    Registry.observe h 0.25
  done;
  feq "no minor allocation while disabled" 0. (Gc.minor_words () -. before)

(* ------------------------- jobs invariance ------------------------- *)

(* The bench/E13 synthetic stream, shrunk: arrivals, cancels and clock
   advances on line:5 under a finite cap. *)
let synthetic_events n =
  let rng = Prng.create 11 in
  let now = ref 0. and next_id = ref 1 and live = ref [] in
  List.init n (fun _ ->
      match Prng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 | 5 ->
        let src = Prng.int rng 5 in
        let dst = (src + 1 + Prng.int rng 4) mod 5 in
        let release = !now +. Prng.float rng 0.5 in
        let deadline = release +. 1.5 +. Prng.float rng 4.5 in
        let f =
          Flow.make ~id:!next_id ~src ~dst
            ~volume:(0.5 +. Prng.float rng 5.5)
            ~release ~deadline
        in
        incr next_id;
        live := f.Flow.id :: !live;
        Event.Flow_arrival f
      | 6 | 7 when !live <> [] ->
        let i = Prng.int rng (List.length !live) in
        let id = List.nth !live i in
        live := List.filter (fun j -> j <> id) !live;
        Event.Flow_cancel { flow = id }
      | _ ->
        now := !now +. 0.3 +. Prng.float rng 1.2;
        Event.Advance_clock { clock = !now })

let contains = Test_util.contains

(* The deterministic view of a sample: integer-valued counter totals,
   gauge values and histogram counts are bit-identical at every --jobs
   level; wall-clock seconds, GC words and latency bucket shapes are
   genuinely nondeterministic and excluded. *)
let comparable (s : Registry.sample) =
  if contains s.s_name "seconds" || contains s.s_name "minor_words" then None
  else
    match s.s_value with
    | Registry.Value v -> Some (s.s_name, s.s_labels, Printf.sprintf "%h" v)
    | Registry.Dist d ->
      Some (s.s_name, s.s_labels, Printf.sprintf "count=%d" d.Registry.d_count)

let run_session_with_jobs jobs =
  Registry.reset ();
  let events = synthetic_events 16 in
  Pool.with_pool ~jobs (fun pool ->
      let session =
        Session.create ~pool ~graph:(Builders.line 5)
          ~power:(Model.make ~sigma:1. ~mu:1. ~alpha:2. ~cap:6. ())
          ~policy:Repair.Drop_latest_deadline ~seed:7 ()
      in
      List.iter (fun e -> ignore (Session.apply session e)) events);
  let snap = Snapshot.scrape ~seq:1 () in
  (snap, List.filter_map comparable snap.Snapshot.metrics)

let test_jobs_invariance () =
  with_registry @@ fun () ->
  let snap1, seq_totals = run_session_with_jobs 1 in
  let _, par_totals = run_session_with_jobs 4 in
  Alcotest.(check bool)
    "session telemetry recorded" true
    (Snapshot.counter_total snap1 "serve.events" > 0.);
  Alcotest.(check int)
    "same metric set" (List.length seq_totals) (List.length par_totals);
  List.iter2
    (fun (n1, l1, v1) (n2, l2, v2) ->
      Alcotest.(check string) "metric name" n1 n2;
      Alcotest.(check bool) ("labels of " ^ n1) true (l1 = l2);
      Alcotest.(check string) ("total of " ^ n1) v1 v2)
    seq_totals par_totals

(* ------------------------------ wire ------------------------------- *)

let test_snapshot_round_trip () =
  with_registry @@ fun () ->
  Registry.incr ~by:3 (Registry.counter "test.obs.rt");
  Registry.incr (Registry.counter ~labels:[ ("k", "v") ] "test.obs.rt");
  Registry.set (Registry.gauge "test.obs.rt_gauge") 2.5;
  List.iter (Registry.observe (Registry.histogram "test.obs.rt_hist")) [ 1.; 2. ];
  let snap = Snapshot.scrape ~seq:5 () in
  (match Snapshot.of_json (Snapshot.to_json snap) with
  | Error m -> Alcotest.failf "bare round trip failed: %s" m
  | Ok back ->
    Alcotest.(check bool) "bare round trip is lossless" true (back = snap));
  match Json.of_string (Expose.wire_line snap) with
  | exception Failure m -> Alcotest.failf "wire line is not JSON: %s" m
  | json -> (
    (match Json.member "stats" json with
    | Some inner ->
      Alcotest.(check bool)
        "wire line carries the slo section" true
        (Json.member "slo" inner <> None)
    | None -> Alcotest.fail "wire line lost the stats wrapper");
    match Snapshot.of_json json with
    | Error m -> Alcotest.failf "wrapped round trip failed: %s" m
    | Ok back ->
      Alcotest.(check bool) "wrapped round trip is lossless" true (back = snap))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every line of the malformed corpus must yield a typed verdict —
   parse failure, Error, or Ok — never an exception. *)
let test_of_json_total_on_corpus () =
  let lines =
    String.split_on_char '\n' (read_file "corpus/stats-truncated.snapshots")
    |> List.filter (fun l -> String.trim l <> "")
  in
  let unparsable = ref 0 and ok = ref 0 and rejected = ref 0 in
  List.iter
    (fun line ->
      match Json.of_string line with
      | exception Failure _ -> incr unparsable
      | json -> (
        match Snapshot.of_json json with
        | Ok _ -> incr ok
        | Error m ->
          if String.trim m = "" then Alcotest.fail "empty error message";
          incr rejected))
    lines;
  Alcotest.(check int) "corpus lines" 10 (List.length lines);
  Alcotest.(check int) "unparsable lines" 2 !unparsable;
  Alcotest.(check int) "valid snapshots" 3 !ok;
  Alcotest.(check int) "typed rejections" 5 !rejected

(* --------------------------- prometheus ---------------------------- *)

let test_prometheus_exposition () =
  with_registry @@ fun () ->
  Registry.incr ~by:9
    (Registry.counter ~help:"escape\nme" ~labels:[ ("path", "a\"b\\c\nd") ]
       "test.obs.prom total");
  Registry.set (Registry.gauge "test.obs.prom_gauge") 1.5;
  List.iter
    (Registry.observe (Registry.histogram "test.obs.prom_hist"))
    [ 0.5; 1.5; 2.5 ];
  let text = Expose.prometheus (Snapshot.scrape ~seq:1 ()) in
  (match Expose.validate_prometheus text with
  | Ok () -> ()
  | Error m -> Alcotest.failf "exposition failed validation: %s" m);
  let has sub = contains text sub in
  Alcotest.(check bool)
    "counter sanitised + _total suffix" true
    (has "dcn_test_obs_prom_total_total{path=\"a\\\"b\\\\c\\nd\"} 9");
  Alcotest.(check bool) "gauge family" true (has "# TYPE dcn_test_obs_prom_gauge gauge");
  Alcotest.(check bool)
    "histogram exposed as summary" true
    (has "# TYPE dcn_test_obs_prom_hist summary");
  Alcotest.(check bool)
    "summary quantiles" true
    (has "dcn_test_obs_prom_hist{quantile=\"0.5\"}");
  Alcotest.(check bool) "summary count" true (has "dcn_test_obs_prom_hist_count 3")

let test_validate_rejects_garbage () =
  List.iter
    (fun bad ->
      match Expose.validate_prometheus bad with
      | Ok () -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "dcn_ok 1\n";  (* sample without a preceding # TYPE *)
      "# TYPE dcn_x counter\n9dcn_x 1\n";  (* bad metric name *)
      "# TYPE dcn_x wat\ndcn_x 1\n";  (* unknown type *)
      "# TYPE dcn_x counter\ndcn_x notanumber\n";  (* bad value *)
    ]

(* ------------------------------- slo ------------------------------- *)

let test_slo_derivation () =
  with_registry @@ fun () ->
  let c ?labels name by = Registry.incr ~by (Registry.counter ?labels name) in
  c "serve.events" 10;
  c "serve.committed" 6;
  c "serve.degraded" 2;
  c "serve.rejected" 2;
  c "relaxation.intervals_solved" 30;
  c "relaxation.intervals_reused" 10;
  c ~labels:[ ("engine", "kernel") ] "fw.iterations" 100;
  c ~labels:[ ("engine", "reference") ] "fw.iterations" 25;
  c "serve.certified" 8;
  Registry.add (Registry.counter "serve.apply_minor_words") 500.;
  Registry.set (Registry.gauge "serve.energy") 120.;
  Registry.set (Registry.gauge "serve.energy_lb") 100.;
  Registry.set (Registry.gauge "serve.min_slack") 0.75;
  List.iter (Registry.observe (Registry.histogram "serve.apply_ms")) [ 4.; 6. ];
  let slo = Slo.of_snapshot (Snapshot.scrape ~seq:1 ()) in
  Alcotest.(check int) "events" 10 slo.Slo.events;
  (match slo.Slo.commit_rate with
  | Some r -> feq "commit rate" 0.6 r
  | None -> Alcotest.fail "commit rate missing");
  (match slo.Slo.reuse_ratio with
  | Some r -> feq "reuse ratio" 0.25 r
  | None -> Alcotest.fail "reuse ratio missing");
  (match slo.Slo.energy_gap with
  | Some g -> feq "energy gap" 0.2 g
  | None -> Alcotest.fail "energy gap missing");
  Alcotest.(check int) "fw iterations sum labels" 125 slo.Slo.fw_iterations;
  (match slo.Slo.minor_words_per_event with
  | Some w -> feq "minor words per event" 50. w
  | None -> Alcotest.fail "minor words missing");
  Alcotest.(check int) "apply samples" 2 slo.Slo.apply_count;
  (match slo.Slo.min_slack with
  | Some s -> feq "min slack" 0.75 s
  | None -> Alcotest.fail "min slack missing");
  Alcotest.(check int) "uncertified defaults to zero" 0 slo.Slo.uncertified;
  (* The derived section must serialise without losing fields: the JSON
     carries every table row plus apply_count (the table folds the
     sample count into the latency rows). *)
  match Slo.to_json slo with
  | Json.Obj fields ->
    Alcotest.(check int)
      "slo json carries every indicator"
      (List.length (Slo.rows slo) + 1)
      (List.length fields);
    Alcotest.(check bool)
      "apply_count present" true
      (List.mem_assoc "apply_count" fields)
  | _ -> Alcotest.fail "slo json is not an object"

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
        Alcotest.test_case "gauge and histogram" `Quick test_gauge_and_histogram;
        Alcotest.test_case "disabled registry is inert" `Quick
          test_disabled_is_inert;
        Alcotest.test_case "disabled hot path allocates nothing" `Quick
          test_disabled_zero_allocation;
        Alcotest.test_case "snapshot totals are jobs-invariant" `Slow
          test_jobs_invariance;
        Alcotest.test_case "snapshot wire round trip" `Quick
          test_snapshot_round_trip;
        Alcotest.test_case "of_json total on malformed corpus" `Quick
          test_of_json_total_on_corpus;
        Alcotest.test_case "prometheus exposition validates" `Quick
          test_prometheus_exposition;
        Alcotest.test_case "prometheus validator rejects garbage" `Quick
          test_validate_rejects_garbage;
        Alcotest.test_case "slo derivation" `Quick test_slo_derivation;
      ] );
  ]
