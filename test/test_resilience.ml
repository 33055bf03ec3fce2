(* Dcn_resilience: fault injection, schedule repair, the watchdog and
   campaign-level jobs-invariance. *)

module Json = Dcn_engine.Json
module Pool = Dcn_engine.Pool
module Deadline = Dcn_engine.Deadline
module Prng = Dcn_util.Prng
module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Instance = Dcn_core.Instance
module Serialize = Dcn_core.Serialize
module Schedule = Dcn_sched.Schedule
module Fault = Dcn_resilience.Fault
module Repair = Dcn_resilience.Repair
module Watchdog = Dcn_resilience.Watchdog
module Campaign = Dcn_resilience.Campaign

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus name =
  let inst =
    Serialize.instance_of_string (read_file ("corpus/" ^ name ^ ".instance"))
  in
  let sched =
    Serialize.schedule_of_string inst (read_file ("corpus/" ^ name ^ ".schedule"))
  in
  (inst, sched)

(* ------------------------- fault determinism ----------------------- *)

let test_fault_campaign_deterministic () =
  let a = Fault.campaign ~seed:42 ~n:6 in
  let b = Fault.campaign ~seed:42 ~n:6 in
  Array.iter2
    (fun (x : Fault.scenario) (y : Fault.scenario) ->
      Alcotest.(check string) "label" x.Fault.label y.Fault.label;
      Alcotest.(check string)
        "event"
        (Json.to_string (Fault.event_to_json x.Fault.event))
        (Json.to_string (Fault.event_to_json y.Fault.event)))
    a b;
  (* A different seed draws different faults. *)
  let c = Fault.campaign ~seed:43 ~n:6 in
  Alcotest.(check bool) "seed matters" true
    (Array.exists2
       (fun (x : Fault.scenario) (y : Fault.scenario) ->
         Json.to_string (Fault.event_to_json x.Fault.event)
         <> Json.to_string (Fault.event_to_json y.Fault.event))
       a c)

let test_fault_events_well_formed () =
  Array.iter
    (fun (s : Fault.scenario) ->
      let t0, t1 = Instance.horizon s.Fault.instance in
      let at = Fault.at s.Fault.event in
      Alcotest.(check bool) "strike inside horizon" true (at > t0 && at < t1);
      match s.Fault.event with
      | Fault.Cable_cut { cables; _ } | Fault.Degradation { cables; _ } ->
        let total = Graph.num_cables s.Fault.instance.Instance.graph in
        Alcotest.(check bool) "some cable" true (cables <> []);
        Alcotest.(check bool) "never the whole fabric (unless one cable)" true
          (total = 1 || List.length cables < total)
      | Fault.Burst { flows; at } ->
        List.iter
          (fun (f : Flow.t) ->
            Alcotest.(check bool) "burst released after the strike" true
              (f.release >= at))
          flows)
    (Fault.campaign ~seed:7 ~n:20)

(* ------------------------------ repair ----------------------------- *)

let repair_certified ~policy inst committed event =
  match
    Repair.repair ~policy ~rng:(Prng.create 11) ~committed
      ~event inst
  with
  | Repair.Repaired d | Repair.Degraded d ->
    Alcotest.(check (list string))
      "repaired schedule certifies" []
      (List.map Dcn_check.Certify.kind d.Repair.violations);
    d
  | Repair.Irreparable { reason; _ } ->
    Alcotest.failf "unexpectedly irreparable: %s" reason

let test_repair_cable_cut_corpus () =
  let inst, committed = corpus "pass" in
  (* Cut the cable to host 2 mid-schedule: flow 0 (0->2) is stranded
     with volume left, flow 1 (0->1) still has a route. *)
  let cut = Fault.Cable_cut { at = 1.; cables = [ 2 ] } in
  let d = repair_certified ~policy:Repair.Drop_latest_deadline inst committed cut in
  Alcotest.(check (list int)) "stranded flow dropped" [ 0 ]
    (List.map (fun (f : Flow.t) -> f.Flow.id) d.Repair.dropped);
  (* Each flow had delivered half its volume by t=1. *)
  Alcotest.(check (float 1e-9)) "salvage" 3. d.Repair.salvaged;
  (match d.Repair.residual with
  | Some residual ->
    Alcotest.(check int) "flow 1 re-planned" 1 (Instance.num_flows residual)
  | None -> Alcotest.fail "expected a residual instance");
  (* Reject_new refuses to shed a pre-fault flow: irreparable. *)
  match
    Repair.repair ~policy:Repair.Reject_new
      ~rng:(Prng.create 11) ~committed ~event:cut inst
  with
  | Repair.Irreparable _ -> ()
  | o -> Alcotest.failf "expected irreparable, got %s" (Repair.outcome_kind o)

let test_repair_degradation_and_burst () =
  let inst, committed = corpus "pass" in
  (* Degrade capacity: the committed peak rate is 3 (both flows share
     link 0), so a 0.9 clamp forces a re-plan below rate 2.7. *)
  let event = Fault.Degradation { at = 1.; cables = [ 0 ]; factor = 0.9 } in
  let d = repair_certified ~policy:Repair.Drop_largest_residual inst committed event in
  (match d.Repair.residual with
  | Some residual ->
    Alcotest.(check bool) "cap clamped" true
      (residual.Instance.power.Dcn_power.Model.cap < 3.)
  | None -> Alcotest.fail "expected a residual instance");
  (* Burst arrivals are admitted (drop policies) or rejected wholesale
     (Reject_new) — both must certify. *)
  let extra = Flow.make ~id:9 ~src:2 ~dst:0 ~volume:1. ~release:1.2 ~deadline:3. in
  let burst = Fault.Burst { at = 1.; flows = [ extra ] } in
  let d = repair_certified ~policy:Repair.Drop_latest_deadline inst committed burst in
  (match d.Repair.residual with
  | Some residual ->
    Alcotest.(check bool) "burst admitted" true
      (Option.is_some (Instance.find_flow_opt residual 9))
  | None -> Alcotest.fail "expected a residual instance");
  let d = repair_certified ~policy:Repair.Reject_new inst committed burst in
  Alcotest.(check (list int)) "burst rejected" [ 9 ]
    (List.map (fun (f : Flow.t) -> f.Flow.id) d.Repair.dropped)

let test_repair_never_raises () =
  (* A committed schedule interrupted by every fault the generator can
     draw, under every policy: always a typed outcome. *)
  Array.iter
    (fun (s : Fault.scenario) ->
      let committed =
        Dcn_core.Selfcheck.without (fun () ->
            (Dcn_core.Greedy_ear.solve s.Fault.instance)
              .Dcn_core.Solution.schedule)
      in
      List.iter
        (fun policy ->
          let outcome =
            Repair.repair ~policy ~rng:(Prng.create 3)
              ~committed ~event:s.Fault.event s.Fault.instance
          in
          match outcome with
          | Repair.Repaired d | Repair.Degraded d ->
            Alcotest.(check (list string))
              (s.Fault.label ^ " certifies")
              []
              (List.map Dcn_check.Certify.kind d.Repair.violations)
          | Repair.Irreparable _ -> ())
        [ Repair.Drop_latest_deadline; Repair.Drop_largest_residual; Repair.Reject_new ])
    (Fault.campaign ~seed:5 ~n:6)

(* ----------------------------- watchdog ---------------------------- *)

let test_watchdog_zero_budget_falls_back () =
  let inst, _ = corpus "pass" in
  let answer = Watchdog.solve ~budget_ms:0. ~rng:(Prng.create 1) inst in
  Alcotest.(check string) "greedy answers" "greedy-ear" answer.Watchdog.algorithm;
  Alcotest.(check (list string))
    "guarded stages expired"
    [ "exact"; "random-schedule" ]
    (Watchdog.timed_out answer);
  Alcotest.(check bool) "feasible" true answer.Watchdog.feasible;
  (* Deterministic: the same structure every run. *)
  let again = Watchdog.solve ~budget_ms:0. ~rng:(Prng.create 99) inst in
  Alcotest.(check string) "same json"
    (Json.to_string (Watchdog.answer_to_json answer))
    (Json.to_string (Watchdog.answer_to_json again));
  (* The fallback's schedule still certifies. *)
  Alcotest.(check (list string))
    "fallback certifies" []
    (List.map Dcn_check.Certify.kind
       (Dcn_check.Certify.schedule ~reported_energy:answer.Watchdog.energy inst
          answer.Watchdog.schedule))

let test_watchdog_unbudgeted_answers_exact () =
  let inst, _ = corpus "pass" in
  let answer = Watchdog.solve ~rng:(Prng.create 1) inst in
  Alcotest.(check string) "exact answers" "exact" answer.Watchdog.algorithm;
  Alcotest.(check (list string)) "nothing expired" [] (Watchdog.timed_out answer);
  Alcotest.(check bool) "solution carried" true (Option.is_some answer.Watchdog.solution)

let test_watchdog_honours_ambient_deadline () =
  let inst, _ = corpus "pass" in
  (* An enclosing expired deadline beats the watchdog's own infinite
     budget: the guarded stages fall through, greedy still answers. *)
  let answer =
    Deadline.with_budget ~ms:0. (fun () ->
        Watchdog.solve ~rng:(Prng.create 1) inst)
  in
  Alcotest.(check string) "greedy answers" "greedy-ear" answer.Watchdog.algorithm;
  Alcotest.(check (list string))
    "exact and random-schedule expired"
    [ "exact"; "random-schedule" ]
    (Watchdog.timed_out answer)

(* ----------------------------- campaign ---------------------------- *)

let campaign_json ~jobs =
  let pool = Pool.create ~jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Json.to_string
        (Campaign.to_json
           (Campaign.run ~pool ~policy:Repair.Drop_latest_deadline ~seed:42 ~n:8 ())))

let test_campaign_jobs_invariance () =
  Alcotest.(check string)
    "jobs 1 = jobs 4" (campaign_json ~jobs:1) (campaign_json ~jobs:4)

let test_campaign_certifies () =
  let t = Campaign.run ~policy:Repair.Drop_largest_residual ~seed:9 ~n:6 () in
  Alcotest.(check bool) "campaign ok" true (Campaign.ok t);
  Alcotest.(check int) "counts partition" (Array.length t.Campaign.rows)
    (t.Campaign.repaired + t.Campaign.degraded + t.Campaign.irreparable)

let suite =
  [
    ( "resilience",
      [
        Alcotest.test_case "fault campaign deterministic" `Quick
          test_fault_campaign_deterministic;
        Alcotest.test_case "fault events well-formed" `Quick
          test_fault_events_well_formed;
        Alcotest.test_case "repair cable cut (corpus)" `Quick
          test_repair_cable_cut_corpus;
        Alcotest.test_case "repair degradation and burst" `Quick
          test_repair_degradation_and_burst;
        Alcotest.test_case "repair never raises" `Quick test_repair_never_raises;
        Alcotest.test_case "watchdog 0ms falls back" `Quick
          test_watchdog_zero_budget_falls_back;
        Alcotest.test_case "watchdog unbudgeted answers exact" `Quick
          test_watchdog_unbudgeted_answers_exact;
        Alcotest.test_case "watchdog honours ambient deadline" `Quick
          test_watchdog_honours_ambient_deadline;
        Alcotest.test_case "campaign jobs-invariance" `Quick
          test_campaign_jobs_invariance;
        Alcotest.test_case "campaign certifies" `Quick test_campaign_certifies;
      ] );
  ]
