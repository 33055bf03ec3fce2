(* The commit-path sweeps against their list-scanning oracles
   (Naive): profiles and energy, the fluid replay, certification, the
   per-interval active sets and the schedule delta must return what the
   earlier code returned, bit for bit, on solver output and on the
   schedules a serving session commits.  On session epochs the
   incremental commit path (the session's reply, and certificates kept
   across the epochs' deltas) must also equal the full passes. *)

module Prng = Dcn_util.Prng
module Json = Dcn_engine.Json
module Builders = Dcn_topology.Builders
module Model = Dcn_power.Model
module Flow = Dcn_flow.Flow
module Timeline = Dcn_flow.Timeline
module Profile = Dcn_sched.Profile
module Schedule = Dcn_sched.Schedule
module Schedule_delta = Dcn_sched.Schedule_delta
module Instance = Dcn_core.Instance
module Certify = Dcn_check.Certify
module Link_state = Dcn_sched.Link_state
module Event = Dcn_serve.Event
module Session = Dcn_serve.Session
module Repair = Dcn_resilience.Repair

let bits = Int64.bits_of_float

(* Structural equality that also tells 0. from -0. and matches NaNs. *)
let same a b = compare a b = 0

let fail fmt = Printf.ksprintf failwith fmt

(* Every pass on one schedule, against the oracle.  [inst] is the
   instance the schedule is certified against. *)
let check_schedule label inst (sched : Schedule.t) =
  let profiles =
    Array.map (fun (l, p) -> (l, Profile.segments p)) (Schedule.profiles sched)
  in
  if not (same profiles (Naive.profiles sched)) then fail "%s: profiles differ" label;
  if bits (Schedule.energy sched) <> bits (Naive.energy sched) then
    fail "%s: energy %h <> %h" label (Schedule.energy sched) (Naive.energy sched);
  if bits (Schedule.max_link_rate sched) <> bits (Naive.max_link_rate sched) then
    fail "%s: max_link_rate differs" label;
  if not (same (Dcn_sim.Fluid.run sched) (Naive.fluid_run sched)) then
    fail "%s: fluid reports differ" label;
  let power = inst.Instance.power in
  (* A cap at half the peak rate makes the capacity clause fire. *)
  let tight =
    Instance.make ~graph:inst.Instance.graph
      ~power:
        (Model.make ~sigma:power.Model.sigma ~mu:power.Model.mu ~alpha:power.Model.alpha
           ~cap:(Float.max 1e-3 (0.5 *. Schedule.max_link_rate sched))
           ())
      ~flows:inst.Instance.flows
  in
  let energy = Schedule.energy sched in
  List.iter
    (fun (name, config, inst, reported_energy) ->
      let got = Certify.schedule ~config ?reported_energy inst sched in
      let want = Naive.certify ~config ?reported_energy inst sched in
      if not (same got want) then
        fail "%s (%s): %d violation(s) <> oracle's %d" label name (List.length got)
          (List.length want))
    [
      ("default", Certify.default, inst, Some energy);
      ("exclusive", { Certify.default with exclusive = true }, inst, None);
      ("partial", { Certify.default with partial = true }, inst, None);
      ("tight cap", Certify.default, tight, Some (energy *. 1.01));
      ("tight cap, exclusive", { Certify.default with exclusive = true }, tight, None);
    ];
  let tl = Instance.timeline inst in
  let flows = inst.Instance.flows in
  let buckets = Timeline.active_by_interval tl flows in
  for k = 0 to Timeline.num_intervals tl - 1 do
    if not (same buckets.(k) (Naive.active tl flows k)) then
      fail "%s: active flows of interval %d differ" label k
  done;
  true

let check_delta label before after =
  same (Schedule_delta.diff ~before ~after) (Naive.diff ~before ~after)
  || fail "%s: deltas differ" label

(* ------------------------- solver output --------------------------- *)

let quick_fw = { Dcn_mcf.Frank_wolfe.default_config with max_iters = 30; gap_tol = 1e-3 }

let solved_schedules (case : Dcn_check.Gen.case) =
  let inst = case.instance in
  let rs =
    Dcn_core.Random_schedule.solve
      ~config:{ Dcn_core.Random_schedule.attempts = 5; fw_config = quick_fw }
      ~rng:(Prng.create case.solver_seed) inst
  in
  let mcf = Dcn_core.Baselines.sp_mcf inst in
  [ ("random-schedule", rs.Dcn_core.Solution.schedule); ("mcf", mcf.schedule) ]

let prop_solver_output =
  QCheck.Test.make ~name:"sweeps equal the list oracles on solver output" ~count:15
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      Array.for_all
        (fun (case : Dcn_check.Gen.case) ->
          let solved = solved_schedules case in
          List.for_all
            (fun (solver, sched) ->
              check_schedule
                (Printf.sprintf "seed %d %s %s" seed case.label solver)
                case.instance sched)
            solved
          &&
          (* Random-Schedule shares links where MCF's circuits do not,
             so the delta between the two changes plans. *)
          match solved with
          | [ (_, a); (_, b) ] ->
            check_delta "rs -> mcf" (Some a) (Some b)
            && check_delta "drain" (Some a) None
            && check_delta "fill" None (Some b)
          | _ -> true)
        (Dcn_check.Gen.batch ~seed ~n:2))

(* ------------------------- session epochs -------------------------- *)

(* Incremental = full on one epoch.  The reply's delta, energy and
   violations must be [Schedule_delta.diff], [Schedule.energy] and
   [Certify.schedule] on the whole schedules; certificates kept across
   the epochs (default and exclusive configs, updated from the diff)
   must give [Certify.schedule]'s violations, also under a tight cap
   with a wrong reported energy, and the energy and capacity verdict of
   the schedule. *)
let check_incremental label ~fresh ~states outcome ~before ~after =
  let diff = Schedule_delta.diff ~before ~after in
  let reply =
    match outcome with
    | Session.Rejected _ ->
      if not (Schedule_delta.is_empty diff) then
        fail "%s: a rejected event changed the schedule" label;
      None
    | Session.Committed d | Session.Degraded d ->
      if not (same d.delta diff) then fail "%s: the reply's delta is not the diff" label;
      Some d
  in
  match after with
  | None ->
    Option.iter
      (fun (d : Session.detail) ->
        if d.energy <> 0. || d.violations <> [] then fail "%s: drained epoch" label)
      reply;
    List.iter (fun (config, st) -> st := fresh config) states
  | Some (sched : Schedule.t) ->
    let flows = List.map (fun (p : Schedule.plan) -> p.flow) sched.plans in
    let inst = Instance.make ~graph:sched.graph ~power:sched.power ~flows in
    let power = sched.power in
    (* A cap at half the peak rate makes the capacity clause fire. *)
    let tight =
      Instance.make ~graph:sched.graph
        ~power:
          (Model.make ~sigma:power.Model.sigma ~mu:power.Model.mu ~alpha:power.Model.alpha
             ~cap:(Float.max 1e-3 (0.5 *. Schedule.max_link_rate sched))
             ())
        ~flows
    in
    let energy = Schedule.energy sched in
    Option.iter
      (fun (d : Session.detail) ->
        if bits d.energy <> bits energy then
          fail "%s: reply energy %h <> Schedule.energy %h" label d.energy energy;
        if not (same d.violations (Certify.schedule ~reported_energy:energy inst sched)) then
          fail "%s: reply violations differ from Certify.schedule" label)
      reply;
    List.iter
      (fun (config, st) ->
        Certify.update !st inst ~added:diff.added
          ~removed:(List.map (fun (p : Schedule.plan) -> p.flow.id) diff.removed);
        let links = Certify.links !st in
        if bits (Link_state.energy links ~horizon:sched.horizon) <> bits energy then
          fail "%s: kept energy differs" label;
        if not (same (Link_state.verdict links) (Schedule.capacity_verdict sched)) then
          fail "%s: kept capacity verdict differs" label;
        List.iter
          (fun (name, inst, reported_energy) ->
            if
              not
                (same
                   (Certify.check ~reported_energy !st inst sched)
                   (Certify.schedule ~config ~reported_energy inst sched))
            then fail "%s (%s): the kept certificate differs from the full one" label name)
          [ ("instance", inst, energy); ("tight cap", tight, energy *. 1.01) ])
      states

(* Every committed schedule of a session driven by [events], checked
   with its predecessor. *)
let check_session label ~graph ~power session events =
  let epoch = ref 0 in
  let fresh config = Certify.state ~config ~links:(Dcn_topology.Graph.num_links graph) power in
  let states =
    List.map
      (fun config -> (config, ref (fresh config)))
      [ Certify.default; { Certify.default with exclusive = true } ]
  in
  List.for_all
    (fun e ->
      incr epoch;
      let before = Session.schedule session in
      let outcome = Session.apply session e in
      let after = Session.schedule session in
      let label = Printf.sprintf "%s, event %d" label !epoch in
      check_incremental label ~fresh ~states outcome ~before ~after;
      check_delta label before after
      &&
      match after with
      | None -> true
      | Some sched ->
        let inst =
          Instance.make ~graph:sched.Schedule.graph ~power:sched.Schedule.power
            ~flows:(Session.active_flows session)
        in
        check_schedule label inst sched)
    events

(* A closed-loop-like stream at cap 4 on fat-tree k=4: single flows and
   shuffle coflows with overlapping windows (so admission sheds and
   draws over-cap candidates), cancels, and clock advances that retire
   flows. *)
let stream ~seed ~n =
  let rng = Prng.create seed in
  let graph = Builders.fat_tree 4 in
  let next_id = ref 1 and next_coflow = ref 1 and clock = ref 0. in
  let live = ref [] in
  let fresh (f : Flow.t) ~at =
    let id = !next_id in
    incr next_id;
    live := (id, at +. f.deadline) :: !live;
    Flow.make ~id ~src:f.src ~dst:f.dst ~volume:f.volume ~release:(at +. f.release)
      ~deadline:(at +. f.deadline)
  in
  let spec = { Dcn_flow.Workload.default_spec with horizon = (0., 15.) } in
  List.init n (fun i ->
      let at = !clock +. Prng.float rng 15. in
      match i mod 5 with
      | 0 | 2 ->
        Event.Flow_arrival
          (fresh ~at (List.hd (Dcn_flow.Workload.paper_random ~spec ~rng ~graph ~n:1 ())))
      | 1 ->
        let coflow = !next_coflow in
        incr next_coflow;
        let flows = Dcn_flow.Workload.paper_random ~spec ~rng ~graph ~n:3 () in
        Event.Coflow_arrival { coflow; flows = List.map (fresh ~at) flows }
      | 3 -> (
        match !live with
        | [] -> Event.Advance_clock { clock = !clock }
        | l -> Event.Flow_cancel { flow = fst (List.nth l (Prng.int rng (List.length l))) })
      | _ ->
        clock := List.fold_left (fun acc (_, d) -> Float.min acc d) (!clock +. 5.) !live;
        live := List.filter (fun (_, d) -> d > !clock) !live;
        Event.Advance_clock { clock = !clock })

let prop_session_epochs =
  QCheck.Test.make ~name:"sweeps equal the list oracles on session epochs" ~count:6
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let graph = Builders.fat_tree 4 in
      let power = Model.make ~sigma:1. ~mu:1. ~alpha:2. ~cap:4. () in
      let session =
        Session.create ~graph ~power ~policy:Repair.Drop_latest_deadline ~seed ()
      in
      check_session (Printf.sprintf "stream seed %d" seed) ~graph ~power session
        (stream ~seed ~n:30))

let corpus_events name =
  List.map
    (fun line ->
      match Event.of_json (Json.of_string line) with
      | Ok e -> e
      | Error m -> failwith m)
    (Test_serve.corpus_lines name)

(* The committed corpora: coflow sheds and rejections at cap 1.25, and
   100 events on a line. *)
let test_corpus_epochs () =
  let run label ~graph ~cap name =
    let power = Model.make ~sigma:1. ~mu:1. ~alpha:2. ~cap () in
    let session =
      Session.create ~graph ~power ~policy:Repair.Drop_latest_deadline ~seed:42 ()
    in
    Alcotest.(check bool) label true
      (check_session label ~graph ~power session (corpus_events name))
  in
  run "coflow-mix cap 1.25" ~graph:(Builders.fat_tree 4) ~cap:1.25 "coflow-mix.events";
  run "serve-100" ~graph:(Builders.line 5) ~cap:6. "serve-100.events"

(* Arbitrary slot lists with tied endpoints and cancelling rates. *)
let prop_profile_slots =
  QCheck.Test.make ~name:"Profile.of_slots equals the partition sweep" ~count:300
    QCheck.(
      list_of_size (Gen.int_bound 12)
        (triple (int_bound 6) (int_bound 6) (oneofl [ 0.; 0.5; 1.; 1.5; 2.; 1e-13 ])))
    (fun slots ->
      let slots =
        List.map (fun (a, b, r) -> (float_of_int (min a b), float_of_int (max a b), r)) slots
      in
      same (Profile.segments (Profile.of_slots slots)) (Naive.profile_segments slots))

(* The session certifies the energy its reply carries: a wrong reported
   energy is flagged against the re-integration. *)
let test_reported_energy_flagged () =
  let session =
    Session.create ~graph:(Builders.fat_tree 4)
      ~power:(Model.make ~sigma:1. ~mu:1. ~alpha:2. ~cap:2. ())
      ~policy:Repair.Drop_latest_deadline ~seed:42 ()
  in
  (* The last epoch that left a schedule, with its reply's energy. *)
  let last = ref None in
  List.iter
    (fun e ->
      match Session.apply session e with
      | Session.Committed d | Session.Degraded d ->
        Alcotest.(check int) "epoch certified" 0 (List.length d.violations);
        Option.iter
          (fun sched -> last := Some (sched, Session.active_flows session, d.energy))
          (Session.schedule session)
      | Session.Rejected _ -> ())
    (corpus_events "coflow-mix.events");
  let sched, flows, energy = Option.get !last in
  let inst =
    Instance.make ~graph:sched.Schedule.graph ~power:sched.Schedule.power ~flows
  in
  Alcotest.(check (float 0.)) "reply energy is the schedule's" (Schedule.energy sched) energy;
  let kinds reported =
    List.map
      (function
        | Certify.Energy_mismatch { source; _ } -> source
        | v -> Certify.kind v)
      (Certify.schedule ~reported_energy:reported inst sched)
  in
  Alcotest.(check (list string)) "kept energy certifies" [] (kinds energy);
  Alcotest.(check (list string)) "1% off is flagged" [ "solver" ] (kinds (energy *. 1.01))

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "commit/sweeps",
      [
        qt prop_profile_slots;
        qt prop_solver_output;
        qt prop_session_epochs;
        Alcotest.test_case "corpus epochs" `Quick test_corpus_epochs;
        Alcotest.test_case "reported energy flagged" `Quick test_reported_energy_flagged;
      ] );
  ]
