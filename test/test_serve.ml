(* Dcn_serve: event wire format, schedule deltas, session admission,
   incremental re-solve, per-epoch certification and jobs-invariance. *)

module Json = Dcn_engine.Json
module Pool = Dcn_engine.Pool
module Graph = Dcn_topology.Graph
module Builders = Dcn_topology.Builders
module Paths = Dcn_topology.Paths
module Model = Dcn_power.Model
module Flow = Dcn_flow.Flow
module Schedule = Dcn_sched.Schedule
module Schedule_delta = Dcn_sched.Schedule_delta
module Event = Dcn_serve.Event
module Session = Dcn_serve.Session
module Repair = Dcn_resilience.Repair

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_lines name =
  String.split_on_char '\n' (read_file ("corpus/" ^ name))
  |> List.filter (fun l -> String.trim l <> "")

let flow ?(src = 0) ?(dst = 4) ~id ~volume ~release ~deadline () =
  Flow.make ~id ~src ~dst ~volume ~release ~deadline

let arrival ?src ?dst ~id ~volume ~release ~deadline () =
  Event.Flow_arrival (flow ?src ?dst ~id ~volume ~release ~deadline ())

let session ?(cap = 6.) ?(sigma = 1.) ?(policy = Repair.Drop_latest_deadline)
    ?(pool = Pool.sequential) ?(seed = 42) () =
  Session.create ~pool ~graph:(Builders.line 5)
    ~power:(Model.make ~sigma ~mu:1. ~alpha:2. ~cap ())
    ~policy ~seed ()

(* ------------------------------ events ----------------------------- *)

let test_event_round_trip () =
  let events =
    [
      arrival ~id:7 ~volume:6. ~release:0.5 ~deadline:4.25 ();
      Event.Flow_cancel { flow = 7 };
      Event.Advance_clock { clock = 2.5 };
    ]
  in
  List.iter
    (fun e ->
      match Event.of_json (Event.to_json e) with
      | Ok e' ->
        Alcotest.(check string)
          "round trip"
          (Json.to_string (Event.to_json e))
          (Json.to_string (Event.to_json e'))
      | Error m -> Alcotest.failf "round trip failed: %s" m)
    events

let test_event_of_json_total () =
  let bad =
    [
      Json.Str "arrival";
      Json.Obj [ ("event", Json.Str "teleport") ];
      Json.Obj [ ("event", Json.Int 3) ];
      Json.Obj [ ("event", Json.Str "cancel") ];
      Json.Obj [ ("event", Json.Str "advance"); ("to", Json.Str "soon") ];
      (* Flow.make rejects: empty window, equal endpoints, volume <= 0 *)
      Event.to_json (arrival ~id:1 ~volume:1. ~release:0. ~deadline:4. ())
      |> (function
           | Json.Obj fs ->
             Json.Obj
               (List.map
                  (fun (k, v) -> if k = "deadline" then (k, Json.Float 0.) else (k, v))
                  fs)
           | j -> j);
    ]
  in
  List.iter
    (fun j ->
      match Event.of_json j with
      | Error _ -> ()
      | Ok e -> Alcotest.failf "accepted %s as %s" (Json.to_string j) (Event.kind e))
    bad

(* Serve [text] over a socket [Dcn_durable.Transport] loop in one
   write, from a client domain that reads [replies] reply lines and then
   lets the loop drain. *)
let serve_over_socket ~session text ~replies =
  let dir = Filename.temp_file "dcn-serve-socket" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "serve.sock" in
  let finished = Atomic.make false in
  let client =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set finished true) (fun () ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            let rec connect tries =
              match Unix.connect fd (Unix.ADDR_UNIX sock) with
              | () -> ()
              | exception
                  Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
                when tries > 0 ->
                Unix.sleepf 0.01;
                connect (tries - 1)
            in
            connect 500;
            let ic = Unix.in_channel_of_descr fd
            and oc = Unix.out_channel_of_descr fd in
            output_string oc text;
            flush oc;
            let lines = List.init replies (fun _ -> input_line ic) in
            Unix.close fd;
            lines))
  in
  let apply events answer =
    List.iter
      (fun e -> answer (Session.outcome_to_json (Session.apply session e)))
      events
  in
  ignore
    (Dcn_durable.Transport.serve ~socket:sock
       ~drain:(fun () -> Atomic.get finished)
       ~apply ());
  let lines = Domain.join client in
  Sys.rmdir dir;
  lines

(* The malformed-stream corpus through [Event.of_line]: every line
   after the first valid event is rejected in a typed way — a byte
   offset for truncated JSON, none for well-formed JSON of the wrong
   shape — and the socket transport answers each with exactly that
   position: its line, the byte within it (0 for a shape error) and
   its offset in the stream. *)
let test_truncated_corpus () =
  let text = read_file "corpus/serve-truncated.events" in
  let lines = corpus_lines "serve-truncated.events" in
  Alcotest.(check int) "fixture lines" 7 (List.length lines);
  Alcotest.(check bool) "no blank lines" true
    (text = String.concat "" (List.map (fun l -> l ^ "\n") lines));
  let parsed = List.map Event.of_line lines in
  Alcotest.(check (list string))
    "line classes"
    [ "event"; "parse"; "shape"; "shape"; "shape"; "shape"; "event" ]
    (List.map
       (function
         | Ok _ -> "event"
         | Error { Event.offset = Some _; _ } -> "parse"
         | Error { Event.offset = None; _ } -> "shape")
       parsed);
  let base = ref 0 in
  let expected =
    List.concat
      (List.mapi
         (fun i (line, r) ->
           let line_base = !base in
           base := !base + String.length line + 1;
           match r with
           | Ok _ -> []
           | Error { Event.offset; message } ->
             let byte = Option.value offset ~default:0 in
             Alcotest.(check bool) "offset within line" true
               (byte >= 0 && byte <= String.length line);
             [
               Json.to_string
                 (Json.Obj
                    [
                      ("error", Json.Str "parse");
                      ("line", Json.Int (i + 1));
                      ("byte", Json.Int byte);
                      ("offset", Json.Int (line_base + byte));
                      ("message", Json.Str message);
                    ]);
             ])
         (List.combine lines parsed))
  in
  let replies =
    serve_over_socket ~session:(session ()) text ~replies:(List.length lines)
  in
  Alcotest.(check (list string))
    "transport error replies" expected
    (List.filter
       (fun r ->
         match Json.of_string r with
         | Json.Obj fields -> List.mem_assoc "error" fields
         | _ -> false)
       replies)

(* --------------------------- schedule deltas ----------------------- *)

let schedule_of plans ~horizon =
  Schedule.make ~graph:(Builders.line 5)
    ~power:(Model.make ~sigma:1. ~mu:1. ~alpha:2. ())
    ~horizon plans

let density_plan f =
  let path =
    Option.get (Paths.shortest_path (Builders.line 5) ~src:f.Flow.src ~dst:f.Flow.dst)
  in
  {
    Schedule.flow = f;
    path;
    slots =
      [
        {
          Schedule.start = f.Flow.release;
          stop = f.Flow.deadline;
          rate = f.Flow.volume /. (f.Flow.deadline -. f.Flow.release);
        };
      ];
  }

let test_delta_round_trip () =
  let f1 = flow ~id:1 ~volume:6. ~release:0. ~deadline:4. () in
  let f2 = flow ~id:2 ~src:1 ~dst:3 ~volume:4. ~release:1. ~deadline:3. () in
  let f2' = flow ~id:2 ~src:1 ~dst:3 ~volume:2. ~release:1. ~deadline:3. () in
  let f3 = flow ~id:3 ~src:0 ~dst:2 ~volume:2. ~release:2. ~deadline:6. () in
  let before =
    Some (schedule_of [ density_plan f1; density_plan f2 ] ~horizon:(0., 4.))
  in
  let after =
    Some (schedule_of [ density_plan f2'; density_plan f3 ] ~horizon:(1., 6.))
  in
  let delta = Schedule_delta.diff ~before ~after in
  Alcotest.(check int) "added" 1 (List.length delta.Schedule_delta.added);
  Alcotest.(check int) "removed" 1 (List.length delta.Schedule_delta.removed);
  Alcotest.(check int) "changed" 1 (List.length delta.Schedule_delta.changed);
  (* Applying the diff to the before-state reproduces the after-state. *)
  let graph = Builders.line 5 in
  let power = Model.make ~sigma:1. ~mu:1. ~alpha:2. () in
  (match Schedule_delta.apply ~graph ~power ~before delta with
  | Error m -> Alcotest.failf "apply failed: %s" m
  | Ok got ->
    let plans s =
      match s with
      | None -> []
      | Some (s : Schedule.t) ->
        List.map
          (fun (p : Schedule.plan) -> (p.Schedule.flow.Flow.id, p))
          s.Schedule.plans
        |> List.sort compare
    in
    Alcotest.(check int) "same plan count" (List.length (plans after))
      (List.length (plans got));
    List.iter2
      (fun (i, p) (j, q) ->
        Alcotest.(check int) "same flow" i j;
        Alcotest.(check bool) "same plan" true (Schedule_delta.equal_plan p q))
      (plans after) (plans got));
  (* Applying against the wrong before-state is a typed error, and the
     empty diff is identity. *)
  (match Schedule_delta.apply ~graph ~power ~before:after delta with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "applied a delta against the wrong base");
  let empty = Schedule_delta.diff ~before ~after:before in
  Alcotest.(check bool) "self diff empty" true (Schedule_delta.is_empty empty)

let test_delta_json_shape () =
  let f1 = flow ~id:1 ~volume:6. ~release:0. ~deadline:4. () in
  let before = None
  and after = Some (schedule_of [ density_plan f1 ] ~horizon:(0., 4.)) in
  let j = Schedule_delta.to_json (Schedule_delta.diff ~before ~after) in
  match (Json.member "added" j, Json.member "removed" j, Json.member "horizon" j) with
  | Some (Json.List [ _ ]), Some (Json.List []), Some (Json.List [ _; _ ]) -> ()
  | _ -> Alcotest.failf "unexpected delta json: %s" (Json.to_string j)

(* ------------------------- admission edge cases -------------------- *)

let reason = function
  | Session.Rejected { reason } -> reason
  | o -> Alcotest.failf "expected rejection, got %s" (Session.outcome_kind o)

let test_admission_edges () =
  let s = session () in
  (* Arrivals in a fresh session. *)
  ignore (reason (Session.apply s (Event.Flow_cancel { flow = 9 })));
  (match Session.apply s (arrival ~id:1 ~volume:6. ~release:0. ~deadline:4. ()) with
  | Session.Committed d ->
    Alcotest.(check bool) "certified" true (d.Session.violations = []);
    Alcotest.(check int) "solved something" 1 d.Session.resolved_intervals
  | o -> Alcotest.failf "first arrival not committed: %s" (Session.outcome_kind o));
  (* Duplicate id. *)
  ignore (reason (Session.apply s (arrival ~id:1 ~volume:1. ~release:0. ~deadline:4. ())));
  (* Advance, then an arrival whose deadline already passed. *)
  (match Session.apply s (Event.Advance_clock { clock = 2. }) with
  | Session.Committed _ -> ()
  | o -> Alcotest.failf "advance failed: %s" (Session.outcome_kind o));
  Alcotest.(check (float 0.)) "clock" 2. (Session.clock s);
  ignore (reason (Session.apply s (arrival ~id:2 ~volume:1. ~release:0. ~deadline:1.5 ())));
  (* Clock never moves backwards. *)
  ignore (reason (Session.apply s (Event.Advance_clock { clock = 1. })));
  Alcotest.(check (float 0.)) "clock unchanged" 2. (Session.clock s);
  (* A release in the past is clamped to the clock on admission. *)
  (match Session.apply s (arrival ~id:3 ~src:1 ~dst:2 ~volume:1. ~release:0. ~deadline:5. ()) with
  | Session.Committed _ ->
    let f =
      List.find (fun (f : Flow.t) -> f.id = 3) (Session.active_flows s)
    in
    Alcotest.(check (float 1e-9)) "release clamped" 2. f.Flow.release
  | o -> Alcotest.failf "late-release arrival: %s" (Session.outcome_kind o));
  (* The committed state survives every rejection above. *)
  Alcotest.(check int) "two committed flows" 2
    (List.length (Session.active_flows s));
  Alcotest.(check bool) "all epochs certified" true (Session.ok s)

let test_admission_degrades_and_rejects () =
  (* line:3, cap 5: two committed flows, then a tight heavy arrival.
     drop-latest-deadline sheds the id-2 flow (deadline 10); reject-new
     refuses the arrival and keeps the committed pair. *)
  let graph = Builders.line 3 in
  let power = Model.make ~sigma:1. ~mu:1. ~alpha:2. ~cap:5. () in
  let run policy =
    let s =
      Session.create ~graph ~power ~policy ~seed:42 ()
    in
    let c1 =
      Session.apply s (arrival ~dst:2 ~id:1 ~volume:8. ~release:0. ~deadline:8. ())
    in
    let c2 =
      Session.apply s (arrival ~dst:2 ~id:2 ~volume:8. ~release:0. ~deadline:10. ())
    in
    Alcotest.(check string) "c1" "committed" (Session.outcome_kind c1);
    Alcotest.(check string) "c2" "committed" (Session.outcome_kind c2);
    (s, Session.apply s (arrival ~dst:2 ~id:3 ~volume:11.9 ~release:0. ~deadline:3. ()))
  in
  (match run Repair.Drop_latest_deadline with
  | s, Session.Degraded d ->
    Alcotest.(check (list int))
      "victim is the latest deadline"
      [ 2 ]
      (List.map (fun (f : Flow.t) -> f.Flow.id) d.Session.dropped);
    Alcotest.(check bool) "certified" true (d.Session.violations = []);
    Alcotest.(check (list int)) "flows now 1,3" [ 1; 3 ]
      (List.map (fun (f : Flow.t) -> f.Flow.id) (Session.active_flows s))
  | _, o -> Alcotest.failf "expected degraded, got %s" (Session.outcome_kind o));
  match run Repair.Reject_new with
  | s, Session.Rejected _ ->
    Alcotest.(check (list int)) "committed flows untouched" [ 1; 2 ]
      (List.map (fun (f : Flow.t) -> f.Flow.id) (Session.active_flows s))
  | _, o -> Alcotest.failf "expected rejected, got %s" (Session.outcome_kind o)

(* ------------------------ replay the corpus log -------------------- *)

let replay_corpus ?pool ?seed () =
  let s = session ?pool ?seed () in
  let outcomes =
    List.map
      (fun line ->
        match Event.of_json (Json.of_string line) with
        | Error m -> Alcotest.failf "corpus line rejected: %s" m
        | Ok e -> Session.apply s e)
      (corpus_lines "serve-100.events")
  in
  (s, outcomes)

let test_replay_every_epoch_certifies () =
  let s, outcomes = replay_corpus () in
  Alcotest.(check int) "100 events" 100 (List.length outcomes);
  List.iter
    (fun o ->
      match o with
      | Session.Committed d | Session.Degraded d ->
        Alcotest.(check (list string)) "epoch certificate clean" []
          (List.map Dcn_check.Certify.kind d.Session.violations)
      | Session.Rejected _ -> ())
    outcomes;
  Alcotest.(check bool) "session ok" true (Session.ok s);
  (* The incremental path did real work: across the log, strictly fewer
     intervals were re-solved than a from-scratch solve of every epoch
     would have needed (each epoch's timeline has resolved + reused
     intervals). *)
  let resolved, naive =
    List.fold_left
      (fun (r, n) o ->
        match o with
        | Session.Committed d | Session.Degraded d ->
          ( r + d.Session.resolved_intervals,
            n + d.Session.resolved_intervals + d.Session.reused_intervals )
        | Session.Rejected _ -> (r, n))
      (0, 0) outcomes
  in
  Alcotest.(check bool) "incremental strictly below total" true
    (resolved < naive)

let test_replay_jobs_invariant () =
  let report pool =
    let s, outcomes = replay_corpus ~pool () in
    ( Json.to_string (Session.report s),
      List.map (fun o -> Json.to_string (Session.outcome_to_json o)) outcomes )
  in
  let seq = report Pool.sequential in
  let par = Pool.with_pool ~jobs:4 (fun pool -> report pool) in
  Alcotest.(check string) "report byte-identical" (fst seq) (fst par);
  List.iter2
    (Alcotest.(check string) "outcome byte-identical")
    (snd seq) (snd par)

let test_replay_deterministic_and_seeded () =
  let a, _ = replay_corpus ~seed:42 () in
  let b, _ = replay_corpus ~seed:42 () in
  Alcotest.(check string) "same seed, same report"
    (Json.to_string (Session.report a))
    (Json.to_string (Session.report b));
  (* Path draws change with the seed, but the event accounting is a
     function of the admission decisions only; check a field that must
     not depend on rng state at all. *)
  let c, _ = replay_corpus ~seed:7 () in
  match (Session.report a, Session.report c) with
  | Json.Obj fa, Json.Obj fc ->
    Alcotest.(check bool) "both replays certify" true
      (List.assoc "ok" fa = Json.Bool true && List.assoc "ok" fc = Json.Bool true)
  | _ -> Alcotest.fail "report is not an object"

let test_drain_clears_state () =
  let s = session () in
  ignore (Session.apply s (arrival ~id:1 ~volume:2. ~release:0. ~deadline:2. ()));
  Alcotest.(check bool) "schedule present" true
    (Option.is_some (Session.schedule s));
  Alcotest.(check bool) "intervals present" true (Session.total_intervals s > 0);
  (match Session.apply s (Event.Flow_cancel { flow = 1 }) with
  | Session.Committed d ->
    Alcotest.(check int) "delta removes the plan" 1
      (List.length d.Session.delta.Schedule_delta.removed)
  | o -> Alcotest.failf "cancel failed: %s" (Session.outcome_kind o));
  Alcotest.(check bool) "drained schedule" true
    (Option.is_none (Session.schedule s));
  Alcotest.(check int) "drained timeline" 0 (Session.total_intervals s);
  (* A drained session accepts new work from scratch. *)
  Alcotest.(check string) "re-arms" "committed"
    (Session.outcome_kind
       (Session.apply s (arrival ~id:2 ~volume:2. ~release:0. ~deadline:2. ())))

(* ------------------- golden outcome streams ------------------------ *)

(* The version-1 layout of a snapshot: the relaxation's path table
   expanded back into per-path objects under named fields.  The digests
   below were pinned on that layout; rendering the current snapshot in
   it keeps them, and so shows that the compact encoding carries the
   same state, float for float (a parsed %.17g number prints back to
   the same bytes). *)
let snapshot_v1 snap =
  let j = Json.of_string snap in
  let relaxation =
    match Json.get "relaxation" j with
    | Json.Null -> Json.Null
    | rj ->
      let table = Array.of_list (Json.to_list (Json.get "path_table" rj)) in
      let rec paths = function
        | p :: w :: rest ->
          Json.Obj [ ("weight", w); ("links", table.(Json.to_int p)) ] :: paths rest
        | _ -> []
      in
      let flow_path fp =
        match Json.to_list fp with
        | flow :: wps -> Json.Obj [ ("flow", flow); ("paths", Json.List (paths wps)) ]
        | [] -> Alcotest.fail "empty relaxation flow row"
      in
      let interval row =
        match Json.to_list row with
        | index :: lo :: hi :: cost :: lb :: max_overload :: fps ->
          Json.Obj
            [
              ("index", index);
              ("lo", lo);
              ("hi", hi);
              ("cost", cost);
              ("lb", lb);
              ("max_overload", max_overload);
              ("flow_paths", Json.List (List.map flow_path fps));
            ]
        | _ -> Alcotest.fail "short relaxation interval row"
      in
      Json.Obj
        [
          ("cost", Json.get "cost" rj);
          ("lb", Json.get "lb" rj);
          ( "intervals",
            Json.List (List.map interval (Json.to_list (Json.get "intervals" rj))) );
        ]
  in
  Json.to_string
    (Json.Obj
       (List.map
          (fun (k, v) ->
            match k with
            | "version" -> (k, Json.Int 1)
            | "relaxation" -> (k, relaxation)
            | _ -> (k, v))
          (Json.to_obj j)))

(* Replay a corpus log and digest everything a client or a checkpoint
   can observe: every outcome line, the final report and the snapshot
   (in its version-1 layout). *)
let replay_digest ~graph ~cap ~policy name =
  let s =
    Session.create ~graph
      ~power:(Model.make ~sigma:1. ~mu:1. ~alpha:2. ~cap ())
      ~policy ~seed:42 ()
  in
  let b = Buffer.create 4096 in
  (* A [Rejected] outcome must leave the committed state as it was: the
     snapshot less the PRNG stream (a refused admission still consumes
     a split) and the counters. *)
  let committed () =
    Json.to_string
      (Json.Obj
         (List.filter
            (fun (k, _) -> k <> "rng" && k <> "stats")
            (Json.to_obj (Json.of_string (Session.snapshot s)))))
  in
  List.iter
    (fun line ->
      match Event.of_json (Json.of_string line) with
      | Error m -> Alcotest.failf "corpus line rejected: %s" m
      | Ok e ->
        let before = committed () in
        let outcome = Session.apply s e in
        (match outcome with
        | Session.Rejected { reason } ->
          if committed () <> before then
            Alcotest.failf "%s: rejected event (%s) changed the committed state"
              name reason
        | Session.Committed _ | Session.Degraded _ -> ());
        Buffer.add_string b
          (Json.to_string (Session.outcome_to_json outcome) ^ "\n"))
    (corpus_lines name);
  Buffer.add_string b (Json.to_string (Session.report s));
  Buffer.add_string b (snapshot_v1 (Session.snapshot s));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Pinned digests: any change to an outcome, a reject reason, the report
   or the snapshot bytes under any policy shows up here.  Together the
   eight runs cover degraded and rejected arrivals and cancels of shed
   flows (serve-100), a refused member cancel (coflow-mix seq 5),
   retirements, and at cap 1.25 a whole-coflow shed (seq 7 under
   drop-latest-deadline), joint-plan rejections (seq 4, 11, 13, and
   reject-new's refusal at seq 7) and cancels of rejected coflows
   (seq 8, 14). *)
let test_golden_digests () =
  let check ~graph ~cap name cases =
    List.iter
      (fun (policy, want) ->
        Alcotest.(check string)
          (Printf.sprintf "%s at cap %g under %s" name cap
             (Repair.policy_to_string policy))
          want
          (replay_digest ~graph ~cap ~policy name))
      cases
  in
  check ~graph:(Builders.line 5) ~cap:6. "serve-100.events"
    [
      (Repair.Drop_latest_deadline, "0c58c598646cb25b7d818362cf06cf9f");
      (Repair.Drop_largest_residual, "26ce622ef90b663c798aba8801067652");
      (Repair.Reject_new, "83063336cbc3dd68a9f4cf6e79e30f8f");
    ];
  check ~graph:(Builders.fat_tree 4) ~cap:2. "coflow-mix.events"
    [
      (Repair.Drop_latest_deadline, "e1e622cdd20048303feb81f8b19e57bf");
      (Repair.Drop_largest_residual, "99781ce95c1ede9096d78ef6a2aa3e0b");
      (Repair.Reject_new, "8bc584fd417b8f6734094d468abdb5d9");
    ];
  check ~graph:(Builders.fat_tree 4) ~cap:1.25 "coflow-mix.events"
    [
      (Repair.Drop_latest_deadline, "abe76f4de86f11b427cbaa044a7ecd0b");
      (Repair.Reject_new, "130e3c6e11b72ede1a30fb1716042a7e");
    ]

(* Warm interval re-solves converge instead of running into the
   iteration cap: coflow-mix replayed with `dcn replay`'s defaults
   (fat-tree k=4, sigma 0, uncapped, drop-latest-deadline, seed 42)
   re-solves 40 intervals, and no Frank-Wolfe solve may stop at
   [max_iters] short of the gap target (vanilla Frank-Wolfe, zigzagging
   between warm-start paths, stopped 24 of them there). *)
let test_warm_resolves_converge () =
  let max_iters = Dcn_mcf.Frank_wolfe.resolve_config.Dcn_mcf.Frank_wolfe.max_iters in
  let s =
    Session.create ~graph:(Builders.fat_tree 4)
      ~power:(Model.make ~sigma:0. ~mu:1. ~alpha:2. ())
      ~policy:Repair.Drop_latest_deadline ~seed:42 ()
  in
  let t = Dcn_engine.Trace.create () in
  Dcn_engine.Trace.with_trace t (fun () ->
      List.iter
        (fun line ->
          match Event.of_json (Json.of_string line) with
          | Error m -> Alcotest.failf "corpus line rejected: %s" m
          | Ok e -> ignore (Session.apply s e))
        (corpus_lines "coflow-mix.events"));
  let iterations =
    List.filter_map
      (fun (r : Dcn_engine.Trace.record) ->
        match r.entry with
        | Dcn_engine.Trace.Event { name = "fw.done"; fields; _ } ->
          Option.map Json.to_int (List.assoc_opt "iterations" fields)
        | _ -> None)
      (Dcn_engine.Trace.records t)
  in
  Alcotest.(check bool) "interval solves traced" true (iterations <> []);
  Alcotest.(check int)
    (Printf.sprintf "solves at the %d-iteration cap (of %d)" max_iters
       (List.length iterations))
    0
    (List.length (List.filter (fun i -> i >= max_iters) iterations))

(* A plain flow is the one-member coflow: rewriting every arrival as a
   coflow of one (coflow id = flow id) and every cancel as a coflow
   cancel leaves each decision, delta and energy unchanged. *)
let test_trivial_coflow_equivalence () =
  let events =
    List.map
      (fun line ->
        match Event.of_json (Json.of_string line) with
        | Ok e -> e
        | Error m -> Alcotest.failf "corpus line rejected: %s" m)
      (corpus_lines "serve-100.events")
  in
  let as_coflow = function
    | Event.Flow_arrival f ->
      Event.Coflow_arrival { coflow = f.Flow.id; flows = [ f ] }
    | Event.Flow_cancel { flow } -> Event.Coflow_cancel { coflow = flow }
    | e -> e
  in
  List.iter
    (fun policy ->
      let plain = session ~policy () and group = session ~policy () in
      List.iteri
        (fun i e ->
          let a = Session.apply plain e in
          let b = Session.apply group (as_coflow e) in
          let label what = Printf.sprintf "event %d %s" i what in
          Alcotest.(check string) (label "kind") (Session.outcome_kind a)
            (Session.outcome_kind b);
          match (a, b) with
          | ( (Session.Committed da | Session.Degraded da),
              (Session.Committed db | Session.Degraded db) ) ->
            Alcotest.(check string) (label "delta")
              (Json.to_string (Schedule_delta.to_json da.Session.delta))
              (Json.to_string (Schedule_delta.to_json db.Session.delta));
            Alcotest.(check (list int)) (label "dropped")
              (List.map (fun (f : Flow.t) -> f.Flow.id) da.dropped)
              (List.map (fun (f : Flow.t) -> f.Flow.id) db.dropped);
            Alcotest.(check (list int)) (label "retired") da.retired db.retired;
            Alcotest.(check (float 0.)) (label "energy") da.energy db.energy;
            Alcotest.(check (pair int int)) (label "intervals")
              (da.resolved_intervals, da.reused_intervals)
              (db.resolved_intervals, db.reused_intervals)
          | _ -> ())
        events;
      let final s =
        Option.map
          (fun sc -> Json.to_string (Dcn_core.Serialize.schedule_to_json sc))
          (Session.schedule s)
      in
      Alcotest.(check (option string))
        (Repair.policy_to_string policy ^ " final schedule")
        (final plain) (final group))
    [
      Repair.Drop_latest_deadline;
      Repair.Drop_largest_residual;
      Repair.Reject_new;
    ]

let suite =
  [
    ( "serve.event",
      [
        Alcotest.test_case "round trip" `Quick test_event_round_trip;
        Alcotest.test_case "of_json is total" `Quick test_event_of_json_total;
        Alcotest.test_case "truncated corpus" `Quick test_truncated_corpus;
      ] );
    ( "serve.delta",
      [
        Alcotest.test_case "diff/apply round trip" `Quick test_delta_round_trip;
        Alcotest.test_case "json shape" `Quick test_delta_json_shape;
      ] );
    ( "serve.session",
      [
        Alcotest.test_case "admission edge cases" `Quick test_admission_edges;
        Alcotest.test_case "degrade and reject-new" `Quick
          test_admission_degrades_and_rejects;
        Alcotest.test_case "drain clears state" `Quick test_drain_clears_state;
      ] );
    ( "serve.replay",
      [
        Alcotest.test_case "every epoch certifies" `Quick
          test_replay_every_epoch_certifies;
        Alcotest.test_case "jobs-invariant" `Quick test_replay_jobs_invariant;
        Alcotest.test_case "deterministic" `Quick
          test_replay_deterministic_and_seeded;
        Alcotest.test_case "warm re-solves converge" `Quick
          test_warm_resolves_converge;
      ] );
    ( "serve.golden",
      [
        Alcotest.test_case "outcome digests" `Quick test_golden_digests;
        Alcotest.test_case "flow = one-member coflow" `Quick
          test_trivial_coflow_equivalence;
      ] );
  ]
