(* Shape validator for the machine-readable outputs of
   [dcn solve --trace FILE --report FILE], run from the root `check-json`
   alias (itself a `runtest` dependency).  Exits non-zero with a message
   on the first violation, so a regression in the trace or report format
   fails tier-1.

   Usage: check_json.exe TRACE.json REPORT.json [CHROME.json] *)

module Json = Dcn_engine.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check-json: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse path =
  try Json.of_string (read_file path)
  with Failure m -> fail "%s: not valid JSON: %s" path m

let get path name json =
  match Json.member name json with
  | Some v -> v
  | None -> fail "%s: missing key %S" path name

let check_trace path =
  let json = parse path in
  (match Json.member "version" json with
  | Some (Json.Int 1) -> ()
  | _ -> fail "%s: version is not 1" path);
  let events = Json.to_list (get path "events" json) in
  if events = [] then fail "%s: no events recorded" path;
  (* Every record carries the envelope keys, and seq is strictly
     increasing (records are emitted sorted). *)
  let prev = ref (-1) in
  List.iter
    (fun e ->
      let seq = Json.to_int (get path "seq" e) in
      if seq <= !prev then fail "%s: seq %d out of order" path seq;
      prev := seq;
      ignore (Json.to_int (get path "t_ns" e));
      ignore (Json.to_int (get path "domain" e));
      ignore (Json.to_str (get path "type" e)))
    events;
  (* The solvers a `solve` run goes through must all have spoken up. *)
  let names =
    List.filter_map (fun e -> Option.map Json.to_str (Json.member "name" e)) events
  in
  List.iter
    (fun required ->
      if not (List.mem required names) then
        fail "%s: no %S event — solver instrumentation lost" path required)
    [ "rs.solve"; "fw.iter"; "mcf.group"; "rs.attempt"; "pool.task" ];
  ignore (get path "counters" json)

let check_report path =
  let json = parse path in
  (match Json.member "command" json with
  | Some (Json.Str "solve") -> ()
  | _ -> fail "%s: command is not \"solve\"" path);
  let solutions = Json.to_list (get path "solutions" json) in
  if List.length solutions <> 2 then
    fail "%s: expected 2 solutions (SP+MCF, RS), got %d" path (List.length solutions);
  List.iter
    (fun s ->
      ignore (Json.to_str (get path "algorithm" s));
      let energy = Json.to_float (get path "energy" s) in
      if not (Float.is_finite energy) || energy < 0. then
        fail "%s: non-finite or negative energy" path;
      ignore (Json.to_list (get path "rates" s)))
    solutions;
  let lb = Json.to_float (get path "lower_bound" json) in
  if not (Float.is_finite lb) then fail "%s: non-finite lower bound" path;
  ignore (get path "sim" json);
  (match get path "metrics" json with
  | Json.List (_ :: _) -> ()
  | _ -> fail "%s: metrics section empty" path);
  match get path "counters" json with
  | Json.Obj _ -> ()
  | _ -> fail "%s: counters is not an object" path

(* Report of `dcn fuzz --report FILE`: the envelope plus the batch
   summary — every case report carries per-solver certificates and the
   cross-solver verdicts, and the campaign must have certified. *)
let check_fuzz path =
  let json = parse path in
  (match Json.member "command" json with
  | Some (Json.Str "fuzz") -> ()
  | _ -> fail "%s: command is not \"fuzz\"" path);
  let fuzz = get path "fuzz" json in
  let runs = Json.to_int (get path "runs" fuzz) in
  if runs < 1 then fail "%s: runs < 1" path;
  ignore (Json.to_int (get path "seed" fuzz));
  let batch = get path "batch" fuzz in
  let cases = Json.to_int (get path "cases" batch) in
  if cases <> runs then fail "%s: batch cases %d != runs %d" path cases runs;
  let reports = Json.to_list (get path "reports" batch) in
  if List.length reports <> runs then
    fail "%s: %d case report(s), expected %d" path (List.length reports) runs;
  List.iter
    (fun r ->
      ignore (Json.to_str (get path "label" r));
      let lb = Json.to_float (get path "lower_bound" r) in
      if not (Float.is_finite lb) then fail "%s: non-finite lower bound" path;
      let solvers = Json.to_list (get path "solvers" r) in
      if List.length solvers < 6 then
        fail "%s: only %d solver(s) in a case report" path (List.length solvers);
      List.iter
        (fun s ->
          ignore (Json.to_str (get path "solver" s));
          let energy = Json.to_float (get path "energy" s) in
          if not (Float.is_finite energy) || energy < 0. then
            fail "%s: non-finite or negative solver energy" path;
          ignore (Json.to_list (get path "violations" s)))
        solvers;
      ignore (Json.to_list (get path "cross" r)))
    reports;
  (match get path "batch" fuzz |> Json.member "ok" with
  | Some (Json.Bool true) -> ()
  | _ -> fail "%s: fuzz campaign did not certify (batch.ok != true)" path);
  match get path "counters" json with
  | Json.Obj _ -> ()
  | _ -> fail "%s: counters is not an object" path

(* Report of `dcn resilience --report FILE`: a fault campaign — every
   scenario row carries the injected event, the watchdog's answer and a
   typed repair outcome, the counts partition the rows, and the
   campaign must have certified. *)
let check_resilience path =
  let json = parse path in
  (match Json.member "command" json with
  | Some (Json.Str "resilience") -> ()
  | _ -> fail "%s: command is not \"resilience\"" path);
  let res = get path "resilience" json in
  ignore (Json.to_int (get path "seed" res));
  ignore (Json.to_str (get path "policy" res));
  let scenarios = Json.to_int (get path "scenarios" res) in
  if scenarios < 1 then fail "%s: scenarios < 1" path;
  let rows = Json.to_list (get path "rows" res) in
  if List.length rows <> scenarios then
    fail "%s: %d row(s), expected %d" path (List.length rows) scenarios;
  let count k = Json.to_int (get path k res) in
  if count "repaired" + count "degraded" + count "irreparable" <> scenarios then
    fail "%s: outcome counts do not partition the scenarios" path;
  List.iter
    (fun r ->
      ignore (Json.to_int (get path "index" r));
      ignore (Json.to_str (get path "label" r));
      let event = get path "event" r in
      ignore (Json.to_str (get path "kind" event));
      ignore (Json.to_float (get path "at" event));
      let watchdog = get path "watchdog" r in
      ignore (Json.to_str (get path "algorithm" watchdog));
      let energy = Json.to_float (get path "energy" watchdog) in
      if not (Float.is_finite energy) || energy < 0. then
        fail "%s: non-finite or negative watchdog energy" path;
      let attempts = Json.to_list (get path "attempts" watchdog) in
      if attempts = [] then fail "%s: watchdog recorded no attempts" path;
      List.iter
        (fun a ->
          ignore (Json.to_str (get path "stage" a));
          ignore (Json.to_str (get path "status" a)))
        attempts;
      ignore (Json.to_list (get path "timed_out" watchdog));
      let repair = get path "repair" r in
      let outcome = Json.to_str (get path "outcome" repair) in
      if not (List.mem outcome [ "repaired"; "degraded"; "irreparable" ]) then
        fail "%s: unknown repair outcome %S" path outcome;
      if outcome <> "irreparable" then begin
        ignore (Json.to_float (get path "salvaged" repair));
        ignore (Json.to_list (get path "dropped" repair));
        if Json.to_list (get path "violations" repair) <> [] then
          fail "%s: a %s schedule carries certifier violations" path outcome
      end)
    rows;
  (match Json.member "ok" res with
  | Some (Json.Bool true) -> ()
  | _ -> fail "%s: fault campaign did not certify (resilience.ok != true)" path);
  match get path "counters" json with
  | Json.Obj _ -> ()
  | _ -> fail "%s: counters is not an object" path

(* Report of `dcn serve --report FILE` or `dcn replay EVENTS --report
   FILE`: the envelope plus the session's rolling report — outcome
   counts partition the events, interval accounting is consistent, and
   every committed epoch must have certified. *)
let check_serve path =
  let json = parse path in
  let command =
    match Json.member "command" json with
    | Some (Json.Str ("serve" as c)) | Some (Json.Str ("replay" as c)) -> c
    | _ -> fail "%s: command is neither \"serve\" nor \"replay\"" path
  in
  let serve = get path command json in
  (match get path "strict" serve with
  | Json.Bool _ -> ()
  | _ -> fail "%s: strict is not a bool" path);
  if Json.to_int (get path "parse_errors" serve) < 0 then
    fail "%s: negative parse_errors" path;
  let session = get path "session" serve in
  let count k =
    let n = Json.to_int (get path k session) in
    if n < 0 then fail "%s: negative session count %S" path k;
    n
  in
  let clock = Json.to_float (get path "clock" session) in
  if not (Float.is_finite clock) || clock < 0. then
    fail "%s: non-finite or negative clock" path;
  ignore (Json.to_str (get path "policy" session));
  let energy = Json.to_float (get path "energy" session) in
  if not (Float.is_finite energy) || energy < 0. then
    fail "%s: non-finite or negative energy" path;
  if count "committed" + count "degraded" + count "rejected" <> count "events"
  then fail "%s: outcome counts do not partition the events" path;
  if count "events" < 1 then fail "%s: session absorbed no events" path;
  if count "resolved_intervals" < 1 then
    fail "%s: session never solved an interval" path;
  (* The incremental path must have reused previous interval solutions —
     a session that re-solves everything has lost the warm-start. *)
  if count "reused_intervals" < 1 then
    fail "%s: no interval reuse — incremental re-solve regressed" path;
  if count "uncertified_epochs" <> 0 then
    fail "%s: %d committed epoch(s) failed certification" path
      (count "uncertified_epochs");
  (match Json.member "ok" session with
  | Some (Json.Bool true) -> ()
  | _ -> fail "%s: session did not certify (session.ok != true)" path);
  match get path "counters" json with
  | Json.Obj _ -> ()
  | _ -> fail "%s: counters is not an object" path

(* Report of `dcn certify --instance FILE` (oracle mode). *)
let check_certify path =
  let json = parse path in
  (match Json.member "command" json with
  | Some (Json.Str "certify") -> ()
  | _ -> fail "%s: command is not \"certify\"" path);
  let cert = get path "certify" json in
  (match Json.member "ok" cert with
  | Some (Json.Bool true) -> ()
  | _ -> fail "%s: certify.ok != true" path);
  let solvers = Json.to_list (get path "solvers" cert) in
  if List.length solvers < 6 then
    fail "%s: only %d solver(s) certified" path (List.length solvers);
  if Json.to_list (get path "cross" cert) <> [] then
    fail "%s: unexpected cross-solver violations" path

(* Report of `dcn coflow solve --report FILE`: the seeded trace, one
   result per variant (admission + conjunction certificate, both of
   which must have certified), and the Pareto view pairing each
   variant's coflow completion rate with its Eq. (5) energy. *)
let check_coflow path =
  let json = parse path in
  (match Json.member "command" json with
  | Some (Json.Str "coflow-solve") -> ()
  | _ -> fail "%s: command is not \"coflow-solve\"" path);
  let coflow = get path "coflow" json in
  let n = Json.to_int (get path "coflows" coflow) in
  if n < 1 then fail "%s: coflows < 1" path;
  ignore (Json.to_int (get path "seed" coflow));
  let trace = Json.to_list (get path "trace" coflow) in
  if List.length trace <> n then
    fail "%s: %d trace row(s), expected %d" path (List.length trace) n;
  List.iter
    (fun c ->
      ignore (Json.to_int (get path "id" c));
      ignore (Json.to_str (get path "label" c));
      let deadline = Json.to_float (get path "deadline" c) in
      if not (Float.is_finite deadline) then
        fail "%s: non-finite collective deadline" path;
      if Json.to_list (get path "flows" c) = [] then
        fail "%s: a coflow with no members" path)
    trace;
  let results = Json.to_list (get path "results" coflow) in
  if results = [] then fail "%s: no variant results" path;
  List.iter
    (fun r ->
      let adm = get path "admission" r in
      ignore (Json.to_str (get path "variant" adm));
      ignore (Json.to_str (get path "solver" adm));
      let rate = Json.to_float (get path "completion_rate" adm) in
      if not (rate >= 0. && rate <= 1.) then
        fail "%s: completion rate %g out of [0, 1]" path rate;
      let energy = Json.to_float (get path "energy" adm) in
      if not (Float.is_finite energy) || energy < 0. then
        fail "%s: non-finite or negative coflow energy" path;
      let admitted = List.length (Json.to_list (get path "admitted" adm)) in
      let rejected = List.length (Json.to_list (get path "rejected" adm)) in
      if admitted + rejected <> n then
        fail "%s: admitted + rejected (%d) do not partition the %d coflows"
          path (admitted + rejected) n;
      let cert = get path "certificate" r in
      (match Json.member "ok" cert with
      | Some (Json.Bool true) -> ()
      | _ -> fail "%s: a variant's conjunction certificate failed" path);
      if Json.to_list (get path "violations" cert) <> [] then
        fail "%s: certificate carries violations" path)
    results;
  let pareto = Json.to_list (get path "pareto" coflow) in
  if List.length pareto <> List.length results then
    fail "%s: pareto has %d point(s), expected %d" path (List.length pareto)
      (List.length results);
  match get path "counters" json with
  | Json.Obj _ -> ()
  | _ -> fail "%s: counters is not an object" path

(* Stderr of the same `dcn coflow solve --dump DIR` run: one
   `wrote PATH` line per file written — the report, the instance, the
   membership file and one schedule per variant of the report — and
   none twice. *)
let check_coflow_dump ~report log =
  let wrote =
    String.split_on_char '\n' (read_file log)
    |> List.filter_map (fun l ->
        match String.split_on_char ' ' l with
        | [ "wrote"; path ] -> Some (Filename.basename path)
        | _ -> None)
  in
  let variants =
    Json.to_list (get report "results" (get report "coflow" (parse report)))
    |> List.map (fun r ->
        Json.to_str (get report "variant" (get report "admission" r)))
  in
  let expected =
    [ Filename.basename report; "coflow.instance"; "coflow.members.json" ]
    @ List.map (Printf.sprintf "coflow.%s.schedule") variants
  in
  if List.sort compare wrote <> List.sort compare expected then
    fail "%s: wrote lines [%s], expected one each of [%s]" log
      (String.concat "; " wrote) (String.concat "; " expected)

(* Trace of `check_kernel.exe --trace FILE`: two back-to-back
   kernel-engine solves.  The flat engine must have traced its
   [fw.kernel] spans (every one closed), and the workspace counters
   must show both an arena growth (first solve) and a reuse (second
   solve) — losing either means the kernel ran boxed or the arenas are
   being rebuilt per solve. *)
let check_kernel_trace path =
  let json = parse path in
  (match Json.member "version" json with
  | Some (Json.Int 1) -> ()
  | _ -> fail "%s: version is not 1" path);
  let events = Json.to_list (get path "events" json) in
  if events = [] then fail "%s: no events recorded" path;
  let prev = ref (-1) in
  List.iter
    (fun e ->
      let seq = Json.to_int (get path "seq" e) in
      if seq <= !prev then fail "%s: seq %d out of order" path seq;
      prev := seq;
      ignore (Json.to_int (get path "t_ns" e));
      ignore (Json.to_int (get path "domain" e));
      ignore (Json.to_str (get path "type" e)))
    events;
  let typed ty e = Json.member "type" e = Some (Json.Str ty) in
  let named name e = Json.member "name" e = Some (Json.Str name) in
  let kernel_spans =
    List.filter (fun e -> typed "span_open" e && named "fw.kernel" e) events
  in
  if List.length kernel_spans < 2 then
    fail "%s: expected >= 2 fw.kernel spans, got %d" path
      (List.length kernel_spans);
  let closed_ids =
    List.filter_map
      (fun e ->
        if typed "span_close" e then Option.map Json.to_int (Json.member "id" e)
        else None)
      events
  in
  List.iter
    (fun s ->
      let id = Json.to_int (get path "id" s) in
      if not (List.mem id closed_ids) then
        fail "%s: fw.kernel span %d never closed" path id)
    kernel_spans;
  let counter_total name =
    List.fold_left
      (fun acc e ->
        if typed "counter" e && named name e then
          acc +. Json.to_float (get path "delta" e)
        else acc)
      0. events
  in
  if counter_total "ws.grow" < 1. then
    fail "%s: no ws.grow counter — arena growth untraced" path;
  if counter_total "ws.reuse" < 1. then
    fail "%s: no ws.reuse counter — workspace reuse regressed" path;
  if counter_total "fw.iters" < 1. then
    fail "%s: no fw.iters counter — the kernel loop went silent" path;
  if counter_total "fw.ls_evals" < 1. then
    fail "%s: no fw.ls_evals counter — line-search cost untraced" path

(* Family names of a Prometheus exposition's [# TYPE] lines, sorted. *)
let prom_families text =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "#"; "TYPE"; family; _ ] -> Some family
      | _ -> None)
    (String.split_on_char '\n' text)
  |> List.sort_uniq compare

(* Snapshot stream + Prometheus exposition of `dcn replay --stats-every
   --stats --metrics` (the @check-stats alias): every line a version-1
   snapshot with strictly increasing seq and monotone uptime, the final
   snapshot showing the serving path's live telemetry — events
   absorbed, apply latencies observed, interval reuse (losing it means
   the incremental path went dark), zero uncertified epochs — and the
   Prometheus file passing the strict text-exposition validator with
   the serving families present.  Returns the exposition's families. *)
let check_stats snapshots prom =
  let module Snapshot = Dcn_obs.Snapshot in
  let module Slo = Dcn_obs.Slo in
  let snaps =
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else
          match Json.of_string line with
          | exception Failure m -> fail "%s: bad snapshot line: %s" snapshots m
          | json -> (
            match Snapshot.of_json json with
            | Ok s -> Some s
            | Error m -> fail "%s: %s" snapshots m))
      (String.split_on_char '\n' (read_file snapshots))
  in
  let last =
    match List.rev snaps with
    | [] -> fail "%s: no snapshot lines" snapshots
    | s :: _ -> s
  in
  let prev_seq = ref 0 and prev_up = ref (-1.) in
  List.iter
    (fun (s : Snapshot.t) ->
      if s.Snapshot.version <> Snapshot.wire_version then
        fail "%s: wire version %d, expected %d" snapshots s.Snapshot.version
          Snapshot.wire_version;
      if s.Snapshot.seq <= !prev_seq then
        fail "%s: snapshot seq %d out of order" snapshots s.Snapshot.seq;
      prev_seq := s.Snapshot.seq;
      if s.Snapshot.uptime_ms < !prev_up then
        fail "%s: uptime went backwards at seq %d" snapshots s.Snapshot.seq;
      prev_up := s.Snapshot.uptime_ms;
      if s.Snapshot.metrics = [] then
        fail "%s: snapshot #%d carries no metrics" snapshots s.Snapshot.seq)
    snaps;
  let slo = Slo.of_snapshot last in
  if slo.Slo.events < 1 then fail "%s: serve.events never incremented" snapshots;
  if slo.Slo.apply_count < 1 then
    fail "%s: no apply-latency observations" snapshots;
  if slo.Slo.reused_intervals < 1 then
    fail "%s: no interval reuse — incremental re-solve telemetry went dark"
      snapshots;
  (match slo.Slo.reuse_ratio with
  | Some r when r > 0. && r <= 1. -> ()
  | _ -> fail "%s: reuse ratio missing or out of range" snapshots);
  if slo.Slo.uncertified <> 0 then
    fail "%s: %d uncertified epoch(s) in telemetry" snapshots slo.Slo.uncertified;
  if slo.Slo.fw_iterations < 1 then
    fail "%s: fw.iterations never incremented" snapshots;
  let text = read_file prom in
  (match Dcn_obs.Expose.validate_prometheus text with
  | Ok () -> ()
  | Error m -> fail "%s: invalid Prometheus exposition: %s" prom m);
  let have = prom_families text in
  List.iter
    (fun family ->
      if not (List.mem family have) then
        fail "%s: family %S missing from exposition" prom family)
    [
      "dcn_serve_events_total";
      "dcn_serve_apply_ms";
      "dcn_fw_iterations_total";
      "dcn_relaxation_intervals_solved_total";
      "dcn_relaxation_intervals_reused_total";
    ];
  have

(* The same stream and exposition from a traced run: tracing records a
   run, it adds no metric family to the registry. *)
let check_stats_traced ~untraced snapshots prom =
  let traced = check_stats snapshots prom in
  let only a b = List.filter (fun f -> not (List.mem f b)) a in
  match (only traced untraced, only untraced traced) with
  | [], [] -> ()
  | extra, missing ->
    fail "%s: metric families differ from the untraced run: extra [%s], missing [%s]"
      prom (String.concat " " extra) (String.concat " " missing)

(* Report of `dcn crash EVENTS --report FILE` (the @check-durable
   alias): a crash-injection campaign against the durable store — the
   gate demands a real campaign (>= 25 kills over a >= 100-event log),
   every row bit-identical, re-certified and with matching redelivered
   outcomes, every torn tail detected, and the recovery arithmetic
   (checkpoint seq + replayed records = kill point) consistent. *)
let check_durable path =
  let json = parse path in
  (match Json.member "command" json with
  | Some (Json.Str "crash") -> ()
  | _ -> fail "%s: command is not \"crash\"" path);
  let crash = get path "crash" json in
  let events = Json.to_int (get path "events" crash) in
  if events < 100 then
    fail "%s: campaign log has %d event(s), the gate wants >= 100" path events;
  let kills = Json.to_int (get path "kills" crash) in
  if kills < 25 then
    fail "%s: %d kill(s), the gate wants >= 25" path kills;
  ignore (Json.to_int (get path "seed" crash));
  if Json.to_int (get path "checkpoint_every" crash) < 1 then
    fail "%s: checkpoint_every < 1" path;
  let rows = Json.to_list (get path "rows" crash) in
  if List.length rows <> kills then
    fail "%s: %d row(s), expected %d" path (List.length rows) kills;
  let tears = ref 0 in
  List.iter
    (fun r ->
      let kill = Json.to_int (get path "kill" r) in
      if kill < 1 || kill > events then
        fail "%s: kill boundary %d outside [1, %d]" path kill events;
      let tear = Json.to_str (get path "tear" r) in
      if not (List.mem tear [ "clean"; "chop"; "flip" ]) then
        fail "%s: unknown tear kind %S" path tear;
      let detected =
        match get path "tear_detected" r with
        | Json.Bool b -> b
        | _ -> fail "%s: tear_detected is not a bool" path
      in
      if detected <> (tear <> "clean") then
        fail "%s: kill %d: tear %S but tear_detected %b" path kill tear detected;
      if tear <> "clean" then incr tears;
      let checkpoint_seq = Json.to_int (get path "checkpoint_seq" r) in
      let replayed = Json.to_int (get path "replayed" r) in
      if checkpoint_seq < 0 || checkpoint_seq > kill then
        fail "%s: kill %d: checkpoint seq %d out of range" path kill
          checkpoint_seq;
      if checkpoint_seq + replayed <> kill then
        fail "%s: kill %d: checkpoint %d + replayed %d != kill point" path kill
          checkpoint_seq replayed;
      List.iter
        (fun k ->
          match get path k r with
          | Json.Bool true -> ()
          | _ -> fail "%s: kill %d: %s is not true" path kill k)
        [ "state_match"; "certified"; "outcomes_match"; "ok" ])
    rows;
  if !tears < 1 then
    fail "%s: no torn-tail kills — the seeded tear injection went dark" path;
  (match Json.member "ok" crash with
  | Some (Json.Bool true) -> ()
  | _ -> fail "%s: crash campaign did not certify (crash.ok != true)" path);
  match get path "counters" json with
  | Json.Obj _ -> ()
  | _ -> fail "%s: counters is not an object" path

(* The Chrome export of the same trace must pass the strict shape check
   (known phases, balanced B/E per tid, monotone timestamps, ...). *)
let check_chrome path =
  match Dcn_engine.Profile.validate_chrome (parse path) with
  | Ok () -> ()
  | Error m -> fail "%s: invalid Chrome trace: %s" path m

let () =
  match Sys.argv with
  | [| _; "--fuzz"; report |] ->
    check_fuzz report;
    print_endline "check-json: fuzz report OK"
  | [| _; "--certify"; report |] ->
    check_certify report;
    print_endline "check-json: certify report OK"
  | [| _; "--resilience"; report |] ->
    check_resilience report;
    print_endline "check-json: resilience report OK"
  | [| _; "--serve"; report |] ->
    check_serve report;
    print_endline "check-json: serve report OK"
  | [| _; "--coflow"; report; log |] ->
    check_coflow report;
    check_coflow_dump ~report log;
    print_endline "check-json: coflow report and dump OK"
  | [| _; "--kernel"; trace |] ->
    check_kernel_trace trace;
    print_endline "check-json: kernel trace OK"
  | [| _; "--stats"; snapshots; prom; traced_snapshots; traced_prom |] ->
    let untraced = check_stats snapshots prom in
    check_stats_traced ~untraced traced_snapshots traced_prom;
    print_endline
      "check-json: stats streams and Prometheus expositions OK, traced = untraced \
       families"
  | [| _; "--durable"; report |] ->
    check_durable report;
    print_endline "check-json: crash campaign report OK"
  | [| _; trace; report |] ->
    check_trace trace;
    check_report report;
    print_endline "check-json: trace and report OK"
  | [| _; trace; report; chrome |] ->
    check_trace trace;
    check_report report;
    check_chrome chrome;
    print_endline "check-json: trace, report and chrome export OK"
  | _ ->
    prerr_endline
      "usage: check_json.exe TRACE.json REPORT.json [CHROME.json]\n\
      \       check_json.exe --fuzz FUZZ-REPORT.json\n\
      \       check_json.exe --certify CERTIFY-REPORT.json\n\
      \       check_json.exe --resilience RESILIENCE-REPORT.json\n\
      \       check_json.exe --serve SERVE-REPORT.json\n\
      \       check_json.exe --coflow COFLOW-REPORT.json DUMP-STDERR.log\n\
      \       check_json.exe --kernel KERNEL-TRACE.json\n\
      \       check_json.exe --stats SNAPSHOTS.jsonl METRICS.prom \
       TRACED-SNAPSHOTS.jsonl TRACED-METRICS.prom\n\
      \       check_json.exe --durable CRASH-REPORT.json";
    exit 2
