(* `serve` runs a long-lived scheduler session, `replay` drives one
   offline from an event log, `crash` kills and recovers a durable one. *)

open Cmdliner
module Json = Dcn_engine.Json

(* One event per line, handed to [f ~line_no].  A malformed line is
   reported with its line number, plus for a JSON syntax error the byte
   offset of the failure within the line and its absolute offset in the
   stream. *)
let read_events ?stop ~command ~strict f ic =
  Cli.read_lines ?stop ~command ~strict
    (fun ~line_no ~line_base line ->
      match Dcn_serve.Event.of_line line with
      | Ok event -> Ok (f ~line_no event)
      | Error { offset = Some byte; message } ->
        Error
          (Printf.sprintf "event at line %d, byte %d (stream offset %d): %s"
             line_no byte (line_base + byte) message)
      | Error { offset = None; message } ->
        Error (Printf.sprintf "event at line %d: %s" line_no message))
    ic

let events_t =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"EVENTS"
        ~doc:"An event log: one JSON event per line (see $(b,dcn serve)).")

(* Live telemetry surfaces (ROADMAP: observability).  --stats-every N
   emits one snapshot line every N events; --stats FILE sends those
   lines to FILE instead of interleaving with the outcome stream;
   --metrics FILE rewrites a Prometheus text exposition atomically at
   each snapshot.  Any of the three enables the registry; a final
   snapshot always closes the run so short streams still yield data. *)

let stats_every_t =
  Arg.(
    value
    & opt int 0
    & info [ "stats-every" ]
        ~doc:
          "Emit a telemetry snapshot (one $(i,{\"stats\":...}) JSON line) \
           every $(docv) events.  0 emits only the final snapshot (when \
           --stats or --metrics is set)."
        ~docv:"N")

let stats_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats" ]
        ~doc:
          "Write snapshot lines to $(docv) instead of stdout; flushed per \
           line, so $(b,dcn stats) can tail it live."
        ~docv:"FILE")

let metrics_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ]
        ~doc:
          "Rewrite $(docv) atomically with the registry's Prometheus text \
           exposition at every snapshot."
        ~docv:"FILE")

(* SIGUSR1 requests an immediate snapshot at the next event boundary;
   guarded because not every platform exposes the signal. *)
let usr1_snapshot = Atomic.make false

let install_usr1 () =
  try
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> Atomic.set usr1_snapshot true))
  with Invalid_argument _ | Sys_error _ -> ()

(* SIGTERM/SIGINT request a graceful drain: the serving loop stops
   taking input at the next event boundary, finishes in-flight events,
   writes a final checkpoint (with --wal) and snapshot, and exits 0 — a
   clean drain is a success, distinct from the guard's error statuses.
   A second signal forces an immediate exit with status 130, skipping
   the final checkpoint.  Guarded like SIGUSR1 for platforms without
   the signals. *)
let drain_requested = Atomic.make false
let drain_since = ref Float.nan

let obs_drain_ms =
  Dcn_obs.Registry.gauge ~help:"graceful drain duration" "serve.drain_ms"

let install_drain () =
  let handle _ =
    if Atomic.exchange drain_requested true then Stdlib.exit 130
    else drain_since := Dcn_engine.Deadline.now ()
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handle)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ]

(* Stamp [serve.drain_ms] once the loop has wound down. *)
let finish_drain () =
  if Atomic.get drain_requested then
    Dcn_obs.Registry.set obs_drain_ms
      (Float.max 0. (1e3 *. (Dcn_engine.Deadline.now () -. !drain_since)))

(* Run [f] with an [after_event] hook that drives the snapshot cadence.
   When no stats surface was requested the hook is [ignore] and the
   registry stays disabled — the serving loop pays one closure call per
   event and {!Dcn_obs.Registry} ops stay one-branch no-ops. *)
let with_stats ~stats_every ~stats_file ~metrics_file f =
  if stats_every <= 0 && stats_file = None && metrics_file = None then
    f ~after_event:ignore
  else begin
    Dcn_obs.Registry.enable ();
    Atomic.set usr1_snapshot false;
    install_usr1 ();
    let oc, close =
      match stats_file with
      | None -> (stdout, ignore)
      | Some path ->
        let oc = open_out path in
        (oc, fun () -> close_out oc)
    in
    let seq = ref 0 in
    let snapshot () =
      incr seq;
      let snap = Dcn_obs.Snapshot.scrape ~seq:!seq () in
      output_string oc (Dcn_obs.Expose.wire_line snap);
      output_char oc '\n';
      flush oc;
      match metrics_file with
      | None -> ()
      | Some path ->
        Dcn_obs.Expose.write_atomic ~path (Dcn_obs.Expose.prometheus snap)
    in
    let events = ref 0 in
    let after_event () =
      incr events;
      if Atomic.exchange usr1_snapshot false then snapshot ()
      else if stats_every > 0 && !events mod stats_every = 0 then snapshot ()
    in
    Fun.protect ~finally:close (fun () ->
        let result = f ~after_event in
        snapshot ();
        result)
  end

let serve_verdict ~command ~strict ~parse_errors ~fatal session =
  match fatal with
  | Some msg -> Error (Printf.sprintf "%s: malformed %s" command msg)
  | None ->
    if not (Dcn_serve.Session.ok session) then
      Error (Printf.sprintf "%s: some committed epochs failed certification" command)
    else if strict && parse_errors > 0 then
      Error (Printf.sprintf "%s: %d malformed event line(s)" command parse_errors)
    else Ok ()

let serve_section ~strict ~parse_errors session =
  Json.Obj
    [
      ("strict", Json.Bool strict);
      ("parse_errors", Json.Int parse_errors);
      ("session", Dcn_serve.Session.report session);
    ]

(* ----------------------- durable serve flags ---------------------- *)

let socket_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ]
        ~doc:
          "Serve the event protocol on a Unix-domain socket at $(docv) \
           instead of stdin: any number of clients, one JSON event per line \
           in, one JSON reply line per event out, per connection.  Malformed \
           lines earn a positioned error reply; a client disconnecting — \
           even mid-line — never ends the session.  The server runs until \
           SIGTERM/SIGINT."
        ~docv:"PATH")

let wal_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ]
        ~doc:
          "Make the session crash-safe: append every accepted event to a \
           write-ahead log in $(docv), fsync'd $(i,before) it is applied, \
           and checkpoint periodically.  On start, recover the previous \
           session from the latest checkpoint plus the WAL tail — \
           bit-identical to an uninterrupted run; torn tails are detected by \
           checksum and truncated, never crashed on."
        ~docv:"DIR")

let checkpoint_every_t =
  Arg.(
    value
    & opt int 50
    & info [ "checkpoint-every" ]
        ~doc:"With --wal: checkpoint the session every $(docv) committed events."
        ~docv:"N")

let queue_t =
  Arg.(
    value
    & opt int 64
    & info [ "queue" ]
        ~doc:
          "Socket mode: pending-event queue capacity; overflow is shed per \
           --shed-policy with a typed reply."
        ~docv:"N")

let shed_policy_conv =
  Arg.conv
    ( (fun s ->
        match Dcn_resilience.Repair.shed_policy_of_string s with
        | Some p -> Ok p
        | None -> Error (`Msg "expected shed-newest | shed-oldest")),
      fun ppf p ->
        Format.pp_print_string ppf
          (Dcn_resilience.Repair.shed_policy_to_string p) )

let shed_policy_t =
  Arg.(
    value
    & opt shed_policy_conv Dcn_resilience.Repair.Shed_newest
    & info [ "shed-policy" ]
        ~doc:
          "Overload-shedding policy when the socket queue is full: \
           $(b,shed-newest) refuses the arriving event, $(b,shed-oldest) \
           evicts the oldest queued one."
        ~docv:"POLICY")

let idle_timeout_t =
  Arg.(
    value
    & opt float 30.
    & info [ "idle-timeout" ]
        ~doc:
          "Socket mode: drop a connection silent for more than $(docv) \
           seconds (0 disables)."
        ~docv:"SECONDS")

let serve =
  let run (graph, power) policy seed strict stats_every stats_file metrics_file
      socket wal checkpoint_every queue shed_policy idle_timeout trace report jobs =
    Cli.run ~command:"serve" ~jobs ~trace ~report @@ fun pool ->
    with_stats ~stats_every ~stats_file ~metrics_file @@ fun ~after_event ->
    install_drain ();
    (* The session lives bare in memory or behind a durable store; this
       is the one place the two differ.  Either way a batch of events is
       applied in order and each outcome numbered: by its WAL sequence
       number behind a store (so after a recovery replies continue the
       durable sequence, which clients correlate with WAL/checkpoint
       state), by the count of applied events in memory. *)
    let session, apply_batch, close, recovery =
      match wal with
      | None ->
        let s = Dcn_serve.Session.create ~pool ~graph ~power ~policy ~seed () in
        let applied = ref 0 in
        let apply_batch events f =
          List.iter
            (fun event ->
              let out = Dcn_serve.Session.apply s event in
              incr applied;
              f ~seq:!applied event out)
            events
        in
        (s, apply_batch, ignore, [])
      | Some dir -> (
        match
          Dcn_durable.Store.open_ ~pool ~dir ~checkpoint_every ~graph ~power
            ~policy ~seed ()
        with
        | Error m -> failwith ("serve: " ^ m)
        | Ok (store, r) ->
          let recovery = Dcn_durable.Store.recovery_to_json r in
          if r.Dcn_durable.Store.recovered then
            Printf.eprintf "[serve] recovered %s: %s\n%!" dir
              (Json.to_string recovery);
          ( Dcn_durable.Store.session store,
            Dcn_durable.Store.apply_batch store,
            (fun () -> Dcn_durable.Store.close store),
            [ ("recovery", recovery) ] ))
    in
    (* One reply line per applied event, through [write]. *)
    let answer write ~seq event out =
      write
        (Json.Obj
           (("seq", Json.Int seq)
            :: ("uptime_ms", Json.float (Dcn_serve.Session.uptime_ms session))
            :: ("event", Json.Str (Dcn_serve.Event.kind event))
            ::
            (match Dcn_serve.Session.outcome_to_json out with
            | Json.Obj fields -> fields
            | j -> [ ("outcome", j) ])));
      after_event ()
    in
    let draining () = Atomic.get drain_requested in
    (* [close] writes the final checkpoint — on every clean path
       including drain, but not on a forced (second-signal) exit: the
       WAL alone still recovers the committed state. *)
    Fun.protect ~finally:close (fun () ->
        let parse_errors, fatal, transport =
          match socket with
          | None ->
            (* The batch of one: the same path as a socket batch. *)
            let print json = print_endline (Json.to_string json) in
            let parse_errors, fatal =
              read_events ~stop:draining ~command:"serve" ~strict
                (fun ~line_no:_ event -> apply_batch [ event ] (answer print))
                stdin
            in
            (parse_errors, fatal, [])
          | Some path ->
            let stats =
              Dcn_durable.Transport.serve ~idle_timeout ~queue_capacity:queue
                ~shed_policy ~socket:path ~drain:draining
                ~apply:(fun events reply -> apply_batch events (answer reply))
                ()
            in
            ( stats.Dcn_durable.Transport.parse_errors,
              None,
              [ ("transport", Dcn_durable.Transport.stats_to_json stats) ] )
        in
        finish_drain ();
        ( ("serve", serve_section ~strict ~parse_errors session)
          :: (transport @ recovery),
          serve_verdict ~command:"serve" ~strict ~parse_errors ~fatal session ))
  in
  Cli.cmd "serve"
    ~doc:
      "Run a long-lived scheduler session: newline-delimited JSON events \
       (arrival, cancel, advance) on stdin — or on a Unix-domain socket \
       with $(b,--socket), serving any number of clients — one JSON \
       outcome (schedule delta, drops, certification) per event.  \
       Arrivals are admitted under --policy; each event re-solves only \
       the timeline intervals its flow's span overlaps, warm-started from \
       the previous fractional solution; every committed epoch is \
       independently re-certified.  $(b,--wal) makes the session \
       crash-safe (write-ahead log + checkpoints; recovery is \
       bit-identical).  Bit-identical for a given event stream and --seed \
       at every --jobs level (outcome lines carry a wall-clock uptime_ms \
       field, which is the one exception); non-zero exit if any epoch \
       fails certification.  --stats-every/--stats/--metrics stream live \
       telemetry (see $(b,dcn stats)); SIGUSR1 forces a snapshot at the \
       next event; SIGTERM/SIGINT drain gracefully (finish in-flight \
       events, final checkpoint, exit 0 — a second signal forces exit \
       130)."
    Term.(
      const run $ Cli.fabric_t $ Cli.policy_t $ Cli.seed_t $ Cli.strict_t
      $ stats_every_t $ stats_file_t $ metrics_file_t $ socket_t $ wal_t
      $ checkpoint_every_t $ queue_t $ shed_policy_t $ idle_timeout_t
      $ Observe.trace_t $ Observe.report_t $ Cli.jobs_t)

let replay =
  let run (graph, power) policy seed strict stats_every stats_file metrics_file
      events_file trace report jobs =
    Cli.run ~command:"replay" ~jobs ~trace ~report @@ fun pool ->
    with_stats ~stats_every ~stats_file ~metrics_file @@ fun ~after_event ->
    let session = Dcn_serve.Session.create ~pool ~graph ~power ~policy ~seed () in
    let on_event ~line_no event =
      let out = Dcn_serve.Session.apply session event in
      Format.printf "%4d  %-13s %a@." line_no (Dcn_serve.Event.kind event)
        Dcn_serve.Session.pp_outcome out;
      after_event ()
    in
    let parse_errors, fatal =
      In_channel.with_open_bin events_file
        (read_events ~command:"replay" ~strict on_event)
    in
    let session_report = Dcn_serve.Session.report session in
    let count name =
      match Json.member name session_report with
      | Some (Json.Int n) -> n
      | _ -> 0
    in
    Printf.printf
      "replay: %d committed, %d degraded, %d rejected, %d malformed; coflows \
       %d admitted, %d rejected, %d live (policy %s, seed %d)\n"
      (count "committed") (count "degraded") (count "rejected") parse_errors
      (count "coflows_admitted") (count "coflows_rejected") (count "coflows")
      (Dcn_resilience.Repair.policy_to_string policy)
      seed;
    (* All-or-nothing consistency of the final schedule, re-checked
       from the raw plans against the session's membership table. *)
    let split =
      match Dcn_serve.Session.schedule session with
      | Some sched ->
        Dcn_check.Certify.coflow_consistency
          ~members:(Dcn_serve.Session.active_coflows session)
          sched
      | None -> []
    in
    List.iter
      (fun v -> Format.printf "violation: %a@." Dcn_check.Certify.pp_violation v)
      split;
    ( [ ("replay", serve_section ~strict ~parse_errors session) ],
      Result.bind
        (serve_verdict ~command:"replay" ~strict ~parse_errors ~fatal session)
        (fun () ->
          if split = [] then Ok ()
          else Error "replay: the final schedule splits a committed coflow") )
  in
  Cli.cmd "replay"
    ~doc:
      "Replay a recorded event log through a scheduler session offline — \
       same admission, incremental re-solve and per-epoch certification as \
       $(b,dcn serve), with a human-readable outcome per event.  Coflow \
       arrivals admit all-or-nothing and shedding takes whole coflows; the \
       final schedule's admission consistency is re-checked.  \
       Bit-identical for a given log and --seed at every --jobs level; \
       non-zero exit if an epoch fails certification or the final \
       schedule splits a committed coflow.  --stats-every/--stats/--metrics \
       stream the same live telemetry as $(b,dcn serve)."
    Term.(
      const run $ Cli.fabric_t $ Cli.policy_t $ Cli.seed_t $ Cli.strict_t
      $ stats_every_t $ stats_file_t $ metrics_file_t $ events_t
      $ Observe.trace_t $ Observe.report_t $ Cli.jobs_t)

let crash =
  let kills_t =
    Arg.(
      value
      & opt int 25
      & info [ "kills" ]
          ~doc:"Number of crash points to inject (clamped to the log length)."
          ~docv:"N")
  in
  let window_t =
    Arg.(
      value
      & opt int 5
      & info [ "window" ]
          ~doc:
            "Events redelivered after each recovery and compared \
             byte-for-byte to the reference outcome stream."
          ~docv:"N")
  in
  let crash_every_t =
    Arg.(
      value
      & opt int 10
      & info [ "checkpoint-every" ]
          ~doc:"Checkpoint cadence of the durable store under test." ~docv:"N")
  in
  let dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ]
          ~doc:
            "Scratch directory for the campaign's store directories \
             (default: under the system temp dir, keyed by --seed)."
          ~docv:"DIR")
  in
  let run (graph, power) policy seed kills window checkpoint_every dir events_file
      trace report jobs =
    Cli.run ~command:"crash" ~jobs ~trace ~report @@ fun pool ->
    let module C = Dcn_durable.Crash in
    let events = ref [] in
    let _, fatal =
      In_channel.with_open_bin events_file
        (read_events ~command:"crash" ~strict:true (fun ~line_no:_ e ->
             events := e :: !events))
    in
    Option.iter
      (fun msg -> failwith (Printf.sprintf "%s: malformed %s" events_file msg))
      fatal;
    let dir =
      match dir with
      | Some d -> d
      | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "dcn-crash-%d" seed)
    in
    let c =
      C.run ~pool ~window ~checkpoint_every ~dir ~graph ~power ~policy ~seed ~kills
        (List.rev !events)
    in
    List.iter (fun r -> Format.printf "%a@." C.pp_row r) c.C.rows;
    let survived = List.length (List.filter (fun (r : C.row) -> r.C.ok) c.C.rows) in
    Printf.printf
      "crash: %d/%d kills recovered bit-identical and re-certified over %d \
       events (seed %d, checkpoint every %d, window %d)\n"
      survived c.C.kills c.C.events seed c.C.checkpoint_every c.C.window;
    ( [ ("crash", C.to_json c) ],
      if c.C.ok then Ok ()
      else Error "crash: some kills failed to recover bit-identically" )
  in
  Cli.cmd "crash"
    ~doc:
      "Crash-injection campaign against the durable serving store: replay \
       $(i,EVENTS) through a write-ahead-logged session, kill it at \
       --kills seeded event boundaries (some with torn or bit-flipped WAL \
       tails), recover each from checkpoint + log tail, and verify the \
       recovered state is bit-identical to an uninterrupted run, the \
       recovered schedule re-certifies clean, and redelivered events \
       produce byte-identical outcomes.  Deterministic for a given log, \
       --seed and flags, at every --jobs level; non-zero exit if any kill \
       fails."
    Term.(
      const run $ Cli.fabric_t $ Cli.policy_t $ Cli.seed_t $ kills_t $ window_t
      $ crash_every_t $ dir_t $ events_t $ Observe.trace_t $ Observe.report_t
      $ Cli.jobs_t)
