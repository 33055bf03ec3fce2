(* servebench: the serving-path benchmark of `dcn serve`.

     servebench --workload NAME --seed N --seconds S --trace 0|1
                [--dcn PATH] [--workdir DIR] [--smoke]

   --trace 0 measures the end-to-end metrics over the workload's independent
   segments, each a set-up (spawn + warm phase; their median is setup_s)
   followed by an equal share of the timed phase.
   --trace 1 measures the per-layer split: the warmed store is recovered
   twice, once untraced and once under `dcn serve --trace`, and the same
   capped timed phase runs on both.  Every run ends with the offline
   correctness replay; any mismatch, uncertified epoch, committed set
   outside its band or open-loop generator falling behind exits 1
   without a result.  Before the result come an [env] line (nproc,
   OCaml version, commit, filesystem of the WAL directory) and [info]
   lines (failed_ratio, committed-set range, generator lag, ...); the
   last stdout line is the result object. *)

module Json = Dcn_engine.Json
module Event = Dcn_serve.Event

exception Failed of string

let die fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* Run [f] against a live server; on any failure the server is killed
   (and reaped) before the failure propagates. *)
let with_server (server : Wire.server) f =
  match f () with
  | v -> v
  | exception e ->
    Wire.kill server;
    raise e

(* ---------------------------- arguments --------------------------- *)

type args = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  trace : bool;
  dcn : string;
  workdir : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false in
  let dcn = ref "_build/default/bin/dcn_main.exe" and workdir = ref ".servebench" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME tick-light | steady-100 | coflow-shed");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer split");
      ("--smoke", Arg.Set smoke, " tiny sizes, for the smoke test");
      ("--dcn", Arg.Set_string dcn, "PATH the dcn binary");
      ("--workdir", Arg.Set_string workdir, "DIR scratch space for sockets, WALs, traces");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %s" a) "servebench [options]";
  let w =
    match Workload.find !workload with
    | Some w -> if !smoke then Workload.smoke w else w
    | None -> die "unknown workload %S" !workload
  in
  if not (Sys.file_exists !dcn) then die "no dcn binary at %s" !dcn;
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if not (!seconds > 0.) then die "--seconds must be positive";
  {
    workload = w;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    dcn =
      (if Filename.is_relative !dcn then Filename.concat (Sys.getcwd ()) !dcn
       else !dcn);
    workdir = !workdir;
  }

(* ---------------------------- scratch dirs ------------------------ *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun e ->
      let data = In_channel.with_open_bin (Filename.concat src e) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst e) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src)

(* --------------------------- environment -------------------------- *)

let read_file p =
  try Some (String.trim (In_channel.with_open_bin p In_channel.input_all))
  with Sys_error _ -> None

(* The commit of the checkout, from .git without running git; "none"
   outside a git repository. *)
let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head ->
    let prefix = "ref: " in
    let lp = String.length prefix in
    if String.length head > lp && String.sub head 0 lp = prefix then
      let r = String.sub head lp (String.length head - lp) in
      match read_file (Filename.concat ".git" r) with
      | Some c -> c
      | None -> (
        match read_file ".git/packed-refs" with
        | None -> "unknown"
        | Some packed ->
          List.fold_left
            (fun acc line ->
              match String.split_on_char ' ' line with
              | [ c; name ] when name = r -> c
              | _ -> acc)
            "unknown"
            (String.split_on_char '\n' packed))
    else head

(* Filesystem type of [dir]: the longest mount point containing it. *)
let fs_type dir =
  let path = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let within mp =
    mp = "/" || path = mp
    || String.length path > String.length mp
       && String.sub path 0 (String.length mp) = mp
       && path.[String.length mp] = '/'
  in
  match read_file "/proc/self/mounts" with
  | None -> "unknown"
  | Some mounts ->
    fst
      (List.fold_left
         (fun (best, len) line ->
           match String.split_on_char ' ' line with
           | _ :: mp :: ty :: _ when within mp && String.length mp >= len ->
             (ty, String.length mp)
           | _ -> (best, len))
         ("unknown", -1)
         (String.split_on_char '\n' mounts))

let env_stamp args ~dir =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_commit ()));
      ("wal_fs", Json.Str (fs_type dir));
      ("fabric", Json.Str "fat-tree:4");
      ("workload", Json.Str args.workload.name);
      ( "loop",
        Json.Str
          (match args.workload.loop with
          | Workload.Open { rate; burst } ->
            Printf.sprintf "open, %g events/s in Poisson bursts of %d" rate burst
          | Workload.Closed -> "closed, 1 client") );
      ("seed", Json.Int args.seed);
      ("seconds", Json.float args.seconds);
      ("trace", Json.Bool args.trace);
    ]

(* ----------------------------- checks ----------------------------- *)

(* The open loop has fallen behind when its lag p99 exceeds the mean
   gap between two bursts: the late sends then run into the next burst. *)
let max_lag_ms (w : Workload.t) =
  match w.loop with
  | Workload.Open { rate; burst } -> 1e3 *. float_of_int burst /. rate
  | Workload.Closed -> infinity

(* Open loop only; a closed loop has no schedule to fall behind. *)
let lag_p99 lag_ms = if lag_ms = [||] then 0. else Stats.percentile 99. lag_ms

let check_run (w : Workload.t) (timed : Drive.timed) (replay : Replay.t) =
  (match replay.mismatch with
  | Some m -> die "correctness replay: %s" m
  | None -> ());
  if replay.uncertified > 0 then
    die "%d timed epoch(s) failed certification" replay.uncertified;
  if replay.errors > 0 then die "%d error or shed replies" replay.errors;
  let lo, hi = w.band in
  let cmin = Array.fold_left min max_int replay.committed
  and cmax = Array.fold_left max min_int replay.committed in
  if Array.length replay.committed > 0 && (cmin < lo || cmax > hi) then
    die "committed flows left the band [%d, %d]: min %d, max %d" lo hi cmin cmax;
  let lag = lag_p99 timed.lag_ms in
  if lag > max_lag_ms w then
    die "the generator fell behind its schedule: lag p99 %.3f ms > %.3g ms" lag
      (max_lag_ms w);
  (cmin, cmax)

let committed_p50 (replay : Replay.t) =
  Stats.median (Array.map float_of_int replay.committed)

(* ----------------------------- output ----------------------------- *)

let metric (name, value, unit) =
  (name, Json.Obj [ ("value", Json.float value); ("unit", Json.Str unit) ])

let emit ~env ~info ~attempted ~failed metrics =
  print_endline ("env " ^ Json.to_string env);
  List.iter (fun (n, v, u) -> Printf.printf "info %s %.6g %s\n" n v u) info;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool true);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map metric metrics));
          ]))

(* ------------------------------ runs ------------------------------ *)

(* The timed phase is split evenly over the workload's segments, each
   on a server of its own set up from its own seed: a committed set
   drifts slowly, so one long trajectory gives fewer independent samples
   of the per-event cost than several short ones.  Each set-up is timed;
   setup_s is their median. *)

(* Seed of segment [i] of a run, fixed by the run's seed and distinct
   for every (seed, segment) pair. *)
let segment_seed (w : Workload.t) seed i = (seed * w.segments) + i

(* Reply percentiles and counts per event kind, so a shift in the tail
   can be told apart from a shift in the mix. *)
let by_kind ~events ~latency_ms =
  List.concat_map
    (fun kind ->
      let lat =
        Array.of_list
          (List.filteri
             (fun i _ -> Event.kind events.(i) = kind)
             (Array.to_list latency_ms))
      in
      if lat = [||] then []
      else
        [
          (Printf.sprintf "events.%s" kind, float_of_int (Array.length lat), "count");
          (Printf.sprintf "reply_ms_p50.%s" kind, Stats.median lat, "ms");
          (Printf.sprintf "reply_ms_p95.%s" kind, Stats.percentile 95. lat, "ms");
        ])
    [ "arrival"; "coflow"; "cancel"; "coflow-cancel"; "advance" ]

let finish_ok live =
  match Drive.finish live with Ok () -> () | Error m -> die "%s" m

type segment = {
  setup_s : float;
  warm : int;
  timed : Drive.timed;
  rss : float;
  replay : Replay.t;
  cmin : int;
  cmax : int;
}

(* Set up segment [i], run its share of the timed phase, drain its
   server and check the delivered sequence in the offline replay. *)
let segment args ~dir i =
  let w = args.workload in
  let seed = segment_seed w args.seed i in
  let d = Filename.concat dir (Printf.sprintf "segment%d" i) in
  mkdir_p d;
  let live = Drive.setup ~dcn:args.dcn ~dir:d ~spec:w ~seed () in
  let timed, rss =
    with_server live.server @@ fun () ->
    let timed =
      Drive.timed_phase live ~spec:w ~seed
        ~seconds:(args.seconds /. float_of_int w.segments)
        ~max_events:max_int
    in
    let rss = Wire.peak_rss_mb live.server in
    finish_ok live;
    (timed, rss)
  in
  rm_rf d;
  let warm = List.length live.warm_events in
  let replay =
    Replay.run ~spec:w ~seed ~warm
      ~events:(Array.append (Array.of_list live.warm_events) timed.events)
      ~replies:(Array.append (Array.of_list live.warm_replies) timed.replies)
      ~shadow:false
  in
  let cmin, cmax = check_run w timed replay in
  { setup_s = live.setup_s; warm; timed; rss; replay; cmin; cmax }

let end_to_end args ~dir =
  let w = args.workload in
  let segs = List.init w.segments (segment args ~dir) in
  let pool f = Array.concat (List.map f segs) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 segs in
  let each f = Array.of_list (List.map f segs) in
  let events = pool (fun s -> s.timed.events) in
  let latency_ms = pool (fun s -> s.timed.latency_ms) in
  let n = Array.length events in
  let failed = sum (fun s -> s.replay.errors + s.replay.uncertified) in
  let offered = sum (fun s -> s.replay.offered) in
  (* A timed phase answers at least one event (one burst open-loop). *)
  let span s = s.timed.done_s.(Array.length s.timed.done_s - 1) in
  let per_segment name f unit =
    List.mapi (fun i s -> (Printf.sprintf "%s.segment%d" name (i + 1), f s, unit)) segs
  in
  let seg_p p s = Stats.percentile p s.timed.latency_ms in
  (* A closed loop pools every reply: a stall delays only the event in
     flight.  An open loop keeps sending through a stall, which delays
     every event due during it, so there a run's percentile is the
     interquartile mean of its segments' percentiles, leaving out the
     segments a stall hit (each segment holds over a thousand replies). *)
  let reply_ms p =
    match w.loop with
    | Workload.Closed -> Stats.percentile p latency_ms
    | Workload.Open _ -> Stats.interquartile_mean (each (seg_p p))
  in
  emit ~env:(env_stamp args ~dir) ~attempted:n ~failed
    ~info:
      ([
        ("failed_ratio", float_of_int failed /. float_of_int (max 1 n), "ratio");
        ("events", float_of_int n, "count");
        ("segments", float_of_int w.segments, "count");
        ("warm_events", float_of_int (sum (fun s -> s.warm)), "count");
        ("flows_offered", float_of_int offered, "count");
        ("flows_shed", float_of_int (sum (fun s -> s.replay.shed)), "count");
        ( "bench.committed_flows_p50",
          Stats.median
            (Array.map float_of_int (pool (fun s -> s.replay.committed))),
          "flows" );
        ( "bench.committed_flows_min",
          float_of_int (Array.fold_left min max_int (each (fun s -> s.cmin))),
          "flows" );
        ( "bench.committed_flows_max",
          float_of_int (Array.fold_left max min_int (each (fun s -> s.cmax))),
          "flows" );
        ( "bench.generator_lag_ms_p99",
          lag_p99 (pool (fun s -> s.timed.lag_ms)),
          "ms" );
        ("reply_ms_p99", Stats.percentile 99. latency_ms, "ms");
      ]
      @ per_segment "reply_ms_p50" (seg_p 50.) "ms"
      @ per_segment "reply_ms_p95" (seg_p 95.) "ms"
      @ by_kind ~events ~latency_ms)
    [
      ("events_per_s", float_of_int n /. Stats.sum (each span), "1/s");
      ("reply_ms_p50", reply_ms 50., "ms");
      ("reply_ms_p95", reply_ms 95., "ms");
      ( "accept_ratio",
        float_of_int (sum (fun s -> s.replay.admitted)) /. float_of_int (max 1 offered),
        "ratio" );
      ("energy_over_lb", Stats.mean (pool (fun s -> s.replay.energy_over_lb)), "ratio");
      ("setup_s", Stats.median (each (fun s -> s.setup_s)), "s");
      ("peak_rss_mb", Stats.median (each (fun s -> s.rss)), "MiB");
    ]

(* Recover the warmed store in [dir] (a fresh server on an existing
   WAL directory) and run the capped timed phase on it, with the
   generator re-derived from the recorded warm phase. *)
let recovered_run args ~dir ~(warm : Drive.live) ?trace () =
  let w = args.workload in
  let server = Wire.spawn ~dcn:args.dcn ~dir ~spec:w ~seed:args.seed ?trace () in
  with_server server @@ fun () ->
  let conn = Wire.connect server in
  let gen = Workload.create w ~graph:(Replay.fabric ()) ~seed:args.seed in
  List.iter2
    (fun e reply ->
      let e' = Workload.next gen in
      if Drive.line_of e' <> Drive.line_of e then die "warm replay diverged";
      Workload.observe gen e (Json.of_string reply))
    warm.warm_events warm.warm_replies;
  let live = { warm with server; conn; gen } in
  let timed =
    Drive.timed_phase live ~spec:w ~seed:args.seed ~seconds:args.seconds
      ~max_events:w.trace_events
  in
  finish_ok live;
  timed

let per_layer args ~dir =
  let w = args.workload in
  let warm_dir = Filename.concat dir "warm" in
  mkdir_p warm_dir;
  let warm = Drive.setup ~dcn:args.dcn ~dir:warm_dir ~spec:w ~seed:args.seed () in
  finish_ok warm;
  let traced_dir = Filename.concat dir "traced" in
  copy_dir (Filename.concat warm_dir "wal") (Filename.concat traced_dir "wal");
  let plain = recovered_run args ~dir:warm_dir ~warm () in
  let trace_file = Filename.concat traced_dir "trace.json"
  and report_file = Filename.concat traced_dir "report.json" in
  let traced =
    recovered_run args ~dir:traced_dir ~warm ~trace:(trace_file, report_file) ()
  in
  let nwarm = List.length warm.warm_events in
  let replay_of (timed : Drive.timed) ~shadow =
    Replay.run ~spec:w ~seed:args.seed ~warm:nwarm
      ~events:(Array.append (Array.of_list warm.warm_events) timed.events)
      ~replies:(Array.append (Array.of_list warm.warm_replies) timed.replies)
      ~shadow
  in
  ignore (check_run w plain (replay_of plain ~shadow:false));
  let replay = replay_of traced ~shadow:true in
  ignore (check_run w traced replay);
  let shadow = Option.get replay.shadow in
  let n = Array.length traced.events in
  let fn = float_of_int (max 1 n) in
  (* The recovered session re-applies no events (its WAL was rotated at
     the final checkpoint), so the trace holds exactly the timed ones. *)
  let costs = Layers.event_costs trace_file in
  if Array.length costs <> n then
    die "trace holds %d serve.event spans for %d timed events"
      (Array.length costs) n;
  let apply = Array.map (fun (c : Layers.event_cost) -> c.apply_ms) costs in
  let total f = Array.fold_left (fun acc c -> acc +. f c) 0. costs in
  let relaxation = total (fun c -> c.relaxation_ms) in
  let fw = total (fun c -> c.fw_ms) and iters = total (fun c -> c.fw_iters) in
  let certify = total (fun c -> c.certify_ms) in
  let resolve = total (fun c -> c.resolve_ms) in
  let outside = Array.mapi (fun i c -> traced.latency_ms.(i) -. c) apply in
  let shed, parse_errors = Layers.transport_counts report_file in
  let wal =
    Layers.wal_append_ms ~dir:traced_dir ~first_seq:(nwarm + 1) traced.events
  in
  (* Over the events both runs sent (a closed loop cut by --seconds may
     stop at different points), the traced reply time against the
     untraced one: for one closed-loop client this is the events_per_s
     ratio; the open loop's events_per_s is pinned by its schedule. *)
  let common = min n (Array.length plain.events) in
  let mean_prefix (t : Drive.timed) =
    Stats.mean (Array.sub t.latency_ms 0 common)
  in
  let overhead = 100. *. ((mean_prefix traced /. mean_prefix plain) -. 1.) in
  emit ~env:(env_stamp args ~dir) ~attempted:n
    ~failed:(replay.errors + replay.uncertified)
    ~info:
      [
        ("events", float_of_int n, "count");
        ("trace.apply_ms_mean", Stats.mean apply, "ms");
        ("trace.relaxation_share_of_apply", relaxation /. Stats.sum apply, "ratio");
        ("trace.reply_ms_p50", Stats.median traced.latency_ms, "ms");
        ( "trace.outside_share_of_reply_p50",
          Stats.median outside /. Stats.median traced.latency_ms,
          "ratio" );
        ("plain.reply_ms_p50", Stats.median plain.latency_ms, "ms");
      ]
    [
      ("transport.outside_ms_p50", Stats.median outside, "ms");
      ("transport.outside_ms_p95", Stats.percentile 95. outside, "ms");
      ("transport.shed", float_of_int shed, "count");
      ("transport.parse_errors", float_of_int parse_errors, "count");
      ("wal.append_ms_p50", Stats.median wal, "ms");
      ("wal.append_ms_p95", Stats.percentile 95. wal, "ms");
      ("parse.us_per_event", Layers.parse_us traced.lines, "us");
      ("encode.us_per_event", Stats.mean shadow.encode_us, "us");
      ("session.apply_ms_p50", Stats.median apply, "ms");
      ("session.apply_ms_p95", Stats.percentile 95. apply, "ms");
      ( "session.self_ms_per_event",
        (Stats.sum apply -. resolve -. certify) /. fn,
        "ms" );
      ( "session.resolves_per_event",
        total (fun c -> float_of_int c.resolves) /. fn,
        "count" );
      ("relaxation.ms_per_event", relaxation /. fn, "ms");
      ( "relaxation.resolved_intervals_per_event",
        total (fun c -> c.resolved_intervals) /. fn,
        "count" );
      ( "relaxation.reuse_ratio",
        float_of_int shadow.reused
        /. float_of_int (max 1 (shadow.reused + shadow.resolved)),
        "ratio" );
      ("fw.ms_per_event", fw /. fn, "ms");
      ("fw.iters_per_event", iters /. fn, "count");
      ("fw.us_per_iter", (if iters > 0. then 1e3 *. fw /. iters else 0.), "us");
      ("certify.ms_per_event", certify /. fn, "ms");
      ("delta.us_per_event", Stats.mean shadow.delta_us, "us");
      ( "feasible.us_per_call",
        (if shadow.feasible_us = [||] then 0. else Stats.mean shadow.feasible_us),
        "us" );
      ("bench.generator_lag_ms_p99", lag_p99 traced.lag_ms, "ms");
      ("bench.committed_flows_p50", committed_p50 replay, "flows");
      ("trace.overhead_pct", overhead, "%");
    ]

let () =
  let args =
    try parse_args ()
    with Failed m ->
      prerr_endline ("servebench: " ^ m);
      exit 2
  in
  let dir =
    Filename.concat args.workdir
      (Printf.sprintf "%s-%d-%d" args.workload.name args.seed (Unix.getpid ()))
  in
  mkdir_p dir;
  match if args.trace then per_layer args ~dir else end_to_end args ~dir with
  | () -> rm_rf dir
  | exception Failed m ->
    prerr_endline ("servebench: " ^ m);
    exit 1
