(* `dcn trace {summary,export,diff}` consume --trace files via
   Dcn_engine.Profile; `dcn stats` renders telemetry snapshot
   streams. *)

open Cmdliner
module Json = Dcn_engine.Json

(* Cmdliner's `file` converter already rejects missing paths;
   {!Cli.parse_file} names the path of an unparsable one. *)
let load_records path =
  Cli.parse_file path (fun text ->
      Dcn_engine.Trace.records_of_json (Json.of_string text))

let trace_file_t index name =
  Arg.(
    required
    & pos index (some file) None
    & info [] ~docv:name ~doc:"A trace file written by $(b,--trace).")

let summary =
  let top_t =
    Arg.(
      value
      & opt int 0
      & info [ "top" ] ~doc:"Show only the top $(docv) spans by self time (0 = all)."
          ~docv:"N")
  in
  let format_t =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
      & info [ "format" ]
          ~doc:
            "Output format: $(b,table) (human-readable) or $(b,json) (the \
             same profile, machine-readable — the shape `dcn stats` shares).")
  in
  let run file top format =
    Cli.run ~command:"trace-summary" @@ fun _ ->
    let profile = Dcn_engine.Profile.of_records (load_records file) in
    (match format with
    | `Table -> print_string (Dcn_engine.Profile.summary ~top profile)
    | `Json ->
      print_endline
        (Json.to_string ~pretty:true (Dcn_engine.Profile.to_json ~top profile)));
    ([], Ok ())
  in
  Cli.cmd "summary"
    ~doc:
      "Profile a trace: per-span call counts, total/self time, latency \
       quantiles, GC allocation, counters.  Frank-Wolfe counters: \
       $(b,fw.iters) counts iterations; $(b,fw.ls_evals) counts line-search \
       derivative evaluations, summed over the commodities that each \
       iteration's pairwise sweep tries to move (one search per \
       iteration when no commodity is warm-started)."
    Term.(const run $ trace_file_t 0 "TRACE.json" $ top_t $ format_t)

let export =
  let format_t =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome) ]) `Chrome
      & info [ "format" ] ~doc:"Output format; only $(b,chrome) (trace-event JSON, \
                                loadable in Perfetto) for now.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~doc:"Write to $(docv) instead of stdout." ~docv:"FILE")
  in
  let run file `Chrome out =
    Cli.run ~command:"trace-export" @@ fun _ ->
    let text =
      Json.to_string ~pretty:true (Dcn_engine.Profile.to_chrome (load_records file))
    in
    (match out with
    | None -> print_string text
    | Some path -> Observe.write_file path text);
    ([], Ok ())
  in
  Cli.cmd "export" ~doc:"Convert a trace to a standard viewer format."
    Term.(const run $ trace_file_t 0 "TRACE.json" $ format_t $ out_t)

let diff =
  let tolerance_t =
    Arg.(
      value
      & opt float 0.25
      & info [ "tolerance" ]
          ~doc:
            "Relative self/total time growth above which a span counts as a \
             regression (exit is then non-zero)."
          ~docv:"FRAC")
  in
  let run a b tolerance =
    Cli.run ~command:"trace-diff" @@ fun _ ->
    if tolerance < 0. then failwith "--tolerance must be >= 0";
    let module P = Dcn_engine.Profile in
    let ra = load_records a in
    let rb = load_records b in
    let deltas = P.diff ~a:(P.of_records ra) ~b:(P.of_records rb) in
    print_string (P.render_diff ~tolerance deltas);
    ( [],
      match P.regressions ~tolerance deltas with
      | [] -> Ok ()
      | bad ->
        Error
          (Printf.sprintf "%d span(s) regressed beyond %.0f%%: %s"
             (List.length bad) (100. *. tolerance)
             (String.concat ", " (List.map (fun (d : P.span_delta) -> d.P.d_name) bad)))
    )
  in
  Cli.cmd "diff"
    ~doc:
      "Compare two traces span-by-span (A is the baseline); non-zero exit \
       when B regressed beyond --tolerance."
    Term.(const run $ trace_file_t 0 "A.json" $ trace_file_t 1 "B.json" $ tolerance_t)

let trace =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Analyse --trace files: profile summary, Chrome export, diff.")
    [ summary; export; diff ]

let stats =
  let file_t =
    Arg.(
      value
      & pos 0 string "-"
      & info [] ~docv:"FILE"
          ~doc:
            "A snapshot stream: the stdout of $(b,dcn serve --stats-every) \
             or its --stats file.  $(b,-) reads stdin (the default), so \
             $(b,dcn serve ... | dcn stats) renders live.")
  in
  let top_t =
    Arg.(
      value
      & opt int 0
      & info [ "top" ]
          ~doc:"Show only the first $(docv) metrics by name (0 = all)."
          ~docv:"N")
  in
  let last_t =
    Arg.(
      value & flag
      & info [ "last" ] ~doc:"Render only the final snapshot of the stream.")
  in
  let run file top last strict =
    Cli.run ~command:"stats" @@ fun _ ->
    let render snap =
      print_string (Dcn_obs.Expose.render_table ~top snap);
      print_newline ()
    in
    (* The same line reader as `dcn serve` reading events: malformed
       stats lines are skipped with a position on stderr, --strict stops
       at the first one.  Lines that are valid JSON but not stats lines
       (interleaved per-event outcomes) are passed over silently. *)
    let process ic =
      let seen = ref 0 and last_snap = ref None in
      let _, fatal =
        Cli.read_lines ~command:"stats" ~strict
          (fun ~line_no ~line_base:_ line ->
            match Json.parse line with
            | Error e ->
              Error
                (Printf.sprintf "snapshot at line %d, byte %d: %s" line_no
                   e.Json.offset e.Json.message)
            | Ok (Json.Obj fields) when List.mem_assoc "stats" fields -> (
              match Dcn_obs.Snapshot.of_json (Json.Obj fields) with
              | Error m ->
                Error (Printf.sprintf "snapshot at line %d: %s" line_no m)
              | Ok snap ->
                incr seen;
                if last then last_snap := Some snap else render snap;
                Ok ())
            | Ok _ -> Ok ())
          ic
      in
      Option.iter render !last_snap;
      (!seen, fatal)
    in
    let seen, fatal =
      if file = "-" then process stdin else In_channel.with_open_bin file process
    in
    ( [],
      match fatal with
      | Some msg -> Error (Printf.sprintf "stats: malformed %s" msg)
      | None when seen = 0 -> Error "stats: no snapshot lines in the stream"
      | None -> Ok () )
  in
  Cli.cmd "stats"
    ~doc:
      "Render a telemetry snapshot stream (from $(b,dcn serve \
       --stats-every) or $(b,dcn replay)) as aligned tables: the SLO \
       indicators — apply-latency quantiles, admission outcome rates, \
       interval reuse, deadline slack, energy against the fractional \
       lower bound — then the raw metrics.  Interleaved per-event \
       outcome lines are skipped; --strict fails at the first malformed \
       snapshot line."
    Term.(const run $ file_t $ top_t $ last_t $ Cli.strict_t)
