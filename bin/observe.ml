(* Observability plumbing shared by every `dcn` subcommand: the
   --trace/--report options, and a wrapper that installs an ambient
   {!Dcn_engine.Trace} around the command body and writes both files on
   the way out.

   The command body returns the report's sections (a [Json.field list])
   with a value the wrapper passes back; the wrapper prepends the
   command name and appends the stage wall-time snapshot
   ({!Dcn_obs.Stage}) and the trace's counter totals, so every report
   has the same envelope:

   {v
   { "command": "...", <sections>, "metrics": [...], "counters": {...} }
   v}

   The wrapper enables {!Dcn_obs.Registry}, where stage timings are
   counters.  The envelope's ["counters"] object reads {!Trace.counters}:
   the trace is the record of {e this} command's emissions, and its
   totals are deterministic where the registry also carries wall-time
   metrics — with one exception at --jobs > 1: which domain's kernel
   arena serves a task decides whether it counts as [ws.grow] or
   [ws.reuse], so only their sum is deterministic there.  Trace
   counters do not feed the registry. *)

open Cmdliner
module Trace = Dcn_engine.Trace
module Json = Dcn_engine.Json
module Stage = Dcn_obs.Stage

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:
          "Write a structured event trace (spans, events, counters; JSON) to \
           $(docv)."
        ~docv:"FILE")

let report_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ]
        ~doc:"Write a machine-readable run report (JSON) to $(docv)."
        ~docv:"FILE")

(* Atomic, so an interrupted run never leaves a truncated JSON for
   `dcn trace` or the bench gate to choke on. *)
let write_file path text =
  Dcn_util.Atomic_file.write ~path [ text ];
  Printf.eprintf "wrote %s\n%!" path

(* Counter totals, one object keyed by counter name. *)
let counters_json t =
  Json.Obj (List.map (fun (name, v) -> (name, Json.float v)) (Trace.counters t))

let run ~command ~trace ~report f =
  match (trace, report) with
  | None, None -> snd (f ())
  | _ ->
    (* Stage metrics for the report come from the registry; idempotent
       if the subcommand (e.g. serve --stats-every) enabled it already. *)
    Dcn_obs.Registry.enable ();
    let t = Trace.create () in
    Trace.install t;
    let sections, v = Fun.protect ~finally:Trace.uninstall f in
    (match trace with
    | Some path -> write_file path (Json.to_string ~pretty:true (Trace.to_json t))
    | None -> ());
    (match report with
    | Some path ->
      let json =
        Json.Obj
          ((("command", Json.Str command) :: sections)
          @ [ ("metrics", Stage.to_json ()); ("counters", counters_json t) ])
      in
      write_file path (Json.to_string ~pretty:true json)
    | None -> ());
    v
