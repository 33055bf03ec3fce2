(* The traced run's per-layer split.

   The server's own trace ([dcn serve --trace]) is cut into events: the
   i-th top-level [serve.event] span is the i-th event the session
   applied, and every span, counter and close that falls inside it is
   charged to that event.  Layers the server does not trace are timed by
   the bench itself around the same public calls: [Wal.append] on a
   shadow writer, parsing on the exact lines sent. *)

module Json = Dcn_engine.Json
module Trace = Dcn_engine.Trace
module Event = Dcn_serve.Event

let now = Unix.gettimeofday

(* Per-event totals of the spans and counters the library emits. *)
type event_cost = {
  mutable apply_ms : float;  (** the [serve.event] span *)
  mutable resolve_ms : float;  (** [serve.resolve] *)
  mutable resolves : int;
  mutable relaxation_ms : float;  (** [relaxation.resolve] / [.solve] *)
  mutable fw_ms : float;  (** [fw.kernel] *)
  mutable certify_ms : float;  (** [check.certify] *)
  mutable fw_iters : float;
  mutable resolved_intervals : float;
}

let cost () =
  {
    apply_ms = 0.;
    resolve_ms = 0.;
    resolves = 0;
    relaxation_ms = 0.;
    fw_ms = 0.;
    certify_ms = 0.;
    fw_iters = 0.;
    resolved_intervals = 0.;
  }

let charge c name ms =
  match name with
  | "serve.event" -> c.apply_ms <- c.apply_ms +. ms
  | "serve.resolve" ->
    c.resolve_ms <- c.resolve_ms +. ms;
    c.resolves <- c.resolves + 1
  | "relaxation.resolve" | "relaxation.solve" ->
    c.relaxation_ms <- c.relaxation_ms +. ms
  | "fw.kernel" -> c.fw_ms <- c.fw_ms +. ms
  | "check.certify" -> c.certify_ms <- c.certify_ms +. ms
  | _ -> ()

(* Costs of every event in the trace file, in apply order. *)
let event_costs path =
  let records =
    Trace.records_of_json
      (Json.of_string (In_channel.with_open_bin path In_channel.input_all))
  in
  let opened = Hashtbl.create 1024 in
  let events = ref [] and current = ref None in
  List.iter
    (fun (r : Trace.record) ->
      match r.entry with
      | Trace.Span_open { id; parent; name; _ } ->
        if name = "serve.event" && parent = None then begin
          let c = cost () in
          events := c :: !events;
          current := Some c
        end;
        Hashtbl.replace opened id (name, r.time_ns, !current)
      | Trace.Span_close { id } -> (
        match Hashtbl.find_opt opened id with
        | Some (name, t0, Some c) ->
          Hashtbl.remove opened id;
          charge c name (Int64.to_float (Int64.sub r.time_ns t0) /. 1e6);
          if name = "serve.event" then current := None
        | _ -> ())
      | Trace.Counter { name; delta } -> (
        match (!current, name) with
        | Some c, "fw.iters" -> c.fw_iters <- c.fw_iters +. delta
        | Some c, "serve.resolved_intervals" ->
          c.resolved_intervals <- c.resolved_intervals +. delta
        | _ -> ())
      | Trace.Event _ -> ())
    records;
  Array.of_list (List.rev !events)

(* [Wal.append] on a shadow writer in [dir], same records, same
   filesystem as the server's log; ms per append. *)
let wal_append_ms ~dir ~first_seq events =
  let w = Dcn_durable.Wal.open_writer (Filename.concat dir "shadow-wal.log") in
  Fun.protect ~finally:(fun () -> Dcn_durable.Wal.close w) @@ fun () ->
  Array.mapi
    (fun i e ->
      let t0 = now () in
      Dcn_durable.Wal.append w ~seq:(first_seq + i) e;
      1e3 *. (now () -. t0))
    events

(* [Json.parse] + [Event.of_json] on the exact lines sent, µs per line
   (best of three passes, so one descheduling does not dominate). *)
let parse_us lines =
  let n = Array.length lines in
  let pass () =
    let t0 = now () in
    Array.iter
      (fun l ->
        match Json.parse l with
        | Ok j -> ignore (Event.of_json j)
        | Error _ -> ())
      lines;
    1e6 *. (now () -. t0) /. float_of_int (max 1 n)
  in
  List.fold_left Float.min infinity [ pass (); pass (); pass () ]

(* The [transport] section of the server's [--report]. *)
let transport_counts report_path =
  let j = Json.of_string (In_channel.with_open_bin report_path In_channel.input_all) in
  let t = Json.get "transport" j in
  (Json.to_int (Json.get "shed" t), Json.to_int (Json.get "parse_errors" t))
