(* Derived serving-health indicators.  See slo.mli. *)

module Json = Dcn_engine.Json

type t = {
  events : int;
  committed : int;
  degraded : int;
  rejected : int;
  commit_rate : float option;
  apply_count : int;
  apply_p50_ms : float option;
  apply_p90_ms : float option;
  apply_p99_ms : float option;
  resolved_intervals : int;
  reused_intervals : int;
  reuse_ratio : float option;
  min_slack : float option;
  energy : float option;
  energy_lb : float option;
  energy_gap : float option;
  fw_iterations : int;
  minor_words_per_event : float option;
  certified : int;
  uncertified : int;
}

let of_snapshot snap =
  let c name = int_of_float (Snapshot.counter_total snap name) in
  let events = c "serve.events" in
  let committed = c "serve.committed" in
  let degraded = c "serve.degraded" in
  let rejected = c "serve.rejected" in
  let outcomes = committed + degraded + rejected in
  let apply = Snapshot.dist snap "serve.apply_ms" in
  let q f = Option.map f apply in
  let resolved = c "relaxation.intervals_solved" in
  let reused = c "relaxation.intervals_reused" in
  let energy = Snapshot.gauge_value snap "serve.energy" in
  let energy_lb = Snapshot.gauge_value snap "serve.energy_lb" in
  let minor_words = Snapshot.counter_total snap "serve.apply_minor_words" in
  {
    events;
    committed;
    degraded;
    rejected;
    commit_rate =
      (if outcomes = 0 then None
       else Some (float_of_int committed /. float_of_int outcomes));
    apply_count = (match apply with None -> 0 | Some d -> d.Registry.d_count);
    apply_p50_ms = q (fun d -> d.Registry.d_p50);
    apply_p90_ms = q (fun d -> d.Registry.d_p90);
    apply_p99_ms = q (fun d -> d.Registry.d_p99);
    resolved_intervals = resolved;
    reused_intervals = reused;
    reuse_ratio =
      (if resolved + reused = 0 then None
       else Some (float_of_int reused /. float_of_int (resolved + reused)));
    min_slack = Snapshot.gauge_value snap "serve.min_slack";
    energy;
    energy_lb;
    energy_gap =
      (match (energy, energy_lb) with
      | Some e, Some lb when lb > 0. -> Some ((e -. lb) /. lb)
      | _ -> None);
    fw_iterations = c "fw.iterations";
    minor_words_per_event =
      (if events = 0 then None else Some (minor_words /. float_of_int events));
    certified = c "serve.certified";
    uncertified = c "serve.uncertified";
  }

let opt_json f = function None -> Json.Null | Some v -> f v

let to_json t =
  Json.Obj
    [
      ("events", Json.Int t.events);
      ("committed", Json.Int t.committed);
      ("degraded", Json.Int t.degraded);
      ("rejected", Json.Int t.rejected);
      ("commit_rate", opt_json Json.float t.commit_rate);
      ("apply_count", Json.Int t.apply_count);
      ("apply_p50_ms", opt_json Json.float t.apply_p50_ms);
      ("apply_p90_ms", opt_json Json.float t.apply_p90_ms);
      ("apply_p99_ms", opt_json Json.float t.apply_p99_ms);
      ("resolved_intervals", Json.Int t.resolved_intervals);
      ("reused_intervals", Json.Int t.reused_intervals);
      ("reuse_ratio", opt_json Json.float t.reuse_ratio);
      ("min_slack", opt_json Json.float t.min_slack);
      ("energy", opt_json Json.float t.energy);
      ("energy_lb", opt_json Json.float t.energy_lb);
      ("energy_gap", opt_json Json.float t.energy_gap);
      ("fw_iterations", Json.Int t.fw_iterations);
      ("minor_words_per_event", opt_json Json.float t.minor_words_per_event);
      ("certified", Json.Int t.certified);
      ("uncertified", Json.Int t.uncertified);
    ]

let rows t =
  let f = Printf.sprintf "%.3f" in
  let opt fmt = function None -> "-" | Some v -> fmt v in
  let pct = function None -> "-" | Some v -> Printf.sprintf "%.1f%%" (100. *. v) in
  [
    [ "events"; string_of_int t.events ];
    [ "committed"; string_of_int t.committed ];
    [ "degraded"; string_of_int t.degraded ];
    [ "rejected"; string_of_int t.rejected ];
    [ "commit rate"; pct t.commit_rate ];
    [ "apply p50 ms"; opt f t.apply_p50_ms ];
    [ "apply p90 ms"; opt f t.apply_p90_ms ];
    [ "apply p99 ms"; opt f t.apply_p99_ms ];
    [ "resolved intervals"; string_of_int t.resolved_intervals ];
    [ "reused intervals"; string_of_int t.reused_intervals ];
    [ "interval reuse"; pct t.reuse_ratio ];
    [ "min deadline slack"; opt f t.min_slack ];
    [ "energy"; opt f t.energy ];
    [ "energy LB"; opt f t.energy_lb ];
    [ "energy gap"; pct t.energy_gap ];
    [ "FW iterations"; string_of_int t.fw_iterations ];
    [ "minor words/event"; opt (Printf.sprintf "%.0f") t.minor_words_per_event ];
    [ "certified epochs"; string_of_int t.certified ];
    [ "uncertified epochs"; string_of_int t.uncertified ];
  ]
