module Json = Dcn_engine.Json
module Deadline = Dcn_engine.Deadline
module Pool = Dcn_engine.Pool
module Trace = Dcn_engine.Trace
module Prng = Dcn_util.Prng

type row = {
  index : int;
  label : string;
  event : Fault.event;
  committed : Watchdog.answer;
  outcome : Repair.outcome;
}

(* No violations on the repaired schedule (vacuously true when there is
   nothing left to certify); [false] for [Irreparable]. *)
let row_certified row =
  match row.outcome with
  | Repair.Repaired d | Repair.Degraded d -> d.Repair.violations = []
  | Repair.Irreparable _ -> false

type t = {
  seed : int;
  policy : Repair.policy;
  rows : row array;
  repaired : int;
  degraded : int;
  irreparable : int;
  uncertified : int;
}

let ok t =
  t.uncertified = 0
  && Array.for_all
       (fun row ->
         match row.outcome with
         | Repair.Irreparable _ -> true
         | _ -> row_certified row)
       t.rows

let run_scenario ?budget_ms ~policy (s : Fault.scenario) =
  Trace.span ~fields:[ ("label", Json.Str s.Fault.label) ] "resilience.scenario"
  @@ fun () ->
  (* The scenario's own streams: commit solve and repair never share
     randomness, so neither phase perturbs the other. *)
  let rngs = Pool.split_rngs (Prng.create s.Fault.solver_seed) 2 in
  let committed =
    Dcn_core.Selfcheck.without (fun () ->
        Watchdog.solve ?budget_ms ~rng:rngs.(0) s.Fault.instance)
  in
  let outcome =
    match
      Repair.repair ~policy ~rng:rngs.(1)
        ~committed:committed.Watchdog.schedule ~event:s.Fault.event
        s.Fault.instance
    with
    | outcome -> outcome
    | exception Deadline.Expired ->
      Repair.Irreparable { reason = "budget expired during repair"; salvaged = 0. }
  in
  { index = s.Fault.index; label = s.Fault.label; event = s.Fault.event; committed; outcome }

let run ?pool ?budget_ms ~policy ~seed ~n () =
  let scenarios = Fault.campaign ~seed ~n in
  let f = run_scenario ?budget_ms ~policy in
  let rows =
    match pool with
    | None -> Array.map f scenarios
    | Some pool -> Pool.map pool f scenarios
  in
  let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 rows in
  let kind_is k r = Repair.outcome_kind r.outcome = k in
  let t =
    {
      seed;
      policy;
      rows;
      repaired = count (kind_is "repaired");
      degraded = count (kind_is "degraded");
      irreparable = count (kind_is "irreparable");
      uncertified =
        count (fun r -> (not (kind_is "irreparable" r)) && not (row_certified r));
    }
  in
  Trace.counter "resilience.irreparable" (float_of_int t.irreparable);
  t

let row_to_json row =
  Json.Obj
    [
      ("index", Json.Int row.index);
      ("label", Json.Str row.label);
      ("event", Fault.event_to_json row.event);
      ("watchdog", Watchdog.answer_to_json row.committed);
      ("repair", Repair.outcome_to_json row.outcome);
    ]

let to_json t =
  Json.Obj
    [
      ("scenarios", Json.Int (Array.length t.rows));
      ("seed", Json.Int t.seed);
      ("policy", Json.Str (Repair.policy_to_string t.policy));
      ("ok", Json.Bool (ok t));
      ("repaired", Json.Int t.repaired);
      ("degraded", Json.Int t.degraded);
      ("irreparable", Json.Int t.irreparable);
      ("uncertified", Json.Int t.uncertified);
      ("rows", Json.List (Array.to_list (Array.map row_to_json t.rows)));
    ]
