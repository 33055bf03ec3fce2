module Json = Dcn_engine.Json
module Deadline = Dcn_engine.Deadline
module Trace = Dcn_engine.Trace
module Prng = Dcn_util.Prng
module Graph = Dcn_topology.Graph
module Instance = Dcn_core.Instance
module Solution = Dcn_core.Solution
module Random_schedule = Dcn_core.Random_schedule
module Greedy_ear = Dcn_core.Greedy_ear
module Exact = Dcn_core.Exact

type status = Answered | Timed_out | Skipped | Failed of string

type attempt = { stage : string; status : status }

type answer = {
  algorithm : string;
  attempts : attempt list;
  schedule : Dcn_sched.Schedule.t;
  energy : float;
  feasible : bool;
  solution : Solution.t option;
}

let timed_out answer =
  List.filter_map
    (fun a -> if a.status = Timed_out then Some a.stage else None)
    answer.attempts

let status_to_string = function
  | Answered -> "answered"
  | Timed_out -> "timed_out"
  | Skipped -> "skipped"
  | Failed m -> Printf.sprintf "failed: %s" m

(* Live telemetry: solves started and stages lost to their budget. *)
let obs_solves =
  Dcn_obs.Registry.counter ~help:"watchdog fallback-chain solves"
    "watchdog.solves"

let obs_timeouts =
  Dcn_obs.Registry.counter ~help:"watchdog stage timeouts" "watchdog.timeouts"

(* Same gate as the differential oracle: exhaustion only where the
   enumeration budget is certainly small. *)
let exact_gate inst =
  Instance.num_flows inst <= 4 && Graph.num_cables inst.Instance.graph <= 10

(* Run one guarded stage under the budget's deadline.  The deadline is
   installed as the domain's ambient deadline, so the solver's polling
   points — and any {!Dcn_engine.Pool.map} it fans out through — see
   it without threading a parameter. *)
let guarded deadline stage f =
  match Deadline.with_deadline deadline f with
  | v -> (v, { stage; status = Answered })
  | exception Deadline.Expired ->
    Dcn_obs.Registry.incr obs_timeouts;
    Trace.event ~fields:[ ("stage", Json.Str stage) ] "watchdog.timeout";
    (None, { stage; status = Timed_out })

let solve ?budget_ms ~rng inst =
  Dcn_obs.Registry.incr obs_solves;
  Trace.span "watchdog.solve" @@ fun () ->
  (* Honour an enclosing budget: the guarded stages run under the
     tighter of the watchdog's own deadline and the ambient one. *)
  let deadline =
    let own =
      match budget_ms with
      | None -> Deadline.never
      | Some ms -> Deadline.after ~ms
    in
    match Deadline.ambient () with
    | Some outer when Deadline.remaining_ms outer < Deadline.remaining_ms own ->
      outer
    | _ -> own
  in
  let attempts = ref [] in
  let record a = attempts := a :: !attempts in
  let answered ~algorithm ~solution ~schedule ~energy ~feasible =
    {
      algorithm;
      attempts = List.rev !attempts;
      schedule;
      energy;
      feasible;
      solution;
    }
  in
  let of_solution (sol : Solution.t) =
    answered ~algorithm:sol.Solution.algorithm ~solution:(Some sol)
      ~schedule:sol.Solution.schedule ~energy:sol.Solution.energy
      ~feasible:sol.Solution.feasible
  in
  (* Stage 1: exhaustive optimum, where gated in. *)
  let exact_answer =
    if not (exact_gate inst) then begin
      record { stage = "exact"; status = Skipped };
      None
    end
    else
      let v, a =
        guarded deadline "exact" (fun () ->
            match Exact.search inst with
            | r -> Some (Ok r)
            | exception Invalid_argument m -> Some (Error m))
      in
      match v with
      | Some (Ok r) ->
        record a;
        Some (of_solution r.Exact.best)
      | Some (Error m) ->
        record { stage = "exact"; status = Failed m };
        None
      | None ->
        record a;
        None
  in
  match exact_answer with
  | Some answer -> answer
  | None -> (
    (* Stage 2: the approximation pipeline. *)
    let v, a =
      guarded deadline "random-schedule" (fun () ->
          Some
            (Random_schedule.solve
               ~config:
                 {
                   Random_schedule.attempts = Random_schedule.redraw_budget;
                   fw_config = Dcn_mcf.Frank_wolfe.resolve_config;
                 }
               ~rng:(Prng.split rng) inst))
    in
    let rs_answer =
      match v with
      | Some sol when sol.Solution.feasible ->
        record a;
        Some (of_solution sol)
      | Some _ ->
        record
          {
            stage = "random-schedule";
            status = Failed "no feasible draw within the redraw budget";
          };
        None
      | None ->
        record a;
        None
    in
    match rs_answer with
    | Some answer -> answer
    | None ->
      (* Stage 3: the unguarded fallback — always answers.  [feasible]
         keeps its historical meaning here (deadlines met; the greedy
         is not capacity-aware, its own flag lives in the solution). *)
      let g =
        (* Escape the ambient budget entirely: the fallback must answer
           even when the enclosing budget has expired. *)
        Deadline.with_deadline Deadline.never (fun () -> Greedy_ear.solve inst)
      in
      record { stage = "greedy-ear"; status = Answered };
      answered ~algorithm:"greedy-ear" ~solution:(Some g)
        ~schedule:g.Solution.schedule ~energy:g.Solution.energy
        ~feasible:true)

let answer_to_json t =
  Json.Obj
    [
      ("algorithm", Json.Str t.algorithm);
      ("energy", Json.float t.energy);
      ("feasible", Json.Bool t.feasible);
      ( "attempts",
        Json.List
          (List.map
             (fun a ->
               Json.Obj
                 [
                   ("stage", Json.Str a.stage);
                   ("status", Json.Str (status_to_string a.status));
                 ])
             t.attempts) );
      ( "timed_out",
        Json.List (List.map (fun s -> Json.Str s) (timed_out t)) );
    ]
