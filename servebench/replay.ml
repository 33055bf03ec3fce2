(* The offline correctness replay.  The delivered event sequence goes
   through a bare in-memory [Session] with the server's parameters; every
   reply must match the replayed outcome byte for byte once its
   nondeterministic [seq]/[uptime_ms] stamp is set aside, and no epoch
   may fail certification.  Everything computed here is off the clock:
   the committed-set series, [energy_over_lb], admission counts, and —
   with [~shadow] — the timings of the reply encoder and the schedule
   layer on the replay's own committed schedules. *)

module Json = Dcn_engine.Json
module Flow = Dcn_flow.Flow
module Event = Dcn_serve.Event
module Session = Dcn_serve.Session
module Schedule = Dcn_sched.Schedule

let now = Unix.gettimeofday
let fabric () = Dcn_topology.Builders.fat_tree 4

let power (spec : Workload.t) =
  Dcn_power.Model.make ~sigma:0. ~mu:1. ~alpha:2. ~cap:spec.cap ()

type shadow = {
  encode_us : float array;  (** outcome -> reply JSON text, per timed event *)
  delta_us : float array;  (** [Schedule_delta.diff], per timed event *)
  feasible_us : float array;  (** [Schedule.max_link_rate], per call *)
  reused : int;  (** intervals reused, summed over timed outcome details *)
  resolved : int;  (** intervals re-solved, summed likewise *)
}

type t = {
  mismatch : string option;  (** first reply that differs from the replay *)
  uncertified : int;  (** timed epochs with certification violations *)
  errors : int;  (** timed replies that are not outcomes: errors, sheds *)
  committed : int array;  (** committed flows after each timed event *)
  energy_over_lb : float array;  (** at the sampled timed epochs *)
  offered : int;  (** flows offered in the timed phase *)
  admitted : int;  (** of which admitted *)
  shed : int;  (** committed flows shed by the admission policy *)
  shadow : shadow option;
}

(* The text of a reply from its ["event"] field on: the part the server
   derives from the session alone. *)
let stamp_free line =
  let key = ",\"event\":" in
  let k = String.length key and n = String.length line in
  let rec find i =
    if i + k > n then None
    else if String.sub line i k = key then Some (String.sub line (i + 1) (n - i - 1))
    else find (i + 1)
  in
  find 0

let seq_of line =
  try Scanf.sscanf line "{\"seq\":%d," Option.some with _ -> None

let expected event outcome =
  match Session.outcome_to_json outcome with
  | Json.Obj fields ->
    let s = Json.to_string (Json.Obj (("event", Json.Str (Event.kind event)) :: fields)) in
    String.sub s 1 (String.length s - 1)
  | _ -> assert false

let lower_bound ~graph ~power flows =
  let inst = Dcn_core.Instance.make ~graph ~power ~flows in
  (Dcn_core.Lower_bound.compute inst).Dcn_core.Lower_bound.value

let offered_flows = function
  | Event.Flow_arrival _ -> 1
  | Event.Coflow_arrival { flows; _ } -> List.length flows
  | _ -> 0

(* [events]/[replies] cover the whole delivered sequence (warm phase
   first); [warm] of them precede the timed phase. *)
let run ~(spec : Workload.t) ~seed ~warm ~events ~replies ~shadow =
  let graph = fabric () in
  let power = power spec in
  let session = Session.create ~graph ~power ~policy:spec.policy ~seed () in
  let n = Array.length events in
  let timed = n - warm in
  let mismatch = ref None in
  let uncertified = ref 0 and errors = ref 0 in
  let committed = Array.make timed 0 in
  let ratios = ref [] in
  let offered = ref 0 and admitted = ref 0 and shed = ref 0 in
  let encode_us = Array.make timed 0. and delta_us = Array.make timed 0. in
  let feasible_us = ref [] in
  let reused = ref 0 and resolved = ref 0 in
  let fail i msg =
    if !mismatch = None then
      mismatch := Some (Printf.sprintf "event %d (%s): %s" (i + 1)
                          (Event.kind events.(i)) msg)
  in
  for i = 0 to n - 1 do
    let event = events.(i) in
    let before = Session.schedule session in
    let outcome = Session.apply session event in
    let reply = replies.(i) in
    (match (seq_of reply, stamp_free reply) with
    | Some s, Some body ->
      if s <> i + 1 then fail i (Printf.sprintf "reply carries seq %d" s)
      else if body <> expected event outcome then
        fail i (Printf.sprintf "reply %s\n  replay {%s" reply (expected event outcome))
    | _ -> fail i ("not an outcome reply: " ^ reply));
    if i >= warm then begin
      let k = i - warm in
      committed.(k) <- List.length (Session.active_flows session);
      (* Error and shed replies carry no seq stamp. *)
      if seq_of reply = None then incr errors;
      offered := !offered + offered_flows event;
      (match outcome with
      | Session.Committed d | Session.Degraded d ->
        if d.violations <> [] then incr uncertified;
        admitted := !admitted + offered_flows event;
        shed := !shed + List.length d.dropped;
        reused := !reused + d.reused_intervals;
        resolved := !resolved + d.resolved_intervals
      | Session.Rejected _ -> ());
      if shadow then begin
        let t0 = now () in
        ignore (Json.to_string (Session.outcome_to_json outcome));
        let t1 = now () in
        let after = Session.schedule session in
        ignore (Dcn_sched.Schedule_delta.diff ~before ~after);
        let t2 = now () in
        encode_us.(k) <- 1e6 *. (t1 -. t0);
        delta_us.(k) <- 1e6 *. (t2 -. t1);
        match after with
        | Some sc ->
          let t3 = now () in
          ignore (Schedule.max_link_rate sc);
          feasible_us := (1e6 *. (now () -. t3)) :: !feasible_us
        | None -> ()
      end;
      if (k + 1) mod spec.energy_stride = 0 then
        match (Session.active_flows session, Session.schedule session) with
        | (_ :: _ as flows), Some sc ->
          ratios := (Schedule.energy sc /. lower_bound ~graph ~power flows) :: !ratios
        | _ -> ()
    end
  done;
  {
    mismatch = !mismatch;
    uncertified = !uncertified;
    errors = !errors;
    committed;
    energy_over_lb = Array.of_list (List.rev !ratios);
    offered = !offered;
    admitted = !admitted;
    shed = !shed;
    shadow =
      (if shadow then
         Some
           {
             encode_us;
             delta_us;
             feasible_us = Array.of_list !feasible_us;
             reused = !reused;
             resolved = !resolved;
           }
       else None);
  }
