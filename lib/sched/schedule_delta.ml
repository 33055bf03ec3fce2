module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Json = Dcn_engine.Json

type change = { before : Schedule.plan; after : Schedule.plan }

type t = {
  horizon : (float * float) option;
  added : Schedule.plan list;
  removed : Schedule.plan list;
  changed : change list;
}

let equal_slot (a : Schedule.slot) (b : Schedule.slot) =
  a.start = b.start && a.stop = b.stop && a.rate = b.rate

let equal_flow (a : Flow.t) (b : Flow.t) =
  a.id = b.id && a.src = b.src && a.dst = b.dst && a.volume = b.volume
  && a.release = b.release && a.deadline = b.deadline

let equal_plan (a : Schedule.plan) (b : Schedule.plan) =
  equal_flow a.flow b.flow && a.path = b.path
  && List.length a.slots = List.length b.slots
  && List.for_all2 equal_slot a.slots b.slots

let is_empty t = t.added = [] && t.removed = [] && t.changed = []

let plan_id (p : Schedule.plan) = p.Schedule.flow.Flow.id

let by_id a b = compare (plan_id a) (plan_id b)

let plans = function
  | None -> []
  | Some (s : Schedule.t) -> s.Schedule.plans

let by_plan_id plans =
  let tbl = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace tbl (plan_id p) p) plans;
  tbl

let diff ~before ~after =
  let old_plans = plans before in
  let new_plans = plans after in
  let old_ids = by_plan_id old_plans and new_ids = by_plan_id new_plans in
  let added = List.filter (fun p -> not (Hashtbl.mem old_ids (plan_id p))) new_plans in
  let removed = List.filter (fun p -> not (Hashtbl.mem new_ids (plan_id p))) old_plans in
  let changed =
    List.filter_map
      (fun (p : Schedule.plan) ->
        match Hashtbl.find_opt new_ids (plan_id p) with
        | Some q when not (equal_plan p q) -> Some { before = p; after = q }
        | _ -> None)
      old_plans
  in
  {
    horizon = Option.map (fun (s : Schedule.t) -> s.Schedule.horizon) after;
    added = List.sort by_id added;
    removed = List.sort by_id removed;
    changed = List.sort (fun a b -> by_id a.before b.before) changed;
  }

let of_changes ~horizon ~added ~removed =
  { horizon; added = List.sort by_id added; removed = List.sort by_id removed; changed = [] }

let apply ~graph ~power ~before t =
  let old_plans = plans before in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec remove acc id = function
    | [] -> err "delta removes flow %d, which has no plan" id
    | p :: ps when plan_id p = id -> Ok (List.rev_append acc ps)
    | p :: ps -> remove (p :: acc) id ps
  in
  let rec replace acc (c : change) = function
    | [] -> err "delta changes flow %d, which has no plan" (plan_id c.before)
    | p :: ps when plan_id p = plan_id c.before ->
      if equal_plan p c.before then Ok (List.rev_append acc (c.after :: ps))
      else err "delta's before-plan of flow %d does not match" (plan_id p)
    | p :: ps -> replace (p :: acc) c ps
  in
  let ( let* ) = Result.bind in
  let* pruned =
    List.fold_left
      (fun acc p ->
        let* ps = acc in
        if equal_plan p (List.find (fun q -> plan_id q = plan_id p) old_plans)
        then remove [] (plan_id p) ps
        else err "delta's removed plan of flow %d does not match" (plan_id p))
      (Ok old_plans)
      (List.filter
         (fun p -> List.exists (fun q -> plan_id q = plan_id p) old_plans)
         t.removed)
  in
  (* A removed plan absent from [before] is itself a mismatch. *)
  let* () =
    match
      List.find_opt
        (fun p -> not (List.exists (fun q -> plan_id q = plan_id p) old_plans))
        t.removed
    with
    | Some p -> err "delta removes flow %d, which has no plan" (plan_id p)
    | None -> Ok ()
  in
  let* replaced =
    List.fold_left
      (fun acc c ->
        let* ps = acc in
        replace [] c ps)
      (Ok pruned) t.changed
  in
  let* () =
    match
      List.find_opt
        (fun p -> List.exists (fun q -> plan_id q = plan_id p) replaced)
        t.added
    with
    | Some p -> err "delta adds flow %d, which already has a plan" (plan_id p)
    | None -> Ok ()
  in
  let final = replaced @ t.added in
  match t.horizon with
  | None ->
    if final = [] then Ok None
    else err "delta drops the horizon but %d plan(s) remain" (List.length final)
  | Some horizon -> (
    match Schedule.make ~graph ~power ~horizon final with
    | s -> Ok (Some s)
    | exception Invalid_argument m -> Error m)

let summary t =
  Printf.sprintf "+%d -%d ~%d" (List.length t.added) (List.length t.removed)
    (List.length t.changed)

let slot_to_json (s : Schedule.slot) =
  Json.Obj
    [
      ("start", Json.float s.start);
      ("stop", Json.float s.stop);
      ("rate", Json.float s.rate);
    ]

let plan_to_json (p : Schedule.plan) =
  let f = p.Schedule.flow in
  Json.Obj
    [
      ("flow", Json.Int f.Flow.id);
      ("src", Json.Int f.src);
      ("dst", Json.Int f.dst);
      ("volume", Json.float f.volume);
      ("release", Json.float f.release);
      ("deadline", Json.float f.deadline);
      ("path", Json.List (List.map (fun l -> Json.Int l) p.path));
      ("slots", Json.List (List.map slot_to_json p.slots));
    ]

let to_json t =
  Json.Obj
    [
      ( "horizon",
        match t.horizon with
        | None -> Json.Null
        | Some (lo, hi) -> Json.List [ Json.float lo; Json.float hi ] );
      ("added", Json.List (List.map plan_to_json t.added));
      ("removed", Json.List (List.map (fun p -> Json.Int (plan_id p)) t.removed));
      ( "changed",
        Json.List (List.map (fun c -> plan_to_json c.after) t.changed) );
    ]
