module Json = Dcn_engine.Json
module Flow = Dcn_flow.Flow

type t =
  | Flow_arrival of Flow.t
  | Flow_cancel of { flow : int }
  | Coflow_arrival of { coflow : int; flows : Flow.t list }
  | Coflow_cancel of { coflow : int }
  | Advance_clock of { clock : float }

let kind = function
  | Flow_arrival _ -> "arrival"
  | Flow_cancel _ -> "cancel"
  | Coflow_arrival _ -> "coflow"
  | Coflow_cancel _ -> "coflow-cancel"
  | Advance_clock _ -> "advance"

let pp ppf = function
  | Flow_arrival f -> Format.fprintf ppf "arrival %a" Flow.pp f
  | Flow_cancel { flow } -> Format.fprintf ppf "cancel flow %d" flow
  | Coflow_arrival { coflow; flows } ->
    Format.fprintf ppf "coflow %d arrival (%d flows)" coflow (List.length flows)
  | Coflow_cancel { coflow } -> Format.fprintf ppf "cancel coflow %d" coflow
  | Advance_clock { clock } -> Format.fprintf ppf "advance to %g" clock

let flow_to_fields (f : Flow.t) =
  [
    ("id", Json.Int f.id);
    ("src", Json.Int f.src);
    ("dst", Json.Int f.dst);
    ("volume", Json.float f.volume);
    ("release", Json.float f.release);
    ("deadline", Json.float f.deadline);
  ]

let to_json = function
  | Flow_arrival (f : Flow.t) ->
    Json.Obj (("event", Json.Str "arrival") :: flow_to_fields f)
  | Flow_cancel { flow } ->
    Json.Obj [ ("event", Json.Str "cancel"); ("id", Json.Int flow) ]
  | Coflow_arrival { coflow; flows } ->
    Json.Obj
      [
        ("event", Json.Str "coflow");
        ("id", Json.Int coflow);
        ( "flows",
          Json.List (List.map (fun f -> Json.Obj (flow_to_fields f)) flows) );
      ]
  | Coflow_cancel { coflow } ->
    Json.Obj [ ("event", Json.Str "coflow-cancel"); ("id", Json.Int coflow) ]
  | Advance_clock { clock } ->
    Json.Obj [ ("event", Json.Str "advance"); ("to", Json.float clock) ]

let ( let* ) = Result.bind
let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let field json name =
  match Json.member name json with
  | Some v -> Ok v
  | None -> err "missing field %S" name

let num json name =
  let* v = field json name in
  match v with
  | Json.Int i -> Ok (float_of_int i)
  | Json.Float x -> Ok x
  | _ -> err "field %S is not a number" name

let int json name =
  let* v = field json name in
  match v with Json.Int i -> Ok i | _ -> err "field %S is not an integer" name

let flow_of_json json =
  let* id = int json "id" in
  let* src = int json "src" in
  let* dst = int json "dst" in
  let* volume = num json "volume" in
  let* release = num json "release" in
  let* deadline = num json "deadline" in
  match Flow.make ~id ~src ~dst ~volume ~release ~deadline with
  | f -> Ok f
  | exception Invalid_argument m -> Error m

let of_json json =
  match json with
  | Json.Obj _ -> (
    let* tag = field json "event" in
    match tag with
    | Json.Str "arrival" -> (
      match flow_of_json json with
      | Ok f -> Ok (Flow_arrival f)
      | Error m -> err "bad arrival: %s" m)
    | Json.Str "cancel" ->
      let* flow = int json "id" in
      Ok (Flow_cancel { flow })
    | Json.Str "coflow" -> (
      let* coflow = int json "id" in
      let* members = field json "flows" in
      match members with
      | Json.List members ->
        let* flows =
          List.fold_left
            (fun acc m ->
              let* acc = acc in
              match m with
              | Json.Obj _ -> (
                match flow_of_json m with
                | Ok f -> Ok (f :: acc)
                | Error msg -> err "bad coflow %d member: %s" coflow msg)
              | _ -> err "coflow %d: member is not an object" coflow)
            (Ok []) members
        in
        Ok (Coflow_arrival { coflow; flows = List.rev flows })
      | _ -> err "coflow %d: field \"flows\" is not a list" coflow)
    | Json.Str "coflow-cancel" ->
      let* coflow = int json "id" in
      Ok (Coflow_cancel { coflow })
    | Json.Str "advance" ->
      let* clock = num json "to" in
      if Float.is_finite clock then Ok (Advance_clock { clock })
      else err "field \"to\" is not finite"
    | Json.Str other -> err "unknown event kind %S" other
    | _ -> err "field \"event\" is not a string")
  | _ -> Error "event is not a JSON object"

type line_error = { offset : int option; message : string }

let of_line line =
  match Json.parse line with
  | Error e -> Error { offset = Some e.Json.offset; message = e.Json.message }
  | Ok json -> (
    match of_json json with
    | Ok event -> Ok event
    | Error message -> Error { offset = None; message })
