(* Serialisations of a snapshot: wire line, Prometheus text format,
   atomic file write, live table.  See expose.mli. *)

module Json = Dcn_engine.Json

let wire_line snap =
  let body =
    match Snapshot.to_json snap with
    | Json.Obj fields ->
      Json.Obj (fields @ [ ("slo", Slo.to_json (Slo.of_snapshot snap)) ])
    | other -> other
  in
  Json.to_string (Json.Obj [ ("stats", body) ])

(* --------------------------- Prometheus --------------------------- *)

let legal_first c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let legal_rest c = legal_first c || (c >= '0' && c <= '9')

let sanitize_label name =
  let b = Bytes.of_string name in
  Bytes.iteri (fun i c -> if not (legal_rest c) then Bytes.set b i '_') b;
  Bytes.to_string b

let sanitize name = "dcn_" ^ sanitize_label name

let exposed_name (s : Registry.sample) =
  let base = sanitize s.s_name in
  match s.s_kind with Registry.Counter -> base ^ "_total" | _ -> base

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let escape_help v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let label_str pairs =
  match pairs with
  | [] -> ""
  | pairs ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (sanitize_label k) (escape_label_value v))
           pairs)
    ^ "}"

let number v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" v

let prometheus snap =
  let buf = Buffer.create 4096 in
  let typed : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let header (s : Registry.sample) fam ty =
    if not (Hashtbl.mem typed fam) then begin
      Hashtbl.add typed fam ();
      if s.s_help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" fam (escape_help s.s_help));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fam ty)
    end
  in
  List.iter
    (fun (s : Registry.sample) ->
      let fam = exposed_name s in
      let labels = label_str s.s_labels in
      match s.s_value with
      | Registry.Value v ->
        header s fam
          (match s.s_kind with Registry.Counter -> "counter" | _ -> "gauge");
        Buffer.add_string buf (Printf.sprintf "%s%s %s\n" fam labels (number v))
      | Registry.Dist d ->
        header s fam "summary";
        List.iter
          (fun (q, v) ->
            let qlabel = ("quantile", q) in
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" fam
                 (label_str (s.s_labels @ [ qlabel ]))
                 (number v)))
          [ ("0.5", d.Registry.d_p50); ("0.9", d.Registry.d_p90);
            ("0.99", d.Registry.d_p99) ];
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" fam labels (number d.Registry.d_sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" fam labels d.Registry.d_count))
    snap.Snapshot.metrics;
  Buffer.contents buf

(* ------------------------- format validator ----------------------- *)

let known_types = [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ]

let legal_name n =
  n <> ""
  && legal_first n.[0]
  && String.for_all legal_rest n

(* [name{labels} value [ts]] -> (name, rest after labels).  Scans the
   label block with quote/escape awareness. *)
let split_metric_line line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && legal_rest line.[!i] do Stdlib.incr i done;
  if !i = 0 then Error "does not start with a metric name"
  else begin
    let name = String.sub line 0 !i in
    if !i < n && line.[!i] = '{' then begin
      Stdlib.incr i;
      let in_quote = ref false and escaped = ref false and closed = ref false in
      while !i < n && not !closed do
        let c = line.[!i] in
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_quote := not !in_quote
        else if c = '}' && not !in_quote then closed := true;
        Stdlib.incr i
      done;
      if not !closed then Error "unterminated label block"
      else Ok (name, String.sub line !i (n - !i))
    end
    else Ok (name, String.sub line !i (n - !i))
  end

let valid_value tok =
  match tok with
  | "NaN" | "+Inf" | "-Inf" | "Inf" -> true
  | tok -> ( match float_of_string_opt tok with Some _ -> true | None -> false)

let validate_prometheus payload =
  let typed : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let family name =
    let strip suffix =
      if String.length name > String.length suffix
         && String.ends_with ~suffix name
      then Some (String.sub name 0 (String.length name - String.length suffix))
      else None
    in
    if Hashtbl.mem typed name then Some name
    else
      match strip "_sum" with
      | Some base when Hashtbl.find_opt typed base = Some "summary" -> Some base
      | _ -> (
        match strip "_count" with
        | Some base when Hashtbl.find_opt typed base = Some "summary" -> Some base
        | _ -> None)
  in
  let check_line line =
    let line = String.trim line in
    if line = "" then Ok ()
    else if String.length line > 0 && line.[0] = '#' then begin
      match String.split_on_char ' ' line with
      | "#" :: "HELP" :: name :: _ when legal_name name -> Ok ()
      | "#" :: "TYPE" :: name :: ty :: [] when legal_name name ->
        if List.mem ty known_types then begin
          Hashtbl.replace typed name ty;
          Ok ()
        end
        else Error (Printf.sprintf "unknown type %S" ty)
      | "#" :: ("HELP" | "TYPE") :: _ -> Error "malformed HELP/TYPE comment"
      | _ -> Ok ()  (* plain comment *)
    end
    else
      match split_metric_line line with
      | Error e -> Error e
      | Ok (name, rest) ->
        if not (legal_name name) then Error (Printf.sprintf "illegal name %S" name)
        else if family name = None then
          Error (Printf.sprintf "sample %S has no preceding # TYPE" name)
        else begin
          match String.split_on_char ' ' (String.trim rest) with
          | [ v ] when valid_value v -> Ok ()
          | [ v; ts ] when valid_value v && int_of_string_opt ts <> None -> Ok ()
          | _ -> Error "malformed sample value"
        end
  in
  let rec walk lineno = function
    | [] -> Ok ()
    | line :: rest -> (
      match check_line line with
      | Ok () -> walk (lineno + 1) rest
      | Error e -> Error (Printf.sprintf "line %d: %s: %s" lineno e (String.trim line)))
  in
  walk 1 (String.split_on_char '\n' payload)

(* --------------------------- file writing ------------------------- *)

let write_atomic ~path content = Dcn_util.Atomic_file.write ~path [ content ]

(* ---------------------------- live table -------------------------- *)

let dist_cell (d : Registry.dist) =
  Printf.sprintf "n=%d p50=%.3f p90=%.3f p99=%.3f" d.d_count d.d_p50 d.d_p90
    d.d_p99

let render_table ?(top = 0) snap =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "snapshot #%d  uptime %.1f s  (%d metrics)\n\n"
       snap.Snapshot.seq
       (snap.Snapshot.uptime_ms /. 1e3)
       (List.length snap.Snapshot.metrics));
  let slo = Slo.of_snapshot snap in
  Buffer.add_string buf
    (Dcn_util.Table.render ~headers:[ "indicator"; "value" ] ~rows:(Slo.rows slo) ());
  Buffer.add_char buf '\n';
  let rows =
    List.map
      (fun (s : Registry.sample) ->
        [
          s.s_name;
          String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) s.s_labels);
          Registry.kind_to_string s.s_kind;
          (match s.s_value with
          | Registry.Value v -> Printf.sprintf "%g" v
          | Registry.Dist d -> dist_cell d);
        ])
      snap.Snapshot.metrics
  in
  Buffer.add_string buf
    (Dcn_util.Table.render_top
       ~align:[ Dcn_util.Table.Left; Dcn_util.Table.Left; Dcn_util.Table.Left;
                Dcn_util.Table.Right ]
       ~top ~what:"metrics by name"
       ~headers:[ "metric"; "labels"; "kind"; "value" ]
       ~rows ());
  Buffer.contents buf
