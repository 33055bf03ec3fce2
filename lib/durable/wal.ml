module Json = Dcn_engine.Json
module Event = Dcn_serve.Event

type record = { seq : int; event : Event.t; json : string }

type tear =
  | Partial_line
  | Bad_header
  | Bad_checksum
  | Bad_event of string

let tear_to_string = function
  | Partial_line -> "torn final record (missing newline)"
  | Bad_header -> "malformed record framing"
  | Bad_checksum -> "record checksum mismatch"
  | Bad_event m -> Printf.sprintf "checksummed record is not an event: %s" m

type scan = { records : record list; valid_bytes : int; tear : tear option }

let obs_appends =
  Dcn_obs.Registry.counter ~help:"WAL records appended (fsync'd)"
    "serve.wal_appends"

let obs_syncs =
  Dcn_obs.Registry.counter ~help:"WAL fsyncs (one per appended batch)"
    "serve.wal_syncs"

let obs_bytes =
  Dcn_obs.Registry.counter ~help:"WAL bytes appended" "serve.wal_bytes"

let magic = "w1"

let encode ~seq event =
  let json = Json.to_string (Event.to_json event) in
  let body = Printf.sprintf "%d %s" seq json in
  Printf.sprintf "%s %s %s\n" magic (Crc.to_hex (Crc.string body)) body

(* One record starting at [off] in [buf] (the whole file).  Returns the
   parsed record and the offset one past its newline, or the tear that
   stops the scan.  [expected] is the sequence number this record must
   carry — [None] for the first record of a segment, which may start
   anywhere after a rotation. *)
let parse_record buf ~off ~expected =
  match String.index_from_opt buf off '\n' with
  | None -> Error Partial_line
  | Some nl -> (
    let line = String.sub buf off (nl - off) in
    (* "w1 <crc8> <seq> <json>" — split off the first three tokens. *)
    match String.split_on_char ' ' line with
    | m :: crc_hex :: seq_str :: _ when m = magic -> (
      match (Crc.of_hex crc_hex, int_of_string_opt seq_str) with
      | None, _ | _, None -> Error Bad_header
      | Some crc, Some seq ->
        if seq < 1 || (match expected with Some e -> seq <> e | None -> false)
        then Error Bad_header
        else
          let body_off = String.length magic + 1 + 8 + 1 in
          let body = String.sub line body_off (String.length line - body_off) in
          if Crc.string body <> crc then Error Bad_checksum
          else
            let json_off = String.length seq_str + 1 in
            let json = String.sub body json_off (String.length body - json_off) in
            (match Json.parse json with
            | Error e -> Error (Bad_event (Json.parse_error_to_string e))
            | Ok j -> (
              match Event.of_json j with
              | Error m -> Error (Bad_event m)
              | Ok event -> Ok ({ seq; event; json }, nl + 1))))
    | _ -> Error Bad_header)

let scan path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> { records = []; valid_bytes = 0; tear = None }
  | buf ->
    let n = String.length buf in
    let rec go acc off expected =
      if off >= n then { records = List.rev acc; valid_bytes = off; tear = None }
      else
        match parse_record buf ~off ~expected with
        | Ok (r, off') -> go (r :: acc) off' (Some (r.seq + 1))
        | Error tear ->
          { records = List.rev acc; valid_bytes = off; tear = Some tear }
    in
    go [] 0 None

let truncate path valid_bytes = Unix.truncate path valid_bytes

type writer = { fd : Unix.file_descr }

let open_writer path =
  { fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 }

(* write(2) may write less than asked (quota boundary, signal after a
   partial transfer); a short write is a loop iteration, not an error. *)
let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let append_batch w ~first_seq events =
  if events <> [] then begin
    let records = List.mapi (fun i e -> encode ~seq:(first_seq + i) e) events in
    let data = String.concat "" records in
    let len = String.length data in
    write_all w.fd data 0 len;
    Unix.fsync w.fd;
    Dcn_obs.Registry.incr ~by:(List.length events) obs_appends;
    Dcn_obs.Registry.incr obs_syncs;
    Dcn_obs.Registry.add obs_bytes (float_of_int len)
  end

let append w ~seq event = append_batch w ~first_seq:seq [ event ]

let reset w =
  Unix.ftruncate w.fd 0;
  Unix.fsync w.fd

let close w = Unix.close w.fd
