module Json = Dcn_engine.Json

let obs_seq =
  Dcn_obs.Registry.gauge ~help:"committed event seq of the last checkpoint"
    "serve.checkpoint_seq"

let obs_bytes =
  Dcn_obs.Registry.gauge ~help:"size of the last checkpoint (bytes)"
    "serve.checkpoint_bytes"

let path ~dir = Filename.concat dir "checkpoint.json"

let version = 1

(* The envelope's bytes before the state: exactly what [Json.to_string]
   prints for these three fields, so the file equals the compact
   serialisation of the whole envelope object. *)
let header ~seq ~crc =
  Printf.sprintf {|{"version":%d,"seq":%d,"crc":"%s","state":|} version seq crc

(* The state's bytes are both the checksummed body and the envelope's
   last field; header, body and closing brace go to the file in turn. *)
let write ~dir ~seq body =
  let header = header ~seq ~crc:(Crc.to_hex (Crc.string body)) in
  Dcn_util.Atomic_file.write ~fsync:true ~path:(path ~dir) [ header; body; "}" ];
  Dcn_obs.Registry.set obs_seq (float_of_int seq);
  Dcn_obs.Registry.set obs_bytes
    (float_of_int (String.length header + String.length body + 1))

type loaded =
  | Absent
  | Invalid of string
  | Loaded of { seq : int; state : Json.t }

let load ~dir =
  let file = path ~dir in
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> Absent
  | raw -> (
    match Json.parse raw with
    | Error e -> Invalid (Json.parse_error_to_string e)
    | Ok j -> (
      match
        ( Json.member "version" j,
          Json.member "seq" j,
          Json.member "crc" j,
          Json.member "state" j )
      with
      | Some (Json.Int v), Some (Json.Int seq), Some (Json.Str crc), Some state
        ->
        if v <> version then Invalid (Printf.sprintf "unsupported version %d" v)
        else if seq < 0 then Invalid "negative seq"
        else
          (* The checksum covers the state's bytes as written: the raw
             text between the header and the closing brace. *)
          let pos = String.length (header ~seq ~crc) in
          let len = String.length raw - pos - 1 in
          if
            len < 0
            || raw.[String.length raw - 1] <> '}'
            || (not (String.starts_with ~prefix:(header ~seq ~crc) raw))
            || Crc.to_hex (Crc.substring raw ~pos ~len) <> String.lowercase_ascii crc
          then Invalid "state checksum mismatch"
          else Loaded { seq; state }
      | _ -> Invalid "missing envelope field"))
