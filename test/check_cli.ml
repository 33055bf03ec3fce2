(* The option signatures of every `dcn` subcommand, run from the
   `check-cli` alias (a `runtest` dependency), which diffs them against
   the committed test/cli.signatures.

   Walks the COMMANDS section of `dcn --help=plain` (recursing into
   command groups) and prints, for every leaf command, the signature
   lines of its OPTIONS and ARGUMENTS sections — `--name=DOCV
   (absent=DEFAULT)`, `-j VAL, --jobs=VAL (absent=0)`, `EVENTS
   (required)` — one per line, prefixed with the command path.  A
   renamed, added or removed option, or a changed default, shows up as
   a one-line diff.

   Usage: check_cli.exe DCN_BINARY *)

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("check-cli: " ^ m);
      exit 1)
    fmt

let help exe path =
  let args = Array.of_list ((exe :: path) @ [ "--help=plain" ]) in
  let ic = Unix.open_process_args_in exe args in
  let lines = In_channel.input_lines ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> fail "%s --help=plain failed" (String.concat " " path)

(* The entry lines of the named sections: a section header is flush
   left, its entries are indented by exactly seven spaces. *)
let entries sections lines =
  let indent = "       " in
  let entry l =
    String.length l > 7
    && String.starts_with ~prefix:indent l
    && l.[7] <> ' '
  in
  let rec go current acc = function
    | [] -> List.rev acc
    | l :: rest when l <> "" && l.[0] <> ' ' -> go l acc rest
    | l :: rest when List.mem current sections && entry l ->
      go current (String.sub l 7 (String.length l - 7) :: acc) rest
    | _ :: rest -> go current acc rest
  in
  go "" [] lines

let rec walk exe path =
  let lines = help exe path in
  match entries [ "COMMANDS" ] lines with
  | [] ->
    List.iter
      (fun e -> Printf.printf "%s: %s\n" (String.concat " " ("dcn" :: path)) e)
      (entries [ "ARGUMENTS"; "OPTIONS" ] lines)
  | commands ->
    List.iter
      (fun c ->
        match String.split_on_char ' ' c with
        | name :: _ -> walk exe (path @ [ name ])
        | [] -> ())
      commands

let () =
  match Sys.argv with
  | [| _; exe |] -> walk exe []
  | _ -> fail "usage: check_cli.exe DCN_BINARY"
