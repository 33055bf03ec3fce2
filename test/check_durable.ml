(* End-to-end smoke test for durable serving, run from the root
   `check-durable` alias (itself a `runtest` dependency):

   1. serve the corpus over `dcn serve --socket` (with a WAL) and over
      plain stdin, and require the outcome streams byte-identical
      modulo uptime_ms — the one wall-clock field — even at different
      --jobs levels;
   2. kill a client mid-line — and another one between submitting an
      event and reading its reply (the SIGPIPE path) — and prove the
      server survives both;
   3. SIGTERM the server and require a clean drain: exit status 0 and a
      final checkpoint covering every committed event;
   4. pipeline the corpus to a fresh server in one write and require
      the same outcome stream, applied in fewer batches than events
      (group commit: one WAL write and fsync per batch);
   5. serve the corpus over stdin with a WAL in two runs on one store
      directory, a malformed line injected into the first: the replies
      must carry the durable sequence 1..n — past the skipped line and
      across the recovery — and match the plain stdin stream.

   Usage: check_durable.exe DCN_BINARY EVENTS_FILE *)

module Json = Dcn_engine.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("check-durable: " ^ m);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let event_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")

(* Both serving modes share the session parameters; only the transport
   and --jobs differ, so equality of the outcome streams checks the
   socket path end to end *and* jobs-invariance through the socket. *)
let topo_args = [ "--topology"; "line:5"; "--cap"; "6"; "--sigma"; "1" ]

let strip_uptime line =
  match Json.of_string line with
  | exception Failure m -> fail "unparseable outcome line %S: %s" line m
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj (List.filter (fun (k, _) -> k <> "uptime_ms") fields))
  | _ -> fail "outcome line is not an object: %S" line

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s

(* ------------------------- stdin reference ------------------------ *)

(* `dcn serve` on stdin over [events]: its outcome lines, and its
   stderr when [err] names a file to collect it in. *)
let run_stdin ?(args = []) ?err ~dcn ~events ~jobs () =
  let out_path = Filename.temp_file "dcn-durable-stdin" ".out" in
  let in_fd = Unix.openfile events [ Unix.O_RDONLY ] 0 in
  let out_fd =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644
  in
  let err_fd =
    match err with
    | None -> Unix.stderr
    | Some path ->
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv =
    Array.of_list
      ((dcn :: "serve" :: topo_args)
      @ args @ [ "--jobs"; string_of_int jobs ])
  in
  let pid = Unix.create_process dcn argv in_fd out_fd err_fd in
  Unix.close in_fd;
  Unix.close out_fd;
  if err <> None then Unix.close err_fd;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, st -> fail "stdin serve died with %s" (status_to_string st));
  let lines = event_lines out_path in
  Sys.remove out_path;
  lines

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* --------------------------- socket mode -------------------------- *)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let send_line fd line =
  let bytes = Bytes.of_string (line ^ "\n") in
  let n = Unix.write fd bytes 0 (Bytes.length bytes) in
  if n <> Bytes.length bytes then fail "short write to the server socket"

let recv_line fd =
  let buf = Buffer.create 256 in
  let byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> fail "server closed the connection mid-reply"
    | _ ->
      if Bytes.get byte 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get byte 0);
        go ()
      end
  in
  go ()

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n = Unix.write fd bytes off len in
    write_all fd bytes (off + n) (len - n)
  end

let wait_for_socket sock =
  let rec go n =
    if Sys.file_exists sock then ()
    else if n = 0 then fail "server never bound %s" sock
    else begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go 100

let () =
  let dcn, events =
    match Sys.argv with
    | [| _; dcn; events |] -> (dcn, events)
    | _ ->
      prerr_endline "usage: check_durable.exe DCN_BINARY EVENTS_FILE";
      exit 2
  in
  let lines = event_lines events in
  let n = List.length lines in
  if n < 100 then fail "%s: %d event(s), the gate wants >= 100" events n;

  (* Reference stream: stdin mode, sequential. *)
  let reference = run_stdin ~dcn ~events ~jobs:1 () in
  if List.length reference <> n then
    fail "stdin serve answered %d line(s) for %d events"
      (List.length reference) n;

  (* Socket server: WAL'd, parallel. *)
  let scratch =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dcn-check-durable-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  rm_rf scratch;
  Unix.mkdir scratch 0o755;
  let sock = Filename.concat scratch "serve.sock" in
  let wal_dir = Filename.concat scratch "wal" in
  let argv =
    Array.of_list
      ((dcn :: "serve" :: topo_args)
      @ [ "--socket"; sock; "--wal"; wal_dir; "--jobs"; "2" ])
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let server = Unix.create_process dcn argv Unix.stdin null Unix.stderr in
  Unix.close null;
  wait_for_socket sock;

  (* 1: the full corpus, lock-step, must match the stdin stream. *)
  let client = connect sock in
  List.iteri
    (fun i line ->
      send_line client line;
      let reply = recv_line client in
      let want = strip_uptime (List.nth reference i) in
      let got = strip_uptime reply in
      if got <> want then
        fail "socket outcome %d diverges from stdin mode:\n  stdin:  %s\n  socket: %s"
          (i + 1) want got)
    lines;

  (* 2: a client dying mid-line must not take the server down. *)
  let doomed = connect sock in
  let fragment = Bytes.of_string {|{"event":"adva|} in
  ignore (Unix.write doomed fragment 0 (Bytes.length fragment));
  Unix.close doomed;

  (* The first client still gets served after the crash next door; the
     malformed-line path answers with a positioned error reply. *)
  send_line client {|{"event":"advance","to":|};
  (match Json.of_string (recv_line client) with
  | Json.Obj fields
    when List.assoc_opt "error" fields = Some (Json.Str "parse") ->
    if not (List.mem_assoc "line" fields && List.mem_assoc "offset" fields)
    then fail "parse-error reply lacks its position fields"
  | _ -> fail "malformed line did not earn a parse-error reply");
  send_line client {|{"event":"advance","to":99}|};
  (match Json.of_string (recv_line client) with
  | Json.Obj fields when List.mem_assoc "outcome" fields -> ()
  | json ->
    fail "server unresponsive after a mid-line disconnect: %s"
      (Json.to_string json));
  Unix.close client;

  (* 2b: a client that submits a valid event and vanishes without
     reading its reply costs the server an EPIPE, which must be a typed
     disconnect — not a SIGPIPE death. *)
  let ghost = connect sock in
  send_line ghost {|{"event":"advance","to":100}|};
  Unix.close ghost;
  let probe = connect sock in
  send_line probe {|{"event":"advance","to":101}|};
  (match Json.of_string (recv_line probe) with
  | Json.Obj fields when List.mem_assoc "outcome" fields -> ()
  | json ->
    fail "server unresponsive after a reply to a dead client: %s"
      (Json.to_string json));
  Unix.close probe;

  (* 3: graceful drain — exit 0 and a final checkpoint covering every
     committed event (n corpus + the three probes above). *)
  Unix.kill server Sys.sigterm;
  (match Unix.waitpid [] server with
  | _, Unix.WEXITED 0 -> ()
  | _, st -> fail "SIGTERM drain ended with %s, expected exit 0"
               (status_to_string st));
  let checkpoint = Filename.concat wal_dir "checkpoint.json" in
  if not (Sys.file_exists checkpoint) then
    fail "no final checkpoint after the drain";
  (match Json.member "seq" (Json.of_string (read_file checkpoint)) with
  | Some (Json.Int seq) when seq = n + 3 -> ()
  | Some (Json.Int seq) ->
    fail "final checkpoint at seq %d, expected %d" seq (n + 3)
  | _ -> fail "final checkpoint carries no seq");

  (* 4: the whole corpus in one write.  The server applies what each
     read hands it as one batch; the replies must still match stdin
     mode one for one.  The queue holds the whole corpus, so nothing is
     shed. *)
  let sock = Filename.concat scratch "pipelined.sock" in
  let report = Filename.concat scratch "pipelined-report.json" in
  let argv =
    Array.of_list
      ((dcn :: "serve" :: topo_args)
      @ [ "--socket"; sock; "--wal"; Filename.concat scratch "wal-pipelined";
          "--queue"; string_of_int n; "--report"; report; "--jobs"; "2" ])
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let server = Unix.create_process dcn argv Unix.stdin null Unix.stderr in
  Unix.close null;
  wait_for_socket sock;
  let client = connect sock in
  let burst =
    Bytes.of_string (String.concat "" (List.map (fun l -> l ^ "\n") lines))
  in
  write_all client burst 0 (Bytes.length burst);
  List.iteri
    (fun i want ->
      let got = strip_uptime (recv_line client) in
      if got <> strip_uptime want then
        fail
          "pipelined outcome %d diverges from stdin mode:\n\
          \  stdin:  %s\n\
          \  socket: %s"
          (i + 1) (strip_uptime want) got)
    reference;
  Unix.close client;
  Unix.kill server Sys.sigterm;
  (match Unix.waitpid [] server with
  | _, Unix.WEXITED 0 -> ()
  | _, st -> fail "pipelined server drain ended with %s, expected exit 0"
               (status_to_string st));
  let transport =
    match Json.member "transport" (Json.of_string (read_file report)) with
    | Some t -> t
    | None -> fail "%s: no transport section" report
  in
  let count key =
    match Json.member key transport with
    | Some (Json.Int v) -> v
    | _ -> fail "%s: transport.%s is not an integer" report key
  in
  let events = count "events" and batches = count "batches" in
  if events <> n then
    fail "pipelined server applied %d event(s), expected %d" events n;
  if batches < 1 || batches >= events then
    fail "pipelined server applied %d events in %d batch(es): no group commit"
      events batches;

  (* 5: stdin with a WAL, in two runs on one store directory.  The
     first run serves the first [half] events with a malformed line
     after event [bad]; the second recovers from the first's final
     checkpoint and serves the rest.  Reply seq numbers are the durable
     sequence (the skipped line takes none, the recovery continues it),
     so the two runs together must match the plain stdin stream; stderr
     still names the malformed line by its line number. *)
  let half = n / 2 and bad = n / 4 in
  let first = List.filteri (fun i _ -> i < half) lines
  and second = List.filteri (fun i _ -> i >= half) lines in
  let part name ls =
    let path = Filename.concat scratch name in
    write_file path (String.concat "" (List.map (fun l -> l ^ "\n") ls));
    path
  in
  let malformed = {|{"event":"advance","to":|} in
  let first =
    part "first.events"
      (List.filteri (fun i _ -> i < bad) first
      @ (malformed :: List.filteri (fun i _ -> i >= bad) first))
  and second = part "second.events" second in
  let serve_wal events =
    let err = Filename.concat scratch "stdin-wal.err" in
    let args = [ "--wal"; Filename.concat scratch "wal-stdin" ] in
    let replies = run_stdin ~args ~err ~dcn ~events ~jobs:2 () in
    (replies, read_file err)
  in
  let replies_first, err_first = serve_wal first in
  let replies_second, err_second = serve_wal second in
  let replies = replies_first @ replies_second in
  if List.length replies <> n then
    fail "stdin --wal answered %d line(s) for %d events" (List.length replies)
      n;
  List.iteri
    (fun i (want, got) ->
      (match Json.member "seq" (Json.of_string got) with
      | Some (Json.Int seq) when seq = i + 1 -> ()
      | _ ->
        fail "stdin --wal reply %d does not carry seq %d: %s" (i + 1) (i + 1)
          got);
      if strip_uptime got <> strip_uptime want then
        fail
          "stdin --wal outcome %d diverges from plain stdin:\n\
          \  stdin:  %s\n\
          \  --wal:  %s"
          (i + 1) (strip_uptime want) (strip_uptime got))
    (List.combine reference replies);
  if not (contains err_first (Printf.sprintf "line %d" (bad + 1))) then
    fail "stdin --wal stderr does not name the malformed line %d" (bad + 1);
  if not (contains err_second "recovered") then
    fail "the second stdin --wal run did not recover the first one's store";
  rm_rf scratch;
  Printf.printf
    "check-durable: socket stream matches stdin (%d events, --jobs 2 vs 1), \
     mid-line disconnect and reply-to-dead-client survived, SIGTERM drained \
     cleanly, pipelined corpus matched in %d batch(es), stdin --wal replies \
     carry the durable seq across a malformed line and a recovery\n"
    n batches
