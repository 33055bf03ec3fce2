(* The server process and the one Unix-socket connection the load
   generator drives it over. *)

let now = Unix.gettimeofday

(* ----------------------------- server ----------------------------- *)

type server = { pid : int; dir : string; socket : string }

(* [dcn serve --socket --wal --jobs 1] with the workload's fabric and
   admission parameters; stdout and stderr go to a log in [dir]. *)
let spawn ~dcn ~dir ~(spec : Workload.t) ~seed ?trace () =
  let socket = Filename.concat dir "serve.sock" in
  let wal = Filename.concat dir "wal" in
  let args =
    [ "serve"; "--topology"; "fat-tree:4"; "--seed"; string_of_int seed;
      "--policy"; Dcn_resilience.Repair.policy_to_string spec.policy;
      "--socket"; socket; "--wal"; wal; "--jobs"; "1";
      "--queue"; "1000000"; "--idle-timeout"; "0" ]
    @ (if Float.is_finite spec.cap then [ "--cap"; Printf.sprintf "%g" spec.cap ]
       else [])
    @
    match trace with
    | None -> []
    | Some (trace, report) -> [ "--trace"; trace; "--report"; report ]
  in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close null)
      (fun () ->
        Unix.create_process dcn (Array.of_list (dcn :: args)) null log log)
  in
  { pid; dir; socket }

(* Peak resident set of the server, MiB, from /proc. *)
let peak_rss_mb server =
  let path = Printf.sprintf "/proc/%d/status" server.pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    scan ()

let rec waitpid_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid

(* SIGTERM (graceful drain), then wait up to [grace] seconds before
   SIGKILL.  [Ok ()] only for a clean exit 0. *)
let stop ?(grace = 60.) server =
  (try Unix.kill server.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. grace in
  let rec wait () =
    match waitpid_nohang server.pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] server.pid);
        Error "server did not drain within the grace period"
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED c -> Error (Printf.sprintf "server exited with status %d" c)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Error (Printf.sprintf "server killed by signal %d" s)
  in
  wait ()

let kill server =
  (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] server.pid) with Unix.Unix_error _ -> ()

let log_tail server =
  match In_channel.with_open_bin (Filename.concat server.dir "serve.log")
          In_channel.input_all with
  | s ->
    let n = String.length s in
    if n > 2000 then String.sub s (n - 2000) 2000 else s
  | exception Sys_error _ -> ""

(* --------------------------- connection --------------------------- *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (** bytes read past the last complete line *)
  chunk : Bytes.t;
}

exception Closed

(* Retry until the server has bound its socket, or fail after [timeout]
   seconds (or as soon as the server has exited). *)
let connect ?(timeout = 60.) server =
  let deadline = now () +. timeout in
  let rec attempt () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX server.socket) with
    | () -> { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match waitpid_nohang server.pid with
      | 0, _ -> ()
      | _ -> failwith ("server exited before accepting:\n" ^ log_tail server));
      if now () > deadline then failwith "server socket never accepted";
      Unix.sleepf 0.001;
      attempt ()
  in
  attempt ()

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let send conn line =
  let s = line ^ "\n" in
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring conn.fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Split complete lines off the buffer. *)
let take_lines conn =
  let data = Buffer.contents conn.buf in
  let rec split off acc =
    match String.index_from_opt data off '\n' with
    | Some nl -> split (nl + 1) (String.sub data off (nl - off) :: acc)
    | None ->
      Buffer.clear conn.buf;
      Buffer.add_substring conn.buf data off (String.length data - off);
      List.rev acc
  in
  split 0 []

let fill conn =
  match Unix.read conn.fd conn.chunk 0 (Bytes.length conn.chunk) with
  | 0 -> raise Closed
  | n -> Buffer.add_subbytes conn.buf conn.chunk 0 n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Lines readable within [timeout] seconds (possibly none). *)
let poll conn ~timeout =
  match Unix.select [ conn.fd ] [] [] (Float.max 0. timeout) with
  | [], _, _ -> []
  | _ ->
    fill conn;
    take_lines conn
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Block for exactly one reply line (closed loop: one is in flight). *)
let rec recv conn =
  match take_lines conn with
  | [ line ] -> line
  | [] ->
    fill conn;
    recv conn
  | _ -> failwith "more than one reply for one request"
