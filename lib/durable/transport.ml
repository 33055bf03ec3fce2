module Json = Dcn_engine.Json
module Event = Dcn_serve.Event
module Repair = Dcn_resilience.Repair

type disconnect =
  | Eof
  | Mid_line
  | Idle
  | Write_failed
  | Write_stalled
  | Read_failed of string

let disconnect_to_string = function
  | Eof -> "eof"
  | Mid_line -> "eof-mid-line"
  | Idle -> "idle-timeout"
  | Write_failed -> "write-failed"
  | Write_stalled -> "write-stalled"
  | Read_failed m -> Printf.sprintf "read-failed (%s)" m

type stats = {
  accepted : int;
  events : int;
  batches : int;
  replies : int;
  parse_errors : int;
  shed : int;
  disconnects : (disconnect * int) list;
  drained : bool;
}

let stats_to_json s =
  Json.Obj
    [
      ("accepted", Json.Int s.accepted);
      ("events", Json.Int s.events);
      ("batches", Json.Int s.batches);
      ("replies", Json.Int s.replies);
      ("parse_errors", Json.Int s.parse_errors);
      ("shed", Json.Int s.shed);
      ( "disconnects",
        Json.Obj
          (List.map
             (fun (d, n) -> (disconnect_to_string d, Json.Int n))
             s.disconnects) );
      ("drained", Json.Bool s.drained);
    ]

exception Stop

let obs_connections =
  Dcn_obs.Registry.counter ~help:"socket connections accepted"
    "serve.connections"

let now () = Dcn_engine.Deadline.now ()

(* One client: its (non-blocking) fd, the unterminated tail of its
   input, replies not yet accepted by its socket buffer, and the
   per-connection positions that make parse errors reportable. *)
type conn = {
  id : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  out : Buffer.t;  (** reply bytes waiting for the fd to be writable *)
  mutable line_no : int;  (** lines completed so far on this connection *)
  mutable base : int;  (** stream offset of the first buffered byte *)
  mutable last_active : float;
  mutable alive : bool;
}

(* An event parsed off a connection, waiting its turn at the session. *)
type pending_event = { conn : conn; event : Event.t }

type loop = {
  listen_fd : Unix.file_descr;
  socket : string;
  idle_timeout : float;
  mutable conns : conn list;
  queue : pending_event Pending.t;
  mutable next_conn : int;
  (* tallies *)
  mutable accepted : int;
  mutable events : int;
  mutable batches : int;
  mutable replies : int;
  mutable parse_errors : int;
  mutable shed_count : int;
  mutable disconnects : (disconnect * int) list;
}

let tally t kind =
  let n = try List.assoc kind t.disconnects with Not_found -> 0 in
  t.disconnects <- (kind, n + 1) :: List.remove_assoc kind t.disconnects

let drop t conn kind =
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c.id <> conn.id) t.conns;
    tally t kind
  end

(* A client that never reads its replies may not hold reply bytes — and
   with them the whole single-threaded loop — hostage forever: past this
   many buffered bytes it is dropped as stalled. *)
let max_out_bytes = 1 lsl 20

(* Push as much buffered output as the (non-blocking) fd will take;
   what it refuses waits for the next writable-fd round of the select
   loop.  A client that died under the write is dropped; queued events
   it already submitted still apply (they are committed work), only
   their replies go nowhere. *)
let flush_out t conn =
  if conn.alive && Buffer.length conn.out > 0 then begin
    let data = Buffer.contents conn.out in
    Buffer.clear conn.out;
    let len = String.length data in
    let off = ref 0 in
    let blocked = ref false in
    while conn.alive && (not !blocked) && !off < len do
      match Unix.write_substring conn.fd data !off (len - !off) with
      | n -> off := !off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        blocked := true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ ->
        (* EPIPE/ECONNRESET and anything else fatal: the client is gone
           (SIGPIPE itself is ignored by [serve]). *)
        drop t conn Write_failed
    done;
    if conn.alive && !off < len then begin
      Buffer.add_substring conn.out data !off (len - !off);
      if Buffer.length conn.out > max_out_bytes then drop t conn Write_stalled
    end
  end

(* A reply is one JSON line, buffered then flushed opportunistically —
   a stalled client's full socket buffer must never block the loop. *)
let reply t conn json =
  if conn.alive then begin
    Buffer.add_string conn.out (Json.to_string json);
    Buffer.add_char conn.out '\n';
    t.replies <- t.replies + 1;
    flush_out t conn
  end

let parse_error_reply ~line ~byte ~offset message =
  Json.Obj
    [
      ("error", Json.Str "parse");
      ("line", Json.Int line);
      ("byte", Json.Int byte);
      ("offset", Json.Int offset);
      ("message", Json.Str message);
    ]

let shed_reply policy event =
  Json.Obj
    [
      ("shed", Json.Bool true);
      ("policy", Json.Str (Repair.shed_policy_to_string policy));
      ("event", Json.Str (Event.kind event));
    ]

(* One complete line from [conn]: parse, then enqueue — or answer the
   parse error / shed verdict right away. *)
let handle_line t conn ~line_base line =
  conn.line_no <- conn.line_no + 1;
  if String.trim line <> "" then begin
    let bad ~byte msg =
      t.parse_errors <- t.parse_errors + 1;
      reply t conn
        (parse_error_reply ~line:conn.line_no ~byte ~offset:(line_base + byte)
           msg)
    in
    match Event.of_line line with
    | Error { offset; message } ->
      bad ~byte:(Option.value offset ~default:0) message
    | Ok event -> (
      match Pending.offer t.queue { conn; event } with
      | Pending.Enqueued -> ()
      | Pending.Shed victim ->
        t.shed_count <- t.shed_count + 1;
        reply t victim.conn (shed_reply (Pending.policy t.queue) victim.event))
  end

(* Split every complete line out of the connection buffer, keeping the
   unterminated tail (and its stream offset) for the next read. *)
let drain_buffer t conn =
  let data = Buffer.contents conn.buf in
  Buffer.clear conn.buf;
  let n = String.length data in
  let off = ref 0 in
  while
    conn.alive
    &&
    match String.index_from_opt data !off '\n' with
    | None -> false
    | Some nl ->
      let line = String.sub data !off (nl - !off) in
      let line_base = conn.base in
      conn.base <- conn.base + (nl - !off) + 1;
      off := nl + 1;
      handle_line t conn ~line_base line;
      true
  do
    ()
  done;
  if conn.alive && !off < n then
    Buffer.add_substring conn.buf data !off (n - !off)

let read_chunk = Bytes.create 4096

let handle_readable t conn =
  match Unix.read conn.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 ->
    (* EOF.  A non-empty buffer means the client died mid-line: the
       fragment is dropped (it was never committed), typed as such. *)
    drop t conn (if Buffer.length conn.buf > 0 then Mid_line else Eof)
  | n ->
    conn.last_active <- now ();
    Buffer.add_subbytes conn.buf read_chunk 0 n;
    drain_buffer t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error (e, _, _) ->
    drop t conn (Read_failed (Unix.error_message e))

let accept t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _ ->
    Unix.set_nonblock fd;
    t.accepted <- t.accepted + 1;
    Dcn_obs.Registry.incr obs_connections;
    t.next_conn <- t.next_conn + 1;
    t.conns <-
      {
        id = t.next_conn;
        fd;
        buf = Buffer.create 256;
        out = Buffer.create 256;
        line_no = 0;
        base = 0;
        last_active = now ();
        alive = true;
      }
      :: t.conns
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()

let sweep_idle t =
  if t.idle_timeout > 0. then begin
    let deadline = now () -. t.idle_timeout in
    List.iter
      (fun c -> if c.last_active < deadline then drop t c Idle)
      t.conns
  end

(* Apply every queued event as one batch; returns false when the queue
   was empty.  [apply] answers each event, in order, as soon as it is
   applied, and the reply is flushed right away.  This is the only place
   [apply] runs, so WAL order = reply order = the one global sequence. *)
let apply_batch t ~apply =
  match Pending.pop_all t.queue with
  | [] -> false
  | batch ->
    let waiting = ref batch in
    let answer json =
      match !waiting with
      | [] -> invalid_arg "Transport.serve: more replies than events"
      | { conn; _ } :: rest ->
        waiting := rest;
        t.events <- t.events + 1;
        reply t conn json
    in
    apply (List.map (fun p -> p.event) batch) answer;
    if !waiting <> [] then
      invalid_arg "Transport.serve: an event of the batch was not answered";
    t.batches <- t.batches + 1;
    true

(* Pending connections the kernel holds before [accept] takes them. *)
let listen_backlog = 8

let serve ?(idle_timeout = 30.) ?(queue_capacity = 64)
    ?(shed_policy = Repair.Shed_newest) ~socket ~drain ~apply () =
  (* A client that closes before reading its reply must surface as
     EPIPE from write(2), not as a SIGPIPE whose default disposition
     kills the whole server.  Guarded for platforms without it. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* A stale socket file from a dead server would make bind fail. *)
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd listen_backlog;
  Unix.set_nonblock listen_fd;
  let t =
    {
      listen_fd;
      socket;
      idle_timeout;
      conns = [];
      queue = Pending.create ~capacity:queue_capacity ~policy:shed_policy;
      next_conn = 0;
      accepted = 0;
      events = 0;
      batches = 0;
      replies = 0;
      parse_errors = 0;
      shed_count = 0;
      disconnects = [];
    }
  in
  let drained = ref false in
  let cleanup () =
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
    t.conns <- [];
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink t.socket with Unix.Unix_error _ -> ()
  in
  (* Give clients with undelivered replies a bounded window of
     writability rounds, then cut the stragglers loose as stalled —
     drain must terminate even against a client that never reads. *)
  let flush_pending_out ?(window = 5.) t =
    let deadline = now () +. window in
    let rec go () =
      match List.filter (fun c -> Buffer.length c.out > 0) t.conns with
      | [] -> ()
      | laggards ->
        if now () >= deadline then
          List.iter (fun c -> drop t c Write_stalled) laggards
        else begin
          let wfds = List.map (fun c -> c.fd) laggards in
          (match Unix.select [] wfds [] 0.2 with
          | _, writable, _ ->
            List.iter
              (fun c -> if List.memq c.fd writable then flush_out t c)
              laggards
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go ()
        end
    in
    go ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      while not !drained do
        if drain () then begin
          (* Graceful drain: no new connections, no new reads; finish
             the in-flight backlog so every accepted event is answered
             and its reply handed off, then let the caller checkpoint. *)
          ignore (apply_batch t ~apply);
          flush_pending_out t;
          drained := true
        end
        else begin
          (* The queue is empty here: every turn ends by applying it. *)
          let fds = t.listen_fd :: List.map (fun c -> c.fd) t.conns in
          let wfds =
            List.filter_map
              (fun c -> if Buffer.length c.out > 0 then Some c.fd else None)
              t.conns
          in
          (match Unix.select fds wfds [] 0.2 with
          | readable, writable, _ ->
            if List.memq t.listen_fd readable then accept t;
            List.iter
              (fun c -> if List.memq c.fd writable then flush_out t c)
              t.conns;
            List.iter
              (fun c -> if List.memq c.fd readable then handle_readable t c)
              t.conns
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          sweep_idle t;
          ignore (apply_batch t ~apply)
        end
      done;
      {
        accepted = t.accepted;
        events = t.events;
        batches = t.batches;
        replies = t.replies;
        parse_errors = t.parse_errors;
        shed = t.shed_count;
        disconnects =
          List.sort
            (fun (a, _) (b, _) -> compare a b)
            t.disconnects;
        drained = true;
      })
