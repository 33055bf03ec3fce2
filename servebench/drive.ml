(* The load generator: one single-threaded client on one connection.

   Set-up spawns the server and runs the workload's warm phase
   closed-loop, which brings the committed set into its band.  The timed phase
   then runs closed-loop (send, wait for the reply, repeat) or open-loop
   (seeded Poisson bursts, pipelined, each reply timed from the moment
   its event was due). *)

module Json = Dcn_engine.Json
module Event = Dcn_serve.Event

let now = Wire.now

type live = {
  server : Wire.server;
  conn : Wire.conn;
  gen : Workload.gen;
  warm_events : Event.t list;  (** delivered, in order *)
  warm_replies : string list;
  setup_s : float;
}

type timed = {
  events : Event.t array;
  lines : string array;  (** the exact event lines sent *)
  replies : string array;
  latency_ms : float array;  (** per event, from send (or due) time to reply *)
  lag_ms : float array;  (** open loop: how late each send was *)
  done_s : float array;  (** per event, when its reply arrived, from the phase start *)
}

let line_of event = Json.to_string (Event.to_json event)

let exchange conn line =
  Wire.send conn line;
  Wire.recv conn

let setup ~dcn ~dir ~(spec : Workload.t) ~seed ?trace () =
  let t0 = now () in
  let server = Wire.spawn ~dcn ~dir ~spec ~seed ?trace () in
  match
    let conn = Wire.connect server in
    let gen = Workload.create spec ~graph:(Replay.fabric ()) ~seed in
    let events = ref [] and replies = ref [] in
    let count = ref 0 in
    while !count < spec.warm_events do
      let e = Workload.next gen in
      let reply = exchange conn (line_of e) in
      Workload.observe gen e (Json.of_string reply);
      events := e :: !events;
      replies := reply :: !replies;
      incr count
    done;
    {
      server;
      conn;
      gen;
      warm_events = List.rev !events;
      warm_replies = List.rev !replies;
      setup_s = now () -. t0;
    }
  with
  | live -> live
  | exception e ->
    Wire.kill server;
    raise e

let closed_loop live ~seconds ~max_events =
  let events = ref [] and lines = ref [] and replies = ref [] in
  let lat = ref [] and done_s = ref [] in
  let count = ref 0 in
  let t0 = now () in
  while now () -. t0 < seconds && !count < max_events do
    let e = Workload.next live.gen in
    let line = line_of e in
    let sent = now () in
    let reply = exchange live.conn line in
    let at = now () in
    Workload.observe live.gen e (Json.of_string reply);
    events := e :: !events;
    lines := line :: !lines;
    replies := reply :: !replies;
    lat := (1e3 *. (at -. sent)) :: !lat;
    done_s := (at -. t0) :: !done_s;
    incr count
  done;
  let arr l = Array.of_list (List.rev l) in
  {
    events = arr !events;
    lines = arr !lines;
    replies = arr !replies;
    latency_ms = arr !lat;
    lag_ms = [||];
    done_s = arr !done_s;
  }

(* Burst times over [seconds]: [bursts] gaps, each a dead time of half
   the mean gap plus an exponential part (a Poisson process with dead
   time), the exponential parts scaled so the gaps fill the phase
   exactly.  Every run thus offers exactly its nominal rate, and one
   burst is normally answered before the next is due, so the tail
   measures the per-event path rather than how often bursts happened to
   collide. *)
let burst_times rng ~bursts ~seconds =
  let dead = 0.5 *. seconds /. float_of_int bursts in
  let exp = Array.init bursts (fun _ -> -.Float.log (1. -. Dcn_util.Prng.float rng 1.)) in
  let scale = (seconds -. (dead *. float_of_int bursts)) /. Array.fold_left ( +. ) 0. exp in
  let t = ref 0. in
  Array.map
    (fun e ->
      let at = !t in
      t := at +. dead +. (scale *. e);
      at)
    exp

(* The whole schedule and every line are built before the clock starts,
   so the send loop does nothing but write, read and timestamp.  Every
   event of a burst is due at the burst's time. *)
let open_loop live ~rate ~burst ~seed ~seconds ~max_events =
  let rng = Dcn_util.Prng.create (seed lxor 0x5eed) in
  let bursts =
    max 1 (min (max_events / burst) (int_of_float (rate *. seconds) / burst))
  in
  let times = burst_times rng ~bursts ~seconds in
  let due = Array.concat (Array.to_list (Array.map (Array.make burst) times)) in
  let n = Array.length due in
  let events = Array.init n (fun _ -> Workload.next live.gen) in
  let lines = Array.map line_of events in
  let replies = Array.make n "" in
  let latency_ms = Array.make n 0. and lag_ms = Array.make n 0. in
  let done_s = Array.make n 0. in
  let next = ref 0 and got = ref 0 in
  let t0 = now () in
  let last = ref t0 in
  while !got < n do
    let t = now () -. t0 in
    if !next < n && t >= due.(!next) then begin
      lag_ms.(!next) <- 1e3 *. (t -. due.(!next));
      Wire.send live.conn lines.(!next);
      incr next
    end
    else begin
      let timeout = if !next < n then due.(!next) -. t else 30. in
      match Wire.poll live.conn ~timeout with
      | [] ->
        if !next >= n && now () -. !last > 30. then
          failwith "replies stopped arriving"
      | ls ->
        let at = now () in
        last := at;
        List.iter
          (fun reply ->
            replies.(!got) <- reply;
            latency_ms.(!got) <- 1e3 *. (at -. (t0 +. due.(!got)));
            done_s.(!got) <- at -. t0;
            incr got)
          ls
    end
  done;
  { events; lines; replies; latency_ms; lag_ms; done_s }

let timed_phase live ~(spec : Workload.t) ~seed ~seconds ~max_events =
  match spec.loop with
  | Workload.Closed -> closed_loop live ~seconds ~max_events
  | Workload.Open { rate; burst } ->
    open_loop live ~rate ~burst ~seed ~seconds ~max_events

(* Close the connection and drain the server; [Error] unless it exits 0. *)
let finish live =
  Wire.close live.conn;
  Wire.stop live.server
