(** The Unix-domain-socket transport behind [dcn serve --socket]: one
    single-threaded accept/read/apply loop multiplexed with
    [Unix.select], serving the same newline-delimited JSON event
    protocol as the stdin loop — concurrently, to any number of
    clients, without threads.

    Framing and replies are {e per connection}: each client writes one
    JSON event per line and reads one JSON reply line per event, in
    order.  A malformed line earns a positioned error reply
    ([{"error":"parse","line":L,"byte":B,"offset":O,"message":...}] —
    line numbers and stream offsets are counted per connection, the
    byte offset comes from {!Dcn_serve.Event.of_line}, 0 for JSON of
    the wrong shape) and the connection
    stays up; a client that disconnects — cleanly, mid-line, or by
    dying under a write — is dropped with its typed {!disconnect}
    recorded, and never takes the session down with it.

    Parsed events flow through a bounded {!Pending} queue between the
    read phase and the apply phase; when it overflows, the configured
    {!Dcn_resilience.Repair.shed_policy} picks a victim whose client
    is answered with a typed [{"shed":...}] reply instead of the heap
    growing without bound.  Each loop turn reads what the sockets
    hold, then applies everything queued as one batch (group commit:
    with {!Store.apply_batch} behind [apply], one WAL write and one
    [fsync] for the whole batch), so a burst pays one [fsync] instead
    of one per event.  Every reply is flushed right after its own
    event is applied, not at the end of the batch.  The queue capacity
    bounds the batch, and accepts and reads resume between batches.

    The loop polls [drain] at every turn: once it returns [true] the
    listener closes, reading stops, the queued backlog is applied and
    answered, and {!serve} returns — the graceful half of SIGTERM
    handling, with the final checkpoint left to the caller. *)

type disconnect =
  | Eof  (** clean shutdown, buffer empty *)
  | Mid_line  (** EOF with an unterminated line still buffered *)
  | Idle  (** no traffic for [idle_timeout] seconds *)
  | Write_failed  (** client vanished under a reply ([EPIPE]/reset) *)
  | Write_stalled
      (** client stopped reading: its buffered replies outgrew the cap,
          or it never took its final replies during drain *)
  | Read_failed of string  (** read(2) error other than EOF *)

type stats = {
  accepted : int;  (** connections accepted over the loop's lifetime *)
  events : int;  (** events applied *)
  batches : int;  (** loop turns that applied at least one event *)
  replies : int;
      (** reply lines produced (outcomes, sheds and errors) — queued to
          the connection, though a client dropped before its buffer
          flushed may never have read the tail of them *)
  parse_errors : int;  (** malformed lines answered with an error reply *)
  shed : int;  (** events refused by the pending queue *)
  disconnects : (disconnect * int) list;  (** tally by kind *)
  drained : bool;  (** the loop exited through [drain], not [Stop] *)
}

val stats_to_json : stats -> Dcn_engine.Json.t

exception Stop
(** Raise from [apply] to abort the loop immediately (fatal condition;
    queued events and the unanswered rest of the batch are dropped).
    Prefer [drain] for an orderly exit. *)

val serve :
  ?idle_timeout:float ->
  ?queue_capacity:int ->
  ?shed_policy:Dcn_resilience.Repair.shed_policy ->
  socket:string ->
  drain:(unit -> bool) ->
  apply:(Dcn_serve.Event.t list -> (Dcn_engine.Json.t -> unit) -> unit) ->
  unit ->
  stats
(** Bind [socket] (an existing socket file is replaced), accept and
    serve until [drain] reports true, then finish the backlog and
    return.  [SIGPIPE] is set to ignore for the process (where the
    signal exists), so a client closing under a reply surfaces as a
    typed disconnect instead of killing the server.  Connection fds
    are non-blocking: replies are buffered per connection and flushed
    as the fd accepts them, so a stalled client cannot freeze the
    loop — past 1 MiB of undelivered replies (or a bounded grace
    window at drain) it is dropped as [Write_stalled].

    [apply events answer] is called once per batch with the queued
    events in arrival order.  It must call [answer] exactly once per
    event, in order, with that event's reply object, as soon as the
    event is applied — it is the only place session (or {!Store})
    state is touched, and calls are strictly sequential, so the order
    of [apply]'s events is the one global sequence (the caller stamps
    the sequence number, e.g. {!Store.seq}, into the reply).
    [idle_timeout] (default 30 s, [<= 0] disables) bounds silence per
    connection; [queue_capacity] (default 64) bounds the pending queue
    — and with it the batch — under [shed_policy] (default
    [Shed_newest]).  The socket file is unlinked on exit.
    @raise Unix.Unix_error if the socket cannot be bound.
    @raise Invalid_argument if [apply] returns without answering every
    event of its batch, or answers more events than it was given. *)
