(** The write-ahead event log of durable serving.

    One record per line, append-only:

    {v
      w1 <crc32> <seq> <event-json>\n
    v}

    where [<crc32>] is {!Crc.to_hex} of the bytes
    ["<seq> <event-json>"], [<seq>] is the 1-based position of the
    event in the session's committed sequence (consecutive within the
    file; the first record may start past 1, because the log is
    {!reset} to a fresh segment at every checkpoint), and
    [<event-json>] is the {e canonical}
    {!Dcn_serve.Event.to_json} encoding (re-serialised on append, so
    the log is byte-reproducible regardless of how clients formatted
    the event).  Every append is flushed and [fsync]'d before the
    caller may commit any event in it — the write-ahead invariant: a
    committed event is always recoverable.  A batch of records shares
    one write and one [fsync]; on disk it is indistinguishable from the
    same records appended one at a time.

    A crash can leave a {e torn tail}: a final record missing its
    newline, or with bytes garbled between write and sync.  {!scan}
    detects this with the per-record checksum and reports the longest
    valid prefix; recovery truncates the file there ({!truncate}) and
    replays the prefix.  Corruption is never an exception — a WAL is
    read after a crash, when raising would turn a survivable tear into
    an unrecoverable store. *)

type record = {
  seq : int;
  event : Dcn_serve.Event.t;
  json : string;  (** the canonical event JSON exactly as logged *)
}

type tear =
  | Partial_line  (** final record missing its newline (torn append) *)
  | Bad_header  (** malformed framing or out-of-sequence [seq] *)
  | Bad_checksum  (** record bytes do not match their CRC *)
  | Bad_event of string
      (** checksum valid but the JSON no longer parses as an event —
          only reachable if the log was edited, kept for totality *)

val tear_to_string : tear -> string

type scan = {
  records : record list;  (** the longest valid prefix, in order *)
  valid_bytes : int;  (** byte length of that prefix in the file *)
  tear : tear option;
      (** why scanning stopped before the end of the file, if it did *)
}

val scan : string -> scan
(** Scan a WAL file.  A missing file is an empty log.  Scanning stops
    at the first invalid record; everything after it is suspect (the
    crash-consistency note in DESIGN.md) and excluded from
    [valid_bytes].  Records must carry consecutive sequence numbers —
    a gap stops the scan like any other tear.  The first record may
    carry any positive [seq]: whether the segment's start is
    consistent with the checkpoint is the caller's ({!Store}'s)
    judgement, not the scanner's. *)

val truncate : string -> int -> unit
(** [truncate path valid_bytes] chops a torn tail off, after which
    {!scan} returns a clean log.  Recovery calls this before the writer
    re-opens the file for append. *)

val encode : seq:int -> Dcn_serve.Event.t -> string
(** The full record line including the trailing newline — exposed so
    tests and fixtures are built from the one authoritative encoder. *)

type writer

val open_writer : string -> writer
(** Open (creating if needed) for append.  The caller is responsible
    for scanning/truncating first; the writer never reads. *)

val append_batch : writer -> first_seq:int -> Dcn_serve.Event.t list -> unit
(** Append one record per event, numbered from [first_seq], with one
    [write] of the concatenated {!encode} lines and one [fsync] (group
    commit).  Returns only once every record is on stable storage;
    short writes and [EINTR] are retried until the whole batch is
    down.  An empty batch writes and syncs nothing.  Counts
    [serve.wal_appends] (records), [serve.wal_syncs] (batches) and
    [serve.wal_bytes]. *)

val append : writer -> seq:int -> Dcn_serve.Event.t -> unit
(** [append w ~seq e] is [append_batch w ~first_seq:seq [e]]: the
    record is exactly [encode ~seq e]. *)

val reset : writer -> unit
(** Truncate the log to an empty segment — called right after a
    checkpoint has made every logged record redundant, so a long-lived
    session's WAL stays bounded by the checkpoint interval instead of
    growing (and being re-scanned on recovery) without limit.  The
    next {!append} starts the new segment at the caller's current
    sequence number. *)

val close : writer -> unit
