(** Periodic checkpoints of the committed session state.

    One file, [<dir>/checkpoint.json], atomically replaced
    ({!Dcn_util.Atomic_file.write} with [fsync]) so it always holds a
    complete previous or complete new checkpoint.  The envelope is

    {v
      {"version":1, "seq":N, "crc":"<crc32>", "state":{...}}
    v}

    with [state] the bytes of a {!Dcn_serve.Session.snapshot} and
    [crc] their {!Crc}; {!load} checks the CRC over those raw bytes of
    the file, without serialising the parsed state again.  The
    envelope's version is the file layout's; the state carries its own
    (see {!Dcn_serve.Session.restore}).  A half-written or bit-rotted
    checkpoint is detected on load and recovery falls back to replaying
    the whole WAL, which is always sufficient (the log is never
    compacted past what the checkpoint covers). *)

val path : dir:string -> string

val write : dir:string -> seq:int -> string -> unit
(** Checkpoint the state bytes [body] (one compact JSON value) as of
    committed event [seq].  Durable (fsync'd temp file + rename +
    directory sync) before returning.  Updates the
    [serve.checkpoint_seq]/[serve.checkpoint_bytes] gauges. *)

type loaded =
  | Absent
  | Invalid of string
      (** unreadable, unparsable, wrong version, or checksum mismatch —
          recovery treats this as [Absent] plus a warning, never an
          error: the WAL alone can rebuild the session *)
  | Loaded of { seq : int; state : Dcn_engine.Json.t }

val load : dir:string -> loaded
