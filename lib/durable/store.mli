(** A crash-safe serving session: {!Dcn_serve.Session} behind a
    write-ahead log and periodic checkpoints.

    Layout of a store directory:

    {v
      <dir>/wal.log          current WAL segment (Wal); rotated — reset
                             to empty — at every checkpoint, so it holds
                             only records past the checkpoint and stays
                             bounded by [checkpoint_every]
      <dir>/checkpoint.json  latest checkpoint (Checkpoint)
    v}

    {b Write-ahead invariant.}  {!apply_batch} appends the whole batch
    to the WAL with one [fsync], and that [fsync] precedes the
    [Session.apply] of every event in the batch.  A crash at
    any byte boundary therefore loses at most an uncommitted suffix of
    the log, never a committed event; because a session is a pure
    function of [(seed, policy, event sequence)], replaying the
    recovered log reproduces the committed state {e bit-identically} —
    at-least-once redelivery is exact, not merely idempotent.

    {b Recovery} ({!open_}) = latest valid checkpoint + WAL tail:
    restore the checkpointed session if one loads cleanly (fall back to
    a fresh session and a full replay when it is absent or corrupt),
    truncate any torn WAL tail detected by checksum, then replay every
    record past the checkpoint's sequence number.  Two inconsistencies
    cannot be repaired and are refused as errors: a WAL segment
    beginning {e past} what the checkpoint covers (the rotated-away
    history cannot be replayed and the checkpoint cannot stand in for
    it — e.g. a deleted or corrupted checkpoint next to a rotated
    log), and a non-empty segment ending {e before} the checkpoint
    (synced log bytes lost).  Nor can a checkpoint that is corrupt or
    does not restore (a state of an older format, say) next to a
    segment that does not begin at seq 1, the empty segment a clean
    shutdown leaves included: a fresh session there would silently
    drop every committed event. *)

type t

type recovery = {
  recovered : bool;  (** the directory held prior state *)
  checkpoint_seq : int;  (** 0 when no checkpoint was used *)
  checkpoint_invalid : string option;
      (** a checkpoint existed but failed validation; full replay used *)
  replayed : int;  (** WAL records replayed past the checkpoint *)
  tear : Wal.tear option;  (** torn tail truncated during recovery *)
}

val recovery_to_json : recovery -> Dcn_engine.Json.t

val open_ :
  ?pool:Dcn_engine.Pool.t ->
  dir:string ->
  checkpoint_every:int ->
  graph:Dcn_topology.Graph.t ->
  power:Dcn_power.Model.t ->
  policy:Dcn_resilience.Repair.policy ->
  seed:int ->
  unit ->
  (t * recovery, string) result
(** Open (creating the directory if needed) and recover.  The session
    parameters must match the ones the store was created with — the
    checkpoint fingerprint is checked by [Session.restore], and a WAL
    replayed under different parameters would diverge silently, so a
    fingerprint mismatch surfaces as an [Error].  [checkpoint_every]
    checkpoints every N committed events (>= 1); the final state is
    also checkpointed by {!close}.  Counts [serve.recoveries] and
    [serve.replayed_events]. *)

val session : t -> Dcn_serve.Session.t
val seq : t -> int
(** Sequence number of the last committed event (0 = none yet). *)

val apply_batch :
  t ->
  Dcn_serve.Event.t list ->
  (seq:int -> Dcn_serve.Event.t -> Dcn_serve.Session.outcome -> unit) ->
  unit
(** [apply_batch t events f] logs every event with one WAL write and
    one [fsync] ({!Wal.append_batch}), then applies them in order,
    calling [f ~seq event outcome] as soon as each one is applied — so
    the first answer waits for one [fsync], not for the whole batch.
    Outcomes and [seq] numbers are exactly those of applying the events
    one at a time.  The checkpoint due-check runs once, after the
    batch: a checkpoint inside it would rotate away records that are
    logged but not yet applied.  If [f] or [Session.apply] raises, the
    rest of the batch stays logged but unapplied; only {!close} may
    follow.
    @raise Unix.Unix_error/[Failure] only on I/O failure of the log
    itself — scheduling outcomes, including rejections, are values. *)

val apply : t -> Dcn_serve.Event.t -> Dcn_serve.Session.outcome
(** The batch of one: WAL-append + fsync, then [Session.apply], then a
    checkpoint if due. *)

val close : t -> unit
(** Final checkpoint + close the WAL.  The store must not be used
    afterwards. *)
