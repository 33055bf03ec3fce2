(** Deterministic crash-injection campaign over the durable store —
    the harness behind [dcn crash] and the [@check-durable] gate, in
    the seeded-campaign style of {!Dcn_resilience.Fault}.

    One uninterrupted {e reference} session applies the whole event log
    and records, at every event boundary, the committed-state snapshot
    and the outcome line.  One {e durable} pass applies the same log
    through {!Store.apply_batch} in seeded batches of 1–8 events (group
    commit), capturing the WAL and checkpoint bytes before every batch.
    Each seeded kill then reconstructs the store directory exactly as a
    crash at that boundary would leave it — the kill lands on a record
    boundary inside the batch being written, so the log is the bytes
    before that batch plus its records up to the kill, optionally with
    a torn tail: the next record chopped mid-line or with a flipped
    byte — recovers with {!Store.open_}, and checks:

    - the recovered committed state is {b bit-identical} to the
      reference snapshot at that boundary (same flows, paths, coflows,
      PRNG stream, stats, fractional relaxation);
    - the recovered schedule {b re-certifies} clean under
      {!Dcn_check.Certify.schedule};
    - redelivering the next [window] events produces outcome lines
      {b byte-identical} to the reference stream (for torn kills this
      includes the event whose append was interrupted — at-least-once
      redelivery is exact);
    - torn tails are {b detected} (and repaired by truncation), never
      crashed on.

    Determinism: kill boundaries, tear kinds, chop offsets and batch
    sizes all come from pre-split {!Dcn_util.Prng} streams of the
    campaign seed, so a report is byte-identical across runs and
    [--jobs]. *)

type tear_kind =
  | Clean  (** crash exactly on a record boundary *)
  | Chop  (** next record truncated mid-line (torn write) *)
  | Flip  (** one byte of the next record flipped (bit rot) *)

type row = {
  kill : int;  (** event boundary the crash strikes after (1-based) *)
  tear : tear_kind;
  checkpoint_seq : int;  (** checkpoint the recovery started from *)
  replayed : int;  (** WAL records replayed on top of it *)
  tear_detected : bool;  (** a [Chop]/[Flip] tail was caught by checksum *)
  state_match : bool;  (** recovered snapshot = reference snapshot *)
  certified : bool;  (** recovered schedule re-certified clean *)
  window : int;  (** follow-up events redelivered *)
  outcomes_match : bool;  (** their outcome lines = reference lines *)
  ok : bool;
}

type t = {
  events : int;
  kills : int;
  seed : int;
  window : int;
  checkpoint_every : int;
  rows : row list;
  ok : bool;
}

val run :
  ?pool:Dcn_engine.Pool.t ->
  ?window:int ->
  ?checkpoint_every:int ->
  dir:string ->
  graph:Dcn_topology.Graph.t ->
  power:Dcn_power.Model.t ->
  policy:Dcn_resilience.Repair.policy ->
  seed:int ->
  kills:int ->
  Dcn_serve.Event.t list ->
  t
(** Run the campaign in scratch directory [dir] (created if missing,
    kill sub-directories removed as they are verified).  [kills] is
    clamped to the number of events; [window] (default 5) bounds the
    redelivery check — determinism makes window-equality imply
    full-suffix equality.  [checkpoint_every] defaults to 10.
    @raise Invalid_argument on an empty event list or a negative
    [window]. *)

val to_json : t -> Dcn_engine.Json.t
val pp_row : Format.formatter -> row -> unit
