(** The typed events a scheduler session absorbs.

    A serving session is driven by a stream of these — one JSON object
    per line on [dcn serve]'s stdin, one list element in a replayed
    log.  The wire shapes are:

    {v
    {"event":"arrival","id":1,"src":0,"dst":4,"volume":6,"release":0,"deadline":4}
    {"event":"cancel","id":1}
    {"event":"coflow","id":7,"flows":[{"id":2,"src":0,"dst":4,"volume":6,"release":0,"deadline":4},...]}
    {"event":"coflow-cancel","id":7}
    {"event":"advance","to":2.5}
    v}

    [of_json] is total: malformed shapes and field values that
    {!Dcn_flow.Flow.make} rejects (non-positive volume, empty window,
    equal endpoints, non-finite numbers) come back as [Error] with a
    message, never an exception.  {!of_line} reads one stream line
    and keeps the byte offset of a JSON syntax error; line numbers and
    stream offsets are the reader's job (the socket transport and the
    [dcn serve]/[dcn replay] loop).

    {b Wire note (outcome direction).}  Since the telemetry release the
    per-event outcome lines [dcn serve] writes carry two extra leading
    fields stamped by the CLI layer: a monotone ["seq"] and
    ["uptime_ms"] (wall-clock, the single nondeterministic outcome
    field).  They are not part of this module — session outcomes stay
    byte-identical across [--jobs] — and [of_json] here still accepts
    exactly the three {e input} event shapes above, ignoring nothing:
    readers of the outcome stream should tell stats lines apart by
    their ["stats"] wrapper (see {!Dcn_obs.Snapshot}). *)

type t =
  | Flow_arrival of Dcn_flow.Flow.t
      (** admit this flow (subject to the session's policy) *)
  | Flow_cancel of { flow : int }  (** withdraw a committed flow *)
  | Coflow_arrival of { coflow : int; flows : Dcn_flow.Flow.t list }
      (** admit this flow {e group} all-or-nothing: either every member
          commits or the whole coflow is rejected *)
  | Coflow_cancel of { coflow : int }
      (** withdraw every member of a committed coflow *)
  | Advance_clock of { clock : float }
      (** move the session clock forward; completed flows retire *)

val kind : t -> string
(** ["arrival"], ["cancel"], ["coflow"], ["coflow-cancel"] or
    ["advance"] — the wire tag. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Dcn_engine.Json.t

val flow_to_fields : Dcn_flow.Flow.t -> (string * Dcn_engine.Json.t) list
(** A flow's wire fields, in wire order: [id], [src], [dst], [volume],
    [release], [deadline] (floats at full precision).  Shared by the
    arrival and coflow shapes and by session snapshots. *)

val flow_of_json : Dcn_engine.Json.t -> (Dcn_flow.Flow.t, string) result
(** Inverse of {!flow_to_fields} (extra fields are ignored); total like
    {!of_json}. *)

val of_json : Dcn_engine.Json.t -> (t, string) result

type line_error = {
  offset : int option;
      (** byte within the line where {!Dcn_engine.Json.parse} failed;
          [None] when the line is JSON of the wrong shape *)
  message : string;
}

val of_line : string -> (t, line_error) result
(** One line of an event stream: {!Dcn_engine.Json.parse}, then
    {!of_json}.  Total, like both. *)
