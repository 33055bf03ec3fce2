(** A minimal JSON tree, emitter and parser — no external dependency.

    The machine-readable surface of the engine: {!Trace.to_json},
    [Dcn_obs.Stage.to_json], [Dcn_core.Serialize.solution_to_json] and
    the CLI's [--report] files all build values of this type and print
    them with {!to_string}.  The parser exists so tests (and the [check-json]
    alias) can validate emitted reports without a third-party library.

    Floats are emitted with full [%.17g] precision so numbers
    round-trip bit-exactly.  JSON has no literal for non-finite
    numbers; [inf], [-inf] and [nan] are emitted as the strings
    ["inf"], ["-inf"] and ["nan"] (the same convention as the v1 text
    format of [Dcn_core.Serialize]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

type field = string * t

val float : float -> t
(** [Float x] for finite [x]; the string encoding otherwise. *)

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents with two spaces. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the compact {!to_string} of a value. *)

val float_literal : Buffer.t -> float -> unit
(** Append what {!to_string} prints for [Float x]: [%.17g] for a finite
    [x] (the same bytes as [Printf.sprintf "%.17g" x]), the quoted
    string encoding otherwise.  For writers that stream a large
    document into one buffer without building its tree. *)

type parse_error = { offset : int;  (** byte offset of the failure *) message : string }

val parse_error_to_string : parse_error -> string

val parse : string -> (t, parse_error) result
(** Strict parser for the JSON subset {!to_string} emits plus standard
    escapes and [\uXXXX] (decoded to UTF-8).  Numbers without [.], [e]
    or a leading [-0] prefix that fit an OCaml [int] parse as [Int].
    Truncated or malformed input yields a typed error carrying the byte
    offset of the failure — it never raises. *)

val of_string : string -> t
(** {!parse}, raising.
    @raise Failure with the byte offset on malformed input. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for absent fields or non-objects. *)

val get : string -> t -> t
(** Like {!member}. @raise Failure when the field is missing. *)

val to_float : t -> float
(** [Float], [Int], or the non-finite string encodings.
    @raise Failure otherwise. *)

val to_int : t -> int
(** @raise Failure unless [Int]. *)

val to_str : t -> string
(** @raise Failure unless [Str]. *)

val to_list : t -> t list
(** @raise Failure unless [List]. *)

val to_obj : t -> (string * t) list
(** @raise Failure unless [Obj]. *)
