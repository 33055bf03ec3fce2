(** Atomic whole-file writes via temp-file-plus-rename.

    Several surfaces rewrite a file that another process may be reading
    at the same moment — the Prometheus exposition a scraper polls, the
    run reports [dcn observe] diffs, bench baselines, and the durable
    serving checkpoint.  POSIX [rename] within one directory is atomic,
    so writing to a temporary file in the {e target's} directory and
    renaming over the destination guarantees a reader sees either the
    old bytes or the new bytes, never a torn mix.  This module is the
    single implementation all of them share. *)

val write : ?fsync:bool -> path:string -> string list -> unit
(** [write ~path parts] replaces [path] atomically with the
    concatenation of [parts], written one after the other (so a caller
    splicing a large body between a header and a trailer never copies
    it into one string).
    The temporary file is created next to [path] (a cross-device rename
    would silently lose atomicity) and removed on any failure.

    With [~fsync:true] the data is flushed to stable storage before the
    rename and the parent directory entry is flushed after it — the
    crash-consistency discipline checkpoint writers need: after a power
    cut the file holds either the previous or the new content.  The
    default ([false]) is the cheap variant for monitoring surfaces where
    losing the very last rewrite to a crash is acceptable.

    @raise Sys_error (or [Unix.Unix_error]) on I/O failure; the
    destination is untouched in that case. *)
