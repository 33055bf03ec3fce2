(** CRC-32 (the IEEE 802.3 / zlib polynomial, reflected, init and
    xor-out [0xFFFFFFFF]) — the per-record checksum of the write-ahead
    log and the checkpoint envelope.

    Chosen over a hand-rolled sum because torn WAL tails are exactly
    the adversary a CRC is designed for (bit flips, truncated bytes),
    and because the zlib convention means fixtures can be cross-checked
    with any external tool ([python3 -c "import binascii; ..."],
    [cksum -o 3], zlib itself). *)

val string : string -> int32
(** CRC-32 of all bytes of the string. *)

val substring : string -> pos:int -> len:int -> int32
(** CRC-32 of the bytes [pos .. pos + len - 1].
    @raise Invalid_argument when the range is outside the string. *)

val to_hex : int32 -> string
(** Eight lowercase hex digits, zero-padded — the WAL's wire form. *)

val of_hex : string -> int32 option
(** Inverse of {!to_hex}; [None] unless exactly eight hex digits. *)
