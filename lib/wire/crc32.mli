(** CRC-32 (IEEE), used as the wire frame's body checksum. *)

val string : string -> int
(** CRC of a whole string (in [0, 0xFFFFFFFF]). *)
