(** Versioned, length-prefixed binary framing.

    Layout: magic(4) ‖ version(1) ‖ kind(1) ‖ flags(2) ‖ body_len(4) ‖
    crc32(4) ‖ body. Decoders are strict and total: truncation, trailing
    garbage, bad checksums, unknown kinds, oversized bodies and non-zero
    flags all yield [None]; arbitrary bytes never raise. *)

val magic : int
val version : int
val header_bytes : int

val max_body : int
(** Hard ceiling on body size; larger length prefixes are rejected before
    any allocation. *)

(** {2 Registered message kinds} *)

val kind_hello : int
val kind_join : int
val kind_peers : int
val kind_group_assign : int
val kind_barrier : int
val kind_abort : int
val kind_shutdown : int
val kind_ack : int
val kind_submissions : int
val kind_trap_commitments : int
val kind_published : int
val kind_failed : int
val kind_retransmit : int
val kind_stats_request : int
val kind_stats_reply : int
val kind_group_key : int
val kind_batch : int
val kind_shuffle_step : int
val kind_reenc_step : int
val kind_exit_batch : int
val kind_submit : int
val kind_submit_ack : int
val kind_epoch_info : int
val kind_bulletin_announce : int

val kind_names : (int * string) list
(** Every registered kind with its display name (exhaustive — property
    tests iterate this to cover all kinds). *)

val kind_name : int -> string

(** {2 Framing} *)

val encode : kind:int -> string -> string
(** @raise Invalid_argument on unregistered kinds or oversized bodies
    (programming errors, not wire input). *)

type header = { kind : int; body_len : int; crc : int }

val read_header : string -> header option
(** Validate the fixed 16-byte prefix (streaming receive path). *)

val decode : string -> (int * string) option
(** Strict whole-frame decode: [(kind, body)]. *)

val kind_of : string -> int option
