(** Big-endian byte writer and strict reader, shared by every binary
    codec: wire frame bodies ([Atom_wire]), proofs, ciphertexts, KEM
    envelopes, client submissions and signatures. A decoder is a
    straight-line reader body run under {!R.decode}, the one totality
    boundary: arbitrary bytes yield [None], never an exception. *)

module W : sig
  val u8 : Buffer.t -> int -> unit
  val u16 : Buffer.t -> int -> unit
  val u32 : Buffer.t -> int -> unit

  val str32 : Buffer.t -> string -> unit
  (** u32 length ‖ bytes. *)
end

module R : sig
  type t

  val fail : unit -> 'a
  (** Reject the input: only {!decode} catches this. *)

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val bytes : t -> int -> string

  val str32 : ?max:int -> t -> string
  (** u32 length ‖ bytes; a length above [max] (default: unbounded) or
      above the bytes present is rejected. *)

  val src : t -> string
  (** The underlying buffer, for zero-copy reads via {!view} offsets. *)

  val view : t -> int -> int
  (** [view r n] consumes [n] bytes and returns their start offset in
      {!src} — the zero-copy alternative to {!bytes} for fixed-width
      fields parsed in place (group elements, big-endian naturals). *)

  val count : t -> max:int -> int
  (** u32 item count, rejected above [max] or above the bytes left: every
      counted item takes at least one byte, so a hostile count never
      drives an allocation bigger than the bytes actually present. *)

  val decode : string -> (t -> 'a) -> 'a option
  (** The totality boundary: runs a reader body over the whole string,
      catching its rejections and requiring that every byte is
      consumed. *)
end
