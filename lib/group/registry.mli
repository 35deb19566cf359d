(** First-class-module handles on the available group backends.

    Every backend implements the full {!Group_intf.GROUP} signature
    including the pooled multi-exponentiation fast path: [P256] with comb
    tables, Straus / Pippenger and batch affine normalization, [Zp] with
    Straus and an honest [pow_many], a pooled map of [pow]. *)

val p256 : unit -> (module Group_intf.GROUP)

val zp_test : unit -> (module Group_intf.GROUP)
(** 96-bit Schnorr group: fast, for tests and examples. *)

val zp_medium : unit -> (module Group_intf.GROUP)
(** 256-bit Schnorr group: realistic size without curve arithmetic. *)

val available : (string * (unit -> (module Group_intf.GROUP))) list
(** Name → constructor, in presentation order. *)

val by_name : string -> (module Group_intf.GROUP)
(** @raise Invalid_argument on an unknown name (listing the known ones). *)
