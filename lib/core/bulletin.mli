(** Public bulletin board — the microblogging application (§5), plus the
    submission plane's sealed-and-signed per-epoch output. *)

type t

val create : unit -> t
val publish_round : t -> round:int -> string list -> unit
val read_round : t -> round:int -> string list
val read_all : t -> (int * string) list
val size : t -> int

(** {2 Sealed per-epoch output} *)

type sealed = {
  epoch : int;
  posts : string array;  (** Canonical order: sorted, deduplicated. *)
  digest : string;  (** 32-byte SHA-256 binding epoch + posts. *)
}

val seal : epoch:int -> string list -> sealed
(** Canonicalize (sort, collapse duplicates) and digest an epoch's
    plaintexts. Deterministic in the multiset of posts — exit arrival
    order never changes the sealed output. *)

val sealed_consistent : sealed -> bool
(** The posts are in canonical order and hash to [digest]. *)

val publish_sealed : t -> sealed -> unit
(** Append a sealed epoch to the board under [round = epoch]. *)

(** Schnorr signatures over the sealed digest, parametric over the group
    backend like the rest of the crypto. Deterministic nonces: signing
    the same seal twice yields byte-identical signatures. *)
module Signer (G : Atom_group.Group_intf.GROUP) : sig
  type sk = G.Scalar.t
  type pk = G.t

  val keypair : seed:int -> sk * pk
  (** Deterministic publisher keypair for the harness (a deployment would
      run the DKG used for group keys). *)

  val sign : sk:sk -> string -> string
  val verify : pk:pk -> msg:string -> string -> bool
  val sign_sealed : sk:sk -> sealed -> string

  val verify_sealed : pk:pk -> sealed -> signature:string -> bool
  (** [sealed_consistent] plus a valid signature over the digest. *)
end
