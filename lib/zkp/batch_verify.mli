(** Batch verification of group equations by random linear combination
    (the small-exponent test, Bellare–Garay–Rabin): every equation is
    raised to its own weight and the whole batch is one multi-scalar
    multiplication compared with the identity. A false equation survives
    with probability at most 2^-128 (about 1/q when the group order q is
    below 2^128), given a prime-order group whose elements were checked
    for membership on decode. *)

module Make (G : Atom_group.Group_intf.GROUP) : sig
  (** {1 The accumulator} *)

  type t
  (** A product of powers under construction. *)

  val create : shared:G.t list -> t
  (** An empty product. Exponents added on a [shared] base (matched by
      physical equality) are summed, so the base is one MSM term however
      many equations use it. *)

  val add : t -> G.t -> G.Scalar.t -> unit
  (** [add acc x k] multiplies x^k into the product. *)

  val equation :
    t -> w:G.Scalar.t -> g:G.t -> u:G.Scalar.t -> h:G.t -> c:G.Scalar.t -> a:G.t -> unit
  (** The Σ-protocol equation g^u = a·h^c with weight [w], added as
      a^w·g^{−w·u}·h^{w·c}: the commitment [a] carries the bare weight. *)

  val holds : ?pool:Atom_exec.Pool.t -> t -> bool
  (** Is the product the identity? One (pooled) {!G.msm}. *)

  val weights : Transcript.t -> int -> G.Scalar.t array
  (** [weights tr k]: k 128-bit weights (reduced mod q) expanded by
      ChaCha20 from one digest of [tr], which must already hold every
      statement, commitment and response the weights are to bind. *)

  (** {1 Batches of Σ-proofs} *)

  type claim
  (** One proof's equations g^u = a·h^t, one per leg, sharing its
      response u and challenge t. *)

  val claim : digest:string -> u:G.Scalar.t -> (G.t * G.t * G.t) array -> claim
  (** [claim ~digest ~u legs]: [digest] is the challenge transcript's
      digest (it binds the statement and the commitments; the challenge
      is [G.hash_to_scalar digest]), and each leg is (g, h, a). Pure, so
      a batch's claims can be built in a pooled job. *)

  val check : ?pool:Atom_exec.Pool.t -> shared:G.t list -> claim array -> bool
  (** Every leg of every claim as one weighted MSM, the weights bound to
      every claim's digest and response; a batch of one equation is
      checked exactly, with weight 1. [true] on the empty batch. *)
end
