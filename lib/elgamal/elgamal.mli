(** Atom's rerandomizable, out-of-order re-encryptable ElGamal (paper
    Appendix A).

    A ciphertext is a triple (R, c, Y). With Y = ⊥ it is a plain ElGamal
    ciphertext under the current group key; once a group starts
    re-encrypting, Y holds the randomness binding the ciphertext to the
    *current* group while R accumulates randomness toward the *next* group,
    which is what lets each group member strip its own key share out of
    order. Operations that NIZKs later attest to also return their secret
    witnesses. *)

module Make (G : Atom_group.Group_intf.GROUP) : sig
  type keypair = { sk : G.Scalar.t; pk : G.t }

  val keygen : Atom_util.Rng.t -> keypair

  val combine_pks : G.t list -> G.t
  (** Anytrust group key: the product of member keys (secret = sum of
      shares, never materialized). *)

  type cipher = { r : G.t; c : G.t; y : G.t option }

  val cipher_equal : cipher -> cipher -> bool
  val cipher_to_bytes : cipher -> string
  val cipher_of_bytes : string -> cipher option

  val read_cipher : Atom_util.Bin.R.t -> cipher
  (** Read one cipher in place, for decoders that embed ciphers in a
      larger layout (run under {!Atom_util.Bin.R.decode}). *)

  val enc : Atom_util.Rng.t -> G.t -> G.t -> cipher * G.Scalar.t
  (** [enc rng pk m] encrypts a group element, returning the randomness
      (the EncProof witness). *)

  val dec : G.Scalar.t -> cipher -> G.t option
  (** Full-key decryption; [None] on mid-reencryption (Y ≠ ⊥) ciphertexts. *)

  val rerandomize : Atom_util.Rng.t -> G.t -> cipher -> (cipher * G.Scalar.t) option
  (** Fresh randomness under the same key; [None] when Y ≠ ⊥. *)

  type shuffle_witness = { permutation : int array; rerands : G.Scalar.t array }

  val shuffle :
    ?pool:Atom_exec.Pool.t ->
    Atom_util.Rng.t ->
    G.t ->
    cipher array ->
    (cipher array * shuffle_witness) option
  (** Rerandomize-and-permute (the per-server piece of Algorithm 1 step 1);
      output.(i) = rerandomize(input.(permutation.(i))). Like every batch
      entry point below, takes an optional execution pool; randomness is
      always drawn sequentially on the caller, so results are identical
      for every pool size. *)

  type reenc_witness = { stripped : G.t; fresh : G.Scalar.t; shift : G.t * G.t }
  (** A component's strip factor D = Y^{x_eff}, its fresh exponent r′, and
      the factors (g^{r′}, X′^{r′}) the step multiplied into R and c/D —
      the statements of its rerandomization proof; r′ = 0 and both
      factors are the identity at the exit layer. *)

  val carried : cipher -> G.t * G.t
  (** Y and the carried R of a ReEnc input: (R, 1) on a plain ciphertext. *)

  val reenc :
    Atom_util.Rng.t ->
    share:G.Scalar.t ->
    ?coeff:G.Scalar.t ->
    next_pk:G.t option ->
    cipher ->
    cipher * reenc_witness
  (** One server's decrypt-and-reencrypt step. [coeff] is the Lagrange
      coefficient for threshold (many-trust) quorums; [next_pk = None] is
      the exit layer's X' = ⊥. *)

  val clear_y : cipher -> cipher
  (** Last server of a group: drop Y before forwarding (all of this group's
      layers are peeled). *)

  val plaintext_of_exit : cipher -> G.t
  (** After the exit layer finished stripping, the plaintext sits in [c]. *)

  (* Vector ciphertexts: one component per embedded group element. *)
  type vec = cipher array

  val reshape : 'a array array -> 'b array -> 'b array array
  (** [reshape rows xs] cuts [xs] into rows shaped like [rows]. *)

  val enc_vec_with :
    ?pool:Atom_exec.Pool.t -> ?also:(G.t * G.Scalar.t) array -> G.t -> rs:G.Scalar.t array ->
    G.t array -> vec * G.t array
  (** {!enc_vec} as a pure function of its exponents [rs], as one
      {!G.pow_many}; a prover's keyed pairs [also] ride along, and their
      results come second. *)

  val enc_vec :
    ?pool:Atom_exec.Pool.t -> Atom_util.Rng.t -> G.t -> G.t array -> vec * G.Scalar.t array

  val dec_vec : ?pool:Atom_exec.Pool.t -> G.Scalar.t -> vec -> G.t array option

  val reenc_vec :
    ?pool:Atom_exec.Pool.t ->
    Atom_util.Rng.t ->
    share:G.Scalar.t ->
    ?coeff:G.Scalar.t ->
    next_pk:G.t option ->
    vec ->
    vec * reenc_witness array
  (** {!reenc_batch} of one vector. *)

  val reenc_batch :
    ?pool:Atom_exec.Pool.t ->
    Atom_util.Rng.t ->
    share:G.Scalar.t ->
    ?coeff:G.Scalar.t ->
    next_pk:G.t option ->
    vec array ->
    vec array * reenc_witness array array
  (** One ReEnc step over a batch of vectors: the same ciphertexts and
      witnesses as {!reenc} on every component in turn with the same
      generator, computed as {!reenc_batch_with} of the fresh exponents
      drawn in that order. *)

  val reenc_batch_with :
    ?pool:Atom_exec.Pool.t ->
    ?also:(G.t * G.Scalar.t) array * (G.t * G.Scalar.t) array ->
    x_eff:G.Scalar.t ->
    next_pk:G.t option ->
    fresh:G.Scalar.t array array ->
    vec array ->
    vec array * reenc_witness array array * (G.t array * G.t array)
  (** {!reenc_batch} as a pure function of its exponents: the effective
      exponent [x_eff = coeff·share] and one fresh rerandomization
      exponent per component, shaped like the batch (ignored when
      [next_pk = None]). The strips D = Y^{x_eff} (fresh bases) and the
      factors g^{r′}, X′^{r′} (keyed) are one {!G.pow_many}, so a curve
      backend pays a constant number of inversions per step; a prover's
      keyed and fresh pairs ride along in [also], their results last. *)

  val clear_y_vec : vec -> vec

  type vec_shuffle_witness = { vperm : int array; vrerands : G.Scalar.t array array }

  val shuffle_vec :
    ?pool:Atom_exec.Pool.t ->
    Atom_util.Rng.t ->
    G.t ->
    vec array ->
    (vec array * vec_shuffle_witness) option
  (** One shared permutation across messages, independent rerandomization
      per component. *)

  val vec_to_bytes : vec -> string

  (** Hybrid IND-CCA2 encryption (ElGamal KEM + AEAD, Appendix A): the
      non-malleable inner envelope of the trap variant. *)
  module Kem : sig
    type sealed = { share : G.t; box : string }

    val nonce : string
    val enc : Atom_util.Rng.t -> G.t -> string -> sealed
    val dec : G.Scalar.t -> sealed -> string option

    val partial : G.Scalar.t -> sealed -> G.t
    (** One trustee's decryption share R^{x_i}. *)

    val dec_with_partials : G.t list -> sealed -> string option
    (** Open with every trustee's share — the all-or-nothing release of
        §4.4. *)

    val to_bytes : sealed -> string
    val of_bytes : string -> sealed option
  end
end
