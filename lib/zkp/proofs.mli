(** Sigma-protocol NIZKs (Fiat–Shamir): the paper's EncProof and ReEncProof.

    [Enc_proof] is the Appendix-A Schnorr proof of plaintext knowledge with
    the entry-group id bound into the challenge (anti-replay, §3);
    [Dleq] is the Chaum–Pedersen discrete-log-equality proof [20];
    [Reenc_proof] composes two DLEQs into verifiable
    decrypt-and-reencrypt. All proof objects have byte codecs whose
    decoders validate every group element. *)

module Make
    (G : Atom_group.Group_intf.GROUP)
    (El : module type of Atom_elgamal.Elgamal.Make (G)) : sig
  module Enc_proof : sig
    type t = { a : G.t; u : G.Scalar.t }

    val prove :
      Atom_util.Rng.t -> pk:G.t -> context:string -> El.cipher -> randomness:G.Scalar.t -> t
    (** Prove knowledge of the encryption randomness; [context] binds the
        proof to the entry group. *)

    type claim = { pk : G.t; context : string; ct : El.cipher; proof : t }
    (** [proof] proves knowledge of [ct]'s randomness under [pk] and
        [context]. *)

    val verify_batch : ?pool:Atom_exec.Pool.t -> claim array -> bool
    (** Every claim's proof, checked as one weighted multi-exponentiation
        ({!Batch_verify}): [true] iff every proof verifies, except with
        probability 2^-128. The challenges are hashed on the caller and
        the MSM is the one pooled job. [true] on the empty batch. *)

    val verify : pk:G.t -> context:string -> El.cipher -> t -> bool
    (** {!verify_batch} of one claim. *)

    val to_bytes : t -> string
    val of_bytes : string -> t option

    val enc_vec_with_proof :
      ?pool:Atom_exec.Pool.t -> Atom_util.Rng.t -> pk:G.t -> context:string -> G.t array ->
      El.vec * t array
    (** [El.enc_vec] then a {!prove} per component, the same bytes from
        the same draws, with every exponentiation in one {!G.pow_many}. *)

    val verify_vec : pk:G.t -> context:string -> El.vec -> t array -> bool
    (** One proof per component, as one batch; false on a length
        mismatch. *)
  end

  module Dleq : sig
    type t = { a1 : G.t; a2 : G.t; u : G.Scalar.t }

    val prove :
      Atom_util.Rng.t -> context:string -> g1:G.t -> h1:G.t -> g2:G.t -> h2:G.t ->
      x:G.Scalar.t -> t
    (** Prove log_{g1} h1 = log_{g2} h2 = x. *)

    val verify : context:string -> g1:G.t -> h1:G.t -> g2:G.t -> h2:G.t -> t -> bool
    (** Both legs as one weighted multi-exponentiation. *)

    val to_bytes : t -> string
    val of_bytes : string -> t option
  end

  module Reenc_proof : sig
    type t = { stripped : G.t; strip_proof : Dleq.t; rerand_proof : Dleq.t option }

    val reenc_with_proof :
      Atom_util.Rng.t -> share:G.Scalar.t -> ?coeff:G.Scalar.t -> next_pk:G.t option ->
      context:string -> El.cipher -> El.cipher * t
    (** Perform one server's ReEnc step and prove it: one DLEQ for the
        stripped factor D = Y^{x_eff} against the server's effective public
        share, one DLEQ for the fresh rerandomization (absent at the exit
        layer). *)

    val verify :
      eff_pk:G.t -> next_pk:G.t option -> context:string -> input:El.cipher ->
      output:El.cipher -> t -> bool

    val to_bytes : t -> string
    val of_bytes : string -> t option

    val reenc_batch_with_proof :
      ?pool:Atom_exec.Pool.t -> Atom_util.Rng.t -> share:G.Scalar.t -> ?coeff:G.Scalar.t ->
      next_pk:G.t option -> context:string -> El.vec array -> El.vec array * t array array
    (** One proven ReEnc step over a batch of vectors, with all its
        exponentiations in one {!G.pow_many}. All randomness is drawn on
        the caller first, in {!reenc_with_proof}'s order component by
        component, so the ciphertexts and proofs are the same bytes for
        every pool size and the same as per-component {!reenc_with_proof}
        calls. *)

    val reenc_vec_with_proof :
      Atom_util.Rng.t -> share:G.Scalar.t -> ?coeff:G.Scalar.t -> next_pk:G.t option ->
      context:string -> El.vec -> El.vec * t array
    (** {!reenc_batch_with_proof} of one vector. *)

    val verify_batch :
      ?pool:Atom_exec.Pool.t -> eff_pk:G.t -> next_pk:G.t option -> context:string ->
      input:El.vec array -> output:El.vec array -> t array array -> bool
    (** Check a batch's proofs, one per component. The structural rules
        (Y carried unchanged; a rerandomization proof exactly when
        [next_pk] is given; at the exit layer c' = c/D and R' = R) are
        checked directly, and every DLEQ leg of every component joins one
        weighted multi-exponentiation. False on any shape mismatch. *)

    val verify_vec :
      eff_pk:G.t -> next_pk:G.t option -> context:string -> input:El.vec -> output:El.vec ->
      t array -> bool
    (** {!verify_batch} of one vector. *)
  end
end
