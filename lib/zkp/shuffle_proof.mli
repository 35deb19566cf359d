(** Verifiable shuffle of ElGamal vector ciphertexts — a
    commitment-consistent proof of shuffle in the Terelius–Wikström style
    (playing the role of Neff's shuffle [59] in the paper; see DESIGN.md).

    Proves that [output] is a rerandomized permutation of [input] under the
    group key, without revealing the permutation: Pedersen commitments to
    the permutation over hash-derived generators, a product-chain pinning
    Π u' = Π u, and one shared sigma challenge tying the committed
    exponents to both ciphertext components of every column. *)

module Make
    (G : Atom_group.Group_intf.GROUP)
    (El : module type of Atom_elgamal.Elgamal.Make (G)) : sig
  type t

  val prove :
    ?pool:Atom_exec.Pool.t ->
    Atom_util.Rng.t ->
    pk:G.t ->
    context:string ->
    input:El.vec array ->
    output:El.vec array ->
    witness:El.vec_shuffle_witness ->
    t
  (** @raise Invalid_argument on empty or ragged input. Randomness is
      drawn sequentially before any pooled region, so the proof bytes do
      not depend on [?pool]. The group work is two pooled jobs, one on
      each side of the challenges u. *)

  val verify :
    ?pool:Atom_exec.Pool.t ->
    pk:G.t ->
    context:string ->
    input:El.vec array ->
    output:El.vec array ->
    t ->
    bool
  (** The verifier folds every relation into one big multi-exponentiation;
      [?pool] parallelizes it (the verdict is identical for any pool). *)

  val chain_exponents :
    shat:G.Scalar.t array -> uprime:G.Scalar.t array -> w_hat:G.Scalar.t array ->
    w_prime:G.Scalar.t array -> (G.Scalar.t * G.Scalar.t) array
  (** The exponents over (g, h) of the prover's chain
      ĉ_i = g^{ŝ_i}·ĉ_{i-1}^{u'_i} (ĉ_{-1} = h), then of its announcements
      t̂_i = g^{ŵ_i}·ĉ_{i-1}^{w'_i}, in closed form. *)

  val to_bytes : t -> string

  val of_bytes : string -> t option
  (** Decodes with full element validation; [None] on any malformed,
      truncated, or trailing input. *)
end
