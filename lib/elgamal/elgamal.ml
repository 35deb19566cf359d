(* Atom's rerandomizable ElGamal variant (paper Appendix A).

   A ciphertext is a triple (R, c, Y):
   - Y = ⊥ : a plain ElGamal ciphertext (R, c) = (g^r, m·X^r) under the
     current group key X.
   - Y ≠ ⊥ : mid-reencryption state. Y holds the randomness used to encrypt
     for the *current* group while R accumulates the randomness toward the
     *next* group, which is what lets servers decrypt "out of order": each
     group member strips its own share x_s via c ← c / Y^{x_s} while adding
     fresh randomness toward the next group's key.

   Every operation that a NIZK must later attest to also returns its secret
   witness (encryption randomness, permutation, rerandomization exponents);
   callers that do not need the witness simply drop it. *)

module Make (G : Atom_group.Group_intf.GROUP) = struct
  module Bin = Atom_util.Bin
  module Io = Atom_group.Group_intf.Bin_io (G)

  type keypair = { sk : G.Scalar.t; pk : G.t }

  let keygen (rng : Atom_util.Rng.t) : keypair =
    let sk = G.Scalar.random rng in
    { sk; pk = G.pow_gen sk }

  (* The public key of an anytrust group is the product of the members'
     public keys, so that the matching secret key is the (never materialized)
     sum of the members' secrets. Computed as a unit-scalar MSM so curve
     backends pay one affine normalization for the whole product instead of
     one per fold step. *)
  let combine_pks (pks : G.t list) : G.t =
    G.msm (Array.of_list (List.map (fun pk -> (pk, G.Scalar.one)) pks))

  type cipher = { r : G.t; c : G.t; y : G.t option }

  let cipher_equal a b =
    G.equal a.r b.r && G.equal a.c b.c
    &&
    match (a.y, b.y) with
    | None, None -> true
    | Some ya, Some yb -> G.equal ya yb
    | _ -> false

  let cipher_to_bytes (ct : cipher) : string =
    let y_part = match ct.y with None -> "\000" | Some y -> "\001" ^ G.to_bytes y in
    G.to_bytes ct.r ^ G.to_bytes ct.c ^ y_part

  (* R ‖ c ‖ flag [‖ Y], read in place by decoders that embed ciphers. *)
  let read_cipher (rd : Bin.R.t) : cipher =
    let r = Io.element rd in
    let c = Io.element rd in
    match Bin.R.u8 rd with
    | 0 -> { r; c; y = None }
    | 1 -> { r; c; y = Some (Io.element rd) }
    | _ -> Bin.R.fail ()

  let cipher_of_bytes (s : string) : cipher option = Bin.R.decode s read_cipher

  (* c ← Enc(X, m): fresh ElGamal encryption; also returns the randomness
     (the witness for EncProof). *)
  let enc (rng : Atom_util.Rng.t) (pk : G.t) (m : G.t) : cipher * G.Scalar.t =
    let r = G.Scalar.random rng in
    ({ r = G.pow_gen r; c = G.mul m (G.pow pk r); y = None }, r)

  (* Plain decryption with a full secret key; fails on mid-reencryption
     ciphertexts, as in the paper ("if Y ≠ ⊥ the algorithm fails"). *)
  let dec (sk : G.Scalar.t) (ct : cipher) : G.t option =
    match ct.y with Some _ -> None | None -> Some (G.div ct.c (G.pow ct.r sk))

  (* Rerandomize under the same key (the per-ciphertext piece of Shuffle).
     Only valid when Y = ⊥. *)
  let rerandomize (rng : Atom_util.Rng.t) (pk : G.t) (ct : cipher) : (cipher * G.Scalar.t) option =
    match ct.y with
    | Some _ -> None
    | None ->
        let r' = G.Scalar.random rng in
        Some
          ( { r = G.mul ct.r (G.pow_gen r'); c = G.mul ct.c (G.pow pk r'); y = None },
            r' )

  (* [flat]'s elements cut back into rows shaped like [rows]. *)
  let reshape (rows : 'a array array) (flat : 'b array) : 'b array array =
    let off = ref 0 in
    Array.map
      (fun row ->
        let part = Array.sub flat !off (Array.length row) in
        off := !off + Array.length row;
        part)
      rows

  let halves (a : 'a array) : 'a array * 'a array =
    let n = Array.length a / 2 in
    (Array.sub a 0 n, Array.sub a n n)

  (* (a·b, c·d) elementwise, for arrays of one length, as one
     [G.mul_batch], so both halves of a ciphertext update share a single
     inversion on curve backends. *)
  let mul_batch2 (a, c) (b, d) = halves (G.mul_batch (Array.append a c) (Array.append b d))

  (* The keyed [G.pow_many] pairs of the factors g^{r_i}, then X^{r_i}, of
     a rerandomization or an encryption. *)
  let factor_pairs (pk : G.t) (rs : G.Scalar.t array) : (G.t * G.Scalar.t) array =
    Array.append (Array.map (fun r -> (G.generator, r)) rs) (Array.map (fun r -> (pk, r)) rs)

  (* Plain ciphertexts rerandomized by the precomputed factors g^{r'} and
     X^{r'}, one batched product for the lot. *)
  let rerand_all (cts : cipher array) ~(gr : G.t array) ~(pkr : G.t array) : cipher array =
    let r, c =
      mul_batch2 (Array.map (fun ct -> ct.r) cts, Array.map (fun ct -> ct.c) cts) (gr, pkr)
    in
    Array.mapi (fun i r -> { r; c = c.(i); y = None }) r

  type shuffle_witness = { permutation : int array; rerands : G.Scalar.t array }

  type reenc_witness = {
    stripped : G.t; (* D = Y^(coeff·share) *)
    fresh : G.Scalar.t; (* r' *)
    shift : G.t * G.t; (* (g^r', X'^r'); identities at the exit layer *)
  }

  (* Y and the carried R of an input: (R, 1) on a plain ciphertext. *)
  let carried (ct : cipher) : G.t * G.t =
    match ct.y with None -> (ct.r, G.one) | Some y -> (y, ct.r)

  let flat (a : 'a array array) : 'a array = Array.concat (Array.to_list a)

  (* ReEnc(x_s, X', (R, c, Y)) over a whole step — one server's
     decrypt-and-reencrypt of every component of every unit — as a pure
     function of the effective exponent x_eff = coeff·share and the fresh
     exponents r' (shaped like [batch]; ignored at the exit layer).

     [coeff] is the Lagrange coefficient for threshold (many-trust) groups;
     [Scalar.one] for plain anytrust groups where shares are additive.
     [next_pk = None] encodes X' = ⊥ (the exit layer: strip only).

     Each component strips D = Y^{x_eff} and, toward a next group,
     multiplies in g^{r'} and X'^{r'}. Every exponentiation of the step is
     one [G.pow_many] (the strip bases fresh, g and X' keyed), which also
     computes a prover's [also] pairs; the products are c/D, one
     [G.mul_batch] over one [G.inv_batch], then R·g^{r'} and (c/D)·X'^{r'}
     as one more. *)
  let reenc_batch_with ?pool ?(also = ([||], [||])) ~(x_eff : G.Scalar.t)
      ~(next_pk : G.t option) ~(fresh : G.Scalar.t array array) (batch : cipher array array) =
    let cts = flat batch in
    let n = Array.length cts in
    let fresh = match next_pk with None -> Array.make n G.Scalar.zero | Some _ -> flat fresh in
    let keyed = match next_pk with None -> [||] | Some pk' -> factor_pairs pk' fresh in
    let strips = Array.map (fun ct -> (fst (carried ct), x_eff)) cts in
    let k, f =
      G.pow_many ?pool ~fresh:(Array.append strips (snd also)) (Array.append keyed (fst also))
    in
    let ds = Array.sub f 0 n in
    let rs = Array.map (fun ct -> snd (carried ct)) cts in
    let cs = G.mul_batch (Array.map (fun ct -> ct.c) cts) (G.inv_batch ds) in
    let (gr, pkr), (rs, cs) =
      match next_pk with
      | None -> ((Array.make n G.one, Array.make n G.one), (rs, cs))
      | Some _ ->
          let shift = (Array.sub k 0 n, Array.sub k n n) in
          (shift, mul_batch2 (rs, cs) shift)
    in
    let ys = Array.map fst strips and nk = Array.length keyed in
    ( reshape batch (Array.mapi (fun i y -> { r = rs.(i); c = cs.(i); y = Some y }) ys),
      reshape batch
        (Array.mapi (fun i d -> { stripped = d; fresh = fresh.(i); shift = (gr.(i), pkr.(i)) }) ds),
      (Array.sub k nk (Array.length k - nk), Array.sub f n (Array.length f - n)) )

  (* The last server of a group clears Y before forwarding: all of this
     group's layers have been peeled and the ciphertext is now a plain
     encryption under the next group's key. *)
  let clear_y (ct : cipher) : cipher = { ct with y = None }

  (* After the exit layer finished stripping, the plaintext sits in [c]. *)
  let plaintext_of_exit (ct : cipher) : G.t = ct.c

  (* ---- Vector ciphertexts: one component per embedded group element. ---- *)

  type vec = cipher array

  (* Batch encryption as a pure function of its exponents: the
     rerandomization of the trivial encryptions (1, m) by g^{r_i} and
     pk^{r_i}, one [G.pow_many] and one batched product. A prover's keyed
     pairs ride in [also]; their results come second. *)
  let enc_vec_with ?pool ?(also = [||]) pk ~(rs : G.Scalar.t array) (ms : G.t array) :
      vec * G.t array =
    let f, _ = G.pow_many ?pool ~fresh:[||] (Array.append (factor_pairs pk rs) also) in
    let n = Array.length ms in
    let part i len = Array.sub f (i * n) len in
    ( rerand_all (Array.map (fun c -> { r = G.one; c; y = None }) ms) ~gr:(part 0 n) ~pkr:(part 1 n),
      part 2 (Array.length also) )

  (* Randomness is drawn in the same order as the elementwise path — and
     always on the caller, before any parallel region. *)
  let enc_vec ?pool rng pk (ms : G.t array) : vec * G.Scalar.t array =
    let rs = Array.init (Array.length ms) (fun _ -> G.Scalar.random rng) in
    (fst (enc_vec_with ?pool pk ~rs ms), rs)

  let dec_vec ?pool sk (v : vec) : G.t array option =
    let out = Atom_exec.Pool.map ?pool (dec sk) v in
    if Array.exists Option.is_none out then None else Some (Array.map Option.get out)

  (* Randomness is drawn in the elementwise order — each unit's fresh
     vector in turn — on the caller, before any parallel region. *)
  let reenc_batch ?pool rng ~share ?(coeff = G.Scalar.one) ~next_pk (batch : vec array) :
      vec array * reenc_witness array array =
    let draw _ = match next_pk with None -> G.Scalar.zero | Some _ -> G.Scalar.random rng in
    let out, wits, _ =
      reenc_batch_with ?pool ~x_eff:(G.Scalar.mul coeff share) ~next_pk
        ~fresh:(Array.map (Array.map draw) batch) batch
    in
    (out, wits)

  let reenc (rng : Atom_util.Rng.t) ~(share : G.Scalar.t) ?coeff ~(next_pk : G.t option)
      (ct : cipher) : cipher * reenc_witness =
    let out, wits = reenc_batch rng ~share ?coeff ~next_pk [| [| ct |] |] in
    (out.(0).(0), wits.(0).(0))

  let reenc_vec ?pool rng ~share ?coeff ~next_pk (v : vec) : vec * reenc_witness array =
    let out, wits = reenc_batch ?pool rng ~share ?coeff ~next_pk [| v |] in
    (out.(0), wits.(0))

  let clear_y_vec (v : vec) : vec = Array.map clear_y v

  type vec_shuffle_witness = { vperm : int array; vrerands : G.Scalar.t array array (* n × width *) }

  (* Shuffle a batch of vector ciphertexts: one shared permutation across
     messages, independent rerandomization per component. Convention:
     output.(j) = rerandomize(input.(vperm.(j))) with exponents vrerands.(j). *)
  let shuffle_vec ?pool (rng : Atom_util.Rng.t) (pk : G.t) (vs : vec array) :
      (vec array * vec_shuffle_witness) option =
    if Array.exists (fun v -> Array.exists (fun ct -> Option.is_some ct.y) v) vs then None
    else begin
      let n = Array.length vs in
      let vperm = Atom_util.Rng.permutation rng n in
      (* Draw all rerandomization exponents in the elementwise order, then
         batch the fixed-base work across the whole n × width matrix. *)
      let vrerands =
        Array.init n (fun j ->
            Array.init (Array.length vs.(vperm.(j))) (fun _ -> G.Scalar.random rng))
      in
      let gr, pkr = halves (fst (G.pow_many ?pool ~fresh:[||] (factor_pairs pk (flat vrerands)))) in
      let srcs = Array.map (fun p -> vs.(p)) vperm in
      let out = rerand_all (flat srcs) ~gr ~pkr in
      Some (reshape srcs out, { vperm; vrerands })
    end

  (* C' ← Shuffle(X, C): rerandomize all ciphertexts then permute, returning
     the witness needed for a proof of shuffle. The convention is
     output.(i) = rerandomize(input.(permutation.(i)), rerands.(i)); the
     draws are [shuffle_vec]'s on vectors of width 1. *)
  let shuffle ?pool (rng : Atom_util.Rng.t) (pk : G.t) (cts : cipher array) :
      (cipher array * shuffle_witness) option =
    let first a = Array.map (fun v -> v.(0)) a in
    Option.map
      (fun (out, w) -> (first out, { permutation = w.vperm; rerands = first w.vrerands }))
      (shuffle_vec ?pool rng pk (Array.map (fun ct -> [| ct |]) cts))

  let vec_to_bytes (v : vec) : string =
    String.concat "" (Array.to_list (Array.map cipher_to_bytes v))

  (* ---- Hybrid IND-CCA2 encryption (KEM + AEAD), Appendix A. ----

     Used for the *inner* ciphertexts of the trap variant: non-malleability
     prevents a malicious server from producing a related ciphertext. The
     KEM share R is bound into the AEAD as associated data. *)
  module Kem = struct
    type sealed = { share : G.t; (* R = g^r *) box : string (* AEAD(k, m) *) }

    let derive_key (k : G.t) : string = Atom_hash.Sha256.digest_list [ "atom-kem-v1"; G.to_bytes k ]
    let nonce = String.make Atom_cipher.Aead.nonce_len '\000' (* fresh key per message *)

    let enc (rng : Atom_util.Rng.t) (pk : G.t) (m : string) : sealed =
      let r = G.Scalar.random rng in
      let share = G.pow_gen r in
      let key = derive_key (G.pow pk r) in
      { share; box = Atom_cipher.Aead.encrypt ~key ~nonce ~aad:(G.to_bytes share) m }

    let dec (sk : G.Scalar.t) (s : sealed) : string option =
      let key = derive_key (G.pow s.share sk) in
      Atom_cipher.Aead.decrypt ~key ~nonce ~aad:(G.to_bytes s.share) s.box

    (* Threshold opening: each trustee i (with additive share x_i) publishes
       D_i = R^{x_i}; the KEM secret is Π D_i. All trustees are needed —
       exactly the all-or-nothing release of §4.4. *)
    let partial (sk_share : G.Scalar.t) (s : sealed) : G.t = G.pow s.share sk_share

    let dec_with_partials (partials : G.t list) (s : sealed) : string option =
      let key = derive_key (List.fold_left G.mul G.one partials) in
      Atom_cipher.Aead.decrypt ~key ~nonce ~aad:(G.to_bytes s.share) s.box

    (* R ‖ str32 box. *)
    let to_bytes (s : sealed) : string =
      let b = Buffer.create (G.element_bytes + 4 + String.length s.box) in
      Buffer.add_string b (G.to_bytes s.share);
      Bin.W.str32 b s.box;
      Buffer.contents b

    let of_bytes (b : string) : sealed option =
      Bin.R.decode b (fun r ->
          let share = Io.element r in
          { share; box = Bin.R.str32 r })
  end
end
