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

  type shuffle_witness = { permutation : int array; rerands : G.Scalar.t array }

  (* C' ← Shuffle(X, C): rerandomize all ciphertexts then permute, returning
     the witness needed for a proof of shuffle. The convention is
     output.(i) = rerandomize(input.(permutation.(i)), rerands.(i)). *)
  let shuffle ?pool (rng : Atom_util.Rng.t) (pk : G.t) (cts : cipher array) :
      (cipher array * shuffle_witness) option =
    if Array.exists (fun ct -> ct.y <> None) cts then None
    else begin
      let n = Array.length cts in
      let permutation = Atom_util.Rng.permutation rng n in
      let rerands = Array.init n (fun _ -> G.Scalar.random rng) in
      let gr = G.pow_gen_batch ?pool rerands in
      let pkr = G.pow_batch ?pool pk rerands in
      let out =
        Atom_exec.Pool.tabulate ?pool n (fun i ->
            let src = cts.(permutation.(i)) in
            { r = G.mul src.r gr.(i); c = G.mul src.c pkr.(i); y = None })
      in
      Some (out, { permutation; rerands })
    end

  type reenc_witness = { stripped : G.t; (* D = Y^(coeff·share) *) fresh : G.Scalar.t (* r' *) }

  (* The strip half of ReEnc: Y (R itself on a fresh ciphertext), the R
     carried forward (the identity on a fresh ciphertext), the stripped
     factor D = Y^{x_eff} and c/D. *)
  let strip ~(x_eff : G.Scalar.t) (ct : cipher) : G.t * G.t * G.t * G.t =
    let y, r = match ct.y with None -> (ct.r, G.one) | Some y -> (y, ct.r) in
    let d = G.pow y x_eff in
    (y, r, d, G.div ct.c d)

  (* ReEnc(x_s, X', (R, c, Y)) — one server's decrypt-and-reencrypt step,
     as a pure function of the effective exponent x_eff = coeff·share and
     the fresh exponent r' (ignored at the exit layer).

     [coeff] is the Lagrange coefficient for threshold (many-trust) groups;
     [Scalar.one] for plain anytrust groups where shares are additive.
     [next_pk = None] encodes X' = ⊥ (the exit layer: strip only). *)
  let reenc_with ~(x_eff : G.Scalar.t) ~(next_pk : G.t option) ~(fresh : G.Scalar.t)
      (ct : cipher) : cipher * reenc_witness =
    let y, r, d, ctmp = strip ~x_eff ct in
    match next_pk with
    | None -> ({ r; c = ctmp; y = Some y }, { stripped = d; fresh = G.Scalar.zero })
    | Some pk' ->
        ( { r = G.mul r (G.pow_gen fresh); c = G.mul ctmp (G.pow pk' fresh); y = Some y },
          { stripped = d; fresh } )

  let reenc (rng : Atom_util.Rng.t) ~(share : G.Scalar.t) ?(coeff = G.Scalar.one)
      ~(next_pk : G.t option) (ct : cipher) : cipher * reenc_witness =
    let fresh = match next_pk with None -> G.Scalar.zero | Some _ -> G.Scalar.random rng in
    reenc_with ~x_eff:(G.Scalar.mul coeff share) ~next_pk ~fresh ct

  (* The last server of a group clears Y before forwarding: all of this
     group's layers have been peeled and the ciphertext is now a plain
     encryption under the next group's key. *)
  let clear_y (ct : cipher) : cipher = { ct with y = None }

  (* After the exit layer finished stripping, the plaintext sits in [c]. *)
  let plaintext_of_exit (ct : cipher) : G.t = ct.c

  (* ---- Vector ciphertexts: one component per embedded group element. ---- *)

  type vec = cipher array

  (* Batch encryption: all the fixed-base work (g^{r_i} from the comb
     table, pk^{r_i} from one window table) is normalized with a single
     inversion per batch instead of one per exponentiation. Randomness is
     drawn in the same order as the elementwise path — and always on the
     caller, before any parallel region. *)
  let enc_vec ?pool rng pk (ms : G.t array) : vec * G.Scalar.t array =
    let rs = Array.init (Array.length ms) (fun _ -> G.Scalar.random rng) in
    let gr = G.pow_gen_batch ?pool rs in
    let pkr = G.pow_batch ?pool pk rs in
    let cts =
      Atom_exec.Pool.tabulate ?pool (Array.length ms) (fun i ->
          { r = gr.(i); c = G.mul ms.(i) pkr.(i); y = None })
    in
    (cts, rs)

  let dec_vec ?pool sk (v : vec) : G.t array option =
    let out = Atom_exec.Pool.map ?pool (dec sk) v in
    if Array.exists Option.is_none out then None else Some (Array.map Option.get out)

  (* Batch re-encryption of a whole ReEnc step. The fresh-randomness half
     (g^{r'} and X'^{r'}) is pure fixed-base work and batches across every
     component of every unit; the strip factors D = Y^{x_eff} have distinct
     bases and cannot share tables, but they are mutually independent, so
     they and the per-component products go to the pool as one job over
     all components. Randomness is drawn in the elementwise order — each
     unit's fresh vector in turn — on the caller, before any parallel
     region. *)
  let reenc_batch ?pool rng ~share ?(coeff = G.Scalar.one) ~next_pk (batch : vec array) :
      vec array * reenc_witness array array =
    let x_eff = G.Scalar.mul coeff share in
    let m = ref 0 in
    let indexed =
      Array.map
        (Array.map (fun ct ->
             let i = !m in
             incr m;
             (i, ct)))
        batch
    in
    let fresh =
      match next_pk with
      | None -> Array.make !m G.Scalar.zero
      | Some _ -> Array.init !m (fun _ -> G.Scalar.random rng)
    in
    let rerand =
      match next_pk with
      | None -> None
      | Some pk' -> Some (G.pow_gen_batch ?pool fresh, G.pow_batch ?pool pk' fresh)
    in
    let stepped =
      Atom_exec.Pool.map_nested ?pool
        (fun (i, ct) ->
          let y, r, d, ctmp = strip ~x_eff ct in
          match rerand with
          | None -> ({ r; c = ctmp; y = Some y }, { stripped = d; fresh = G.Scalar.zero })
          | Some (gr, pkr) ->
              ( { r = G.mul r gr.(i); c = G.mul ctmp pkr.(i); y = Some y },
                { stripped = d; fresh = fresh.(i) } ))
        indexed
    in
    (Array.map (Array.map fst) stepped, Array.map (Array.map snd) stepped)

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
      let flat = Array.concat (Array.to_list vrerands) in
      let gr = G.pow_gen_batch ?pool flat in
      let pkr = G.pow_batch ?pool pk flat in
      let offsets = Array.make n 0 in
      let off = ref 0 in
      for j = 0 to n - 1 do
        offsets.(j) <- !off;
        off := !off + Array.length vs.(vperm.(j))
      done;
      let out =
        Atom_exec.Pool.tabulate ?pool n (fun j ->
            let src = vs.(vperm.(j)) in
            let base = offsets.(j) in
            Array.mapi
              (fun w ct ->
                { r = G.mul ct.r gr.(base + w); c = G.mul ct.c pkr.(base + w); y = None })
              src)
      in
      Some (out, { vperm; vrerands })
    end

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
