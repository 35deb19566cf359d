(* Sigma-protocol NIZKs (Fiat–Shamir): EncProof and ReEncProof.

   - [Enc_proof]: Schnorr proof of knowledge of the encryption randomness,
     exactly the construction of the paper's Appendix A, with the entry
     group's id folded into the challenge so a proof cannot be replayed at a
     different group (§3).
   - [Dleq]: Chaum–Pedersen discrete-log-equality proof [20].
   - [Reenc_proof]: verifiable decrypt-and-reencrypt, composed from one DLEQ
     attesting the stripped factor D = Y^{x_s} against the server's public
     share and one DLEQ attesting the fresh rerandomization toward the next
     group's key. *)

module Make
    (G : Atom_group.Group_intf.GROUP)
    (El : module type of Atom_elgamal.Elgamal.Make (G)) =
struct
  module Bin = Atom_util.Bin
  module Io = Atom_group.Group_intf.Bin_io (G)

  module Enc_proof = struct
    type t = { a : G.t; u : G.Scalar.t }

    let challenge ~(pk : G.t) ~(context : string) (ct : El.cipher) (a : G.t) : G.Scalar.t =
      let tr = Transcript.create ~domain:"enc-proof" in
      Transcript.add_list tr
        [ context; G.to_bytes pk; G.to_bytes ct.El.r; G.to_bytes ct.El.c; G.to_bytes a ];
      G.hash_to_scalar (Transcript.digest tr)

    (* Prove knowledge of r with ct.r = g^r. [context] binds the proof to
       the entry group (and anything else the caller includes). *)
    let prove (rng : Atom_util.Rng.t) ~(pk : G.t) ~(context : string) (ct : El.cipher)
        ~(randomness : G.Scalar.t) : t =
      let s = G.Scalar.random rng in
      let a = G.pow_gen s in
      let t = challenge ~pk ~context ct a in
      { a; u = G.Scalar.add s (G.Scalar.mul t randomness) }

    (* g^u = a·R^t  ⇔  g^u·R^{-t} = a: one Straus double-scalar
       multiplication (with the generator half served by the comb table)
       instead of two full exponentiations and a group op. *)
    let verify ~(pk : G.t) ~(context : string) (ct : El.cipher) (pi : t) : bool =
      let t = challenge ~pk ~context ct pi.a in
      G.equal (G.pow2 G.generator pi.u ct.El.r (G.Scalar.neg t)) pi.a

    let to_bytes (pi : t) : string = G.to_bytes pi.a ^ G.Scalar.to_bytes pi.u

    let of_bytes (s : string) : t option =
      Bin.R.decode s (fun r ->
          let a = Io.element r in
          { a; u = Io.scalar r })

    (* Vector ciphertexts carry one proof per component. *)
    let prove_vec rng ~pk ~context (v : El.vec) ~(randomness : G.Scalar.t array) : t array =
      Array.mapi (fun i ct -> prove rng ~pk ~context ct ~randomness:randomness.(i)) v

    let verify_vec ~pk ~context (v : El.vec) (pis : t array) : bool =
      Array.length pis = Array.length v
      && Array.for_all2 (fun ct pi -> verify ~pk ~context ct pi) v pis
  end

  module Dleq = struct
    type t = { a1 : G.t; a2 : G.t; u : G.Scalar.t }

    (* Prove log_{g1} h1 = log_{g2} h2 (= secret x). *)
    let challenge ~context (g1, h1, g2, h2) a1 a2 =
      let tr = Transcript.create ~domain:"dleq" in
      Transcript.add_list tr
        [
          context; G.to_bytes g1; G.to_bytes h1; G.to_bytes g2; G.to_bytes h2; G.to_bytes a1;
          G.to_bytes a2;
        ];
      G.hash_to_scalar (Transcript.digest tr)

    (* The proof as a pure function of its nonce. *)
    let prove_with ~(nonce : G.Scalar.t) ~(context : string) ~(g1 : G.t) ~(h1 : G.t)
        ~(g2 : G.t) ~(h2 : G.t) ~(x : G.Scalar.t) : t =
      let a1 = G.pow g1 nonce and a2 = G.pow g2 nonce in
      let t = challenge ~context (g1, h1, g2, h2) a1 a2 in
      { a1; a2; u = G.Scalar.add nonce (G.Scalar.mul t x) }

    let prove (rng : Atom_util.Rng.t) ~context ~g1 ~h1 ~g2 ~h2 ~x : t =
      prove_with ~nonce:(G.Scalar.random rng) ~context ~g1 ~h1 ~g2 ~h2 ~x

    (* Each leg g^u = a·h^t is checked as g^u·h^{-t} = a (one double-scalar
       multiplication). g1 is the group generator in every caller, so that
       half rides the generator's comb. A long-lived h (eff_pk, the next
       group's key) gets a comb of its own on P-256 once it has carried 16
       scalars, after which the first leg is two doubling-free comb sums;
       one-shot h and g2 bases take Straus. *)
    let verify ~(context : string) ~(g1 : G.t) ~(h1 : G.t) ~(g2 : G.t) ~(h2 : G.t) (pi : t) : bool
        =
      let t = challenge ~context (g1, h1, g2, h2) pi.a1 pi.a2 in
      let neg_t = G.Scalar.neg t in
      G.equal (G.pow2 g1 pi.u h1 neg_t) pi.a1 && G.equal (G.pow2 g2 pi.u h2 neg_t) pi.a2

    let to_bytes (pi : t) : string =
      G.to_bytes pi.a1 ^ G.to_bytes pi.a2 ^ G.Scalar.to_bytes pi.u

    let read (r : Bin.R.t) : t =
      let a1 = Io.element r in
      let a2 = Io.element r in
      { a1; a2; u = Io.scalar r }

    let of_bytes (s : string) : t option = Bin.R.decode s read
  end

  module Reenc_proof = struct
    type t = {
      stripped : G.t; (* D = Y^{x_eff}, published *)
      strip_proof : Dleq.t; (* DLEQ(g, eff_pk; Y, D) *)
      rerand_proof : Dleq.t option; (* DLEQ(g, R'/R; X', c'·D/c); None at the exit layer *)
    }

    (* The randomness of one component's proven step, in the order the
       step draws it: the fresh exponent r' (re-encrypting layers only),
       the strip proof's nonce, the rerandomization proof's nonce
       (re-encrypting layers only). *)
    type draws = { fresh : G.Scalar.t; strip_nonce : G.Scalar.t; rerand_nonce : G.Scalar.t }

    let draw rng ~(next_pk : G.t option) : draws =
      match next_pk with
      | None ->
          let strip_nonce = G.Scalar.random rng in
          { fresh = G.Scalar.zero; strip_nonce; rerand_nonce = G.Scalar.zero }
      | Some _ ->
          let fresh = G.Scalar.random rng in
          let strip_nonce = G.Scalar.random rng in
          let rerand_nonce = G.Scalar.random rng in
          { fresh; strip_nonce; rerand_nonce }

    (* Y and the R carried forward, of an input component: on a fresh
       ciphertext Y is R itself and the carried R is the identity. *)
    let carried (ct : El.cipher) : G.t * G.t =
      match ct.El.y with None -> (ct.El.r, G.one) | Some y -> (y, ct.El.r)

    (* The verifier's statements of every component's rerandomization
       proof, h1 = R'/R and h2 = c'·D/c, as batched products. *)
    let rerand_statements ~(input : El.cipher array) ~(output : El.cipher array)
        ~(stripped : G.t array) : G.t array * G.t array =
      let inv_all f cts = Array.map (fun ct -> G.inv (f ct)) cts in
      let h1 =
        G.mul_batch
          (Array.map (fun ct -> ct.El.r) output)
          (inv_all (fun ct -> snd (carried ct)) input)
      in
      let h2 =
        G.mul_batch
          (G.mul_batch (Array.map (fun ct -> ct.El.c) output) stripped)
          (inv_all (fun ct -> ct.El.c) input)
      in
      (h1, h2)

    (* Each component's index in the flattened batch, shaped like it. *)
    let flat_index (batch : 'a array array) : int array array =
      let next = ref 0 in
      Array.map
        (Array.map (fun _ ->
             let i = !next in
             incr next;
             i))
        batch

    let flat (a : 'a array array) : 'a array = Array.concat (Array.to_list a)

    (* One proven ReEnc step over a batch of vectors, for one effective
       key: [eff_pk] = g^{x_eff} where x_eff = coeff·share is the exponent
       this server uses (for anytrust groups coeff = 1 and eff_pk is the
       server's public key; for many-trust groups it is share_pk^λ). Every
       component's randomness is drawn on the caller in the elementwise
       order; the ciphertexts are [El.reenc_batch_with] of the fresh
       exponents, and the DLEQs one pooled job over every component. The
       rerandomization statements R'/R and c'·D/c are exactly the factors
       (g^{r'}, X'^{r'}) the step multiplied in (group results are
       canonical), so they cost no group operation here. [eff_pk] draws
       no randomness, so the proofs are the same bytes as per-component
       [reenc_with_proof] calls. *)
    let reenc_batch_with_proof ?pool rng ~share ?(coeff = G.Scalar.one) ~next_pk ~context
        (batch : El.vec array) : El.vec array * t array array =
      let x_eff = G.Scalar.mul coeff share in
      let eff_pk = G.pow_gen x_eff in
      let draws = Array.map (Array.map (fun _ -> draw rng ~next_pk)) batch in
      let output, wits =
        El.reenc_batch_with ?pool ~x_eff ~next_pk
          ~fresh:(Array.map (Array.map (fun dr -> dr.fresh)) draws)
          batch
      in
      let input = flat batch and dr = flat draws and wits = flat wits in
      let proofs =
        Atom_exec.Pool.map_nested ?pool
          (fun i ->
            let d = wits.(i).El.stripped in
            let strip_proof =
              Dleq.prove_with ~nonce:dr.(i).strip_nonce ~context ~g1:G.generator ~h1:eff_pk
                ~g2:(fst (carried input.(i))) ~h2:d ~x:x_eff
            in
            let rerand_proof =
              Option.map
                (fun pk' ->
                  let h1, h2 = wits.(i).El.shift in
                  Dleq.prove_with ~nonce:dr.(i).rerand_nonce ~context ~g1:G.generator ~h1
                    ~g2:pk' ~h2 ~x:dr.(i).fresh)
                next_pk
            in
            { stripped = d; strip_proof; rerand_proof })
          (flat_index batch)
      in
      (output, proofs)

    let reenc_with_proof (rng : Atom_util.Rng.t) ~(share : G.Scalar.t) ?coeff
        ~(next_pk : G.t option) ~(context : string) (ct : El.cipher) : El.cipher * t =
      let out, pis = reenc_batch_with_proof rng ~share ?coeff ~next_pk ~context [| [| ct |] |] in
      (out.(0).(0), pis.(0).(0))

    let reenc_vec_with_proof rng ~share ?coeff ~next_pk ~context (v : El.vec) :
        El.vec * t array =
      let out, pis = reenc_batch_with_proof rng ~share ?coeff ~next_pk ~context [| v |] in
      (out.(0), pis.(0))

    (* Every component of every unit checked as one pooled job, after the
       statements (h1, h2, or the exit layer's c/D) are batched products;
       all components run, so the verdict is the same as the elementwise
       check's. Each component's output must carry Y = Y_in, its stripped
       factor must match eff_pk (DLEQ), and either its rerandomization
       proof toward [next_pk] must verify or, at the exit layer, it must
       be the pure strip c' = c/D, R' = R. *)
    let verify_batch ?pool ~eff_pk ~next_pk ~context ~(input : El.vec array)
        ~(output : El.vec array) (pis : t array array) : bool =
      let same_shape a b = Array.length a = Array.length b in
      same_shape pis input && same_shape output input
      && Array.for_all2 same_shape pis input
      && Array.for_all2 same_shape output input
      &&
      let input = flat input and output = flat output and pis = flat pis in
      let ds = Array.map (fun pi -> pi.stripped) pis in
      let rest_ok =
        match next_pk with
        | None ->
            let cs = G.mul_batch (Array.map (fun ct -> ct.El.c) input) (Array.map G.inv ds) in
            fun i ->
              Option.is_none pis.(i).rerand_proof
              && G.equal output.(i).El.c cs.(i)
              && G.equal output.(i).El.r (snd (carried input.(i)))
        | Some pk' -> (
            let h1, h2 = rerand_statements ~input ~output ~stripped:ds in
            fun i ->
              match pis.(i).rerand_proof with
              | Some rp -> Dleq.verify ~context ~g1:G.generator ~h1:h1.(i) ~g2:pk' ~h2:h2.(i) rp
              | None -> false)
      in
      Array.for_all Fun.id
        (Atom_exec.Pool.tabulate ?pool (Array.length input) (fun i ->
             let y_in, _ = carried input.(i) in
             (match output.(i).El.y with Some y -> G.equal y y_in | None -> false)
             && Dleq.verify ~context ~g1:G.generator ~h1:eff_pk ~g2:y_in ~h2:ds.(i)
                  pis.(i).strip_proof
             && rest_ok i))

    let verify ~eff_pk ~next_pk ~context ~(input : El.cipher) ~(output : El.cipher) (pi : t) :
        bool =
      verify_batch ~eff_pk ~next_pk ~context ~input:[| [| input |] |] ~output:[| [| output |] |]
        [| [| pi |] |]

    let verify_vec ~eff_pk ~next_pk ~context ~(input : El.vec) ~(output : El.vec)
        (pis : t array) : bool =
      verify_batch ~eff_pk ~next_pk ~context ~input:[| input |] ~output:[| output |] [| pis |]

    let to_bytes (pi : t) : string =
      let tag, rest =
        match pi.rerand_proof with
        | None -> ("\000", "")
        | Some rp -> ("\001", Dleq.to_bytes rp)
      in
      G.to_bytes pi.stripped ^ Dleq.to_bytes pi.strip_proof ^ tag ^ rest

    let of_bytes (s : string) : t option =
      Bin.R.decode s (fun r ->
          let stripped = Io.element r in
          let strip_proof = Dleq.read r in
          match Bin.R.u8 r with
          | 0 -> { stripped; strip_proof; rerand_proof = None }
          | 1 -> { stripped; strip_proof; rerand_proof = Some (Dleq.read r) }
          | _ -> Bin.R.fail ())
  end
end
