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
  module Batch = Batch_verify.Make (G)

  module Enc_proof = struct
    type t = { a : G.t; u : G.Scalar.t }

    let challenge_digest ~(pk : G.t) ~(context : string) (ct : El.cipher) (a : G.t) : string =
      let tr = Transcript.create ~domain:"enc-proof" in
      Transcript.add_list tr
        [ context; G.to_bytes pk; G.to_bytes ct.El.r; G.to_bytes ct.El.c; G.to_bytes a ];
      Transcript.digest tr

    (* The proof as a pure function of its nonce s and commitment a = g^s. *)
    let respond ~pk ~context ct ~randomness ~(s : G.Scalar.t) (a : G.t) : t =
      let t = G.hash_to_scalar (challenge_digest ~pk ~context ct a) in
      { a; u = G.Scalar.add s (G.Scalar.mul t randomness) }

    (* Prove knowledge of r with ct.r = g^r. [context] binds the proof to
       the entry group (and anything else the caller includes). *)
    let prove (rng : Atom_util.Rng.t) ~(pk : G.t) ~(context : string) (ct : El.cipher)
        ~(randomness : G.Scalar.t) : t =
      let s = G.Scalar.random rng in
      respond ~pk ~context ct ~randomness ~s (G.pow_gen s)

    type claim = { pk : G.t; context : string; ct : El.cipher; proof : t }

    (* Every claim's equation g^u = a·R^t in one weighted MSM: the
       challenges are hashed on the caller, the generator's exponents are
       summed, and the MSM is the one pooled job. *)
    let verify_batch ?pool (claims : claim array) : bool =
      Batch.check ?pool ~shared:[ G.generator ]
        (Array.map
           (fun c ->
             Batch.claim
               ~digest:(challenge_digest ~pk:c.pk ~context:c.context c.ct c.proof.a)
               ~u:c.proof.u
               [| (G.generator, c.ct.El.r, c.proof.a) |])
           claims)

    let verify ~(pk : G.t) ~(context : string) (ct : El.cipher) (pi : t) : bool =
      verify_batch [| { pk; context; ct; proof = pi } |]

    let to_bytes (pi : t) : string = G.to_bytes pi.a ^ G.Scalar.to_bytes pi.u

    let of_bytes (s : string) : t option =
      Bin.R.decode s (fun r ->
          let a = Io.element r in
          { a; u = Io.scalar r })

    (* [El.enc_vec] then a [prove] per component: every r, then every
       nonce s, drawn in that order, and g^r, X^r and g^s in one
       [G.pow_many]. *)
    let enc_vec_with_proof ?pool rng ~pk ~context (ms : G.t array) : El.vec * t array =
      let rs = Array.map (fun _ -> G.Scalar.random rng) ms in
      let ss = Array.map (fun _ -> G.Scalar.random rng) ms in
      let v, a = El.enc_vec_with ?pool ~also:(Array.map (fun s -> (G.generator, s)) ss) pk ~rs ms in
      (v, Array.mapi (fun i ct -> respond ~pk ~context ct ~randomness:rs.(i) ~s:ss.(i) a.(i)) v)

    let verify_vec ~pk ~context (v : El.vec) (pis : t array) : bool =
      Array.length pis = Array.length v
      && verify_batch (Array.map2 (fun ct proof -> { pk; context; ct; proof }) v pis)
  end

  module Dleq = struct
    type t = { a1 : G.t; a2 : G.t; u : G.Scalar.t }

    (* Prove log_{g1} h1 = log_{g2} h2 (= secret x). *)
    let challenge_digest ~context (g1, h1, g2, h2) a1 a2 =
      let tr = Transcript.create ~domain:"dleq" in
      Transcript.add_list tr
        [
          context; G.to_bytes g1; G.to_bytes h1; G.to_bytes g2; G.to_bytes h2; G.to_bytes a1;
          G.to_bytes a2;
        ];
      Transcript.digest tr

    (* The proof as a pure function of its nonce and the commitments
       a1 = g1^nonce, a2 = g2^nonce. *)
    let respond ~(nonce : G.Scalar.t) ~(context : string) ~(g1 : G.t) ~(h1 : G.t) ~(g2 : G.t)
        ~(h2 : G.t) ~(x : G.Scalar.t) (a1 : G.t) (a2 : G.t) : t =
      let t = G.hash_to_scalar (challenge_digest ~context (g1, h1, g2, h2) a1 a2) in
      { a1; a2; u = G.Scalar.add nonce (G.Scalar.mul t x) }

    let prove (rng : Atom_util.Rng.t) ~context ~g1 ~h1 ~g2 ~h2 ~x : t =
      let nonce = G.Scalar.random rng in
      respond ~nonce ~context ~g1 ~h1 ~g2 ~h2 ~x (G.pow g1 nonce) (G.pow g2 nonce)

    (* The proof's two legs g1^u = a1·h1^t and g2^u = a2·h2^t, for a
       batch check. *)
    let claim ~context ~g1 ~h1 ~g2 ~h2 (pi : t) : Batch.claim =
      Batch.claim
        ~digest:(challenge_digest ~context (g1, h1, g2, h2) pi.a1 pi.a2)
        ~u:pi.u
        [| (g1, h1, pi.a1); (g2, h2, pi.a2) |]

    let verify ~(context : string) ~(g1 : G.t) ~(h1 : G.t) ~(g2 : G.t) ~(h2 : G.t) (pi : t) : bool
        =
      Batch.check ~shared:[ g1 ] [| claim ~context ~g1 ~h1 ~g2 ~h2 pi |]

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
    let draw rng ~(next_pk : G.t option) : G.Scalar.t * G.Scalar.t * G.Scalar.t =
      let r () = G.Scalar.random rng in
      match next_pk with
      | None -> (G.Scalar.zero, r (), G.Scalar.zero)
      | Some _ ->
          let fresh = r () in
          let strip_nonce = r () in
          (fresh, strip_nonce, r ())

    (* The verifier's statements of every component's rerandomization
       proof, h1 = R'/R and h2 = c'·D/c, as batched products. *)
    let rerand_statements ~(input : El.cipher array) ~(output : El.cipher array)
        ~(stripped : G.t array) : G.t array * G.t array =
      let inv_all f cts = G.inv_batch (Array.map f cts) in
      let h1 =
        G.mul_batch
          (Array.map (fun ct -> ct.El.r) output)
          (inv_all (fun ct -> snd (El.carried ct)) input)
      in
      let h2 =
        G.mul_batch
          (G.mul_batch (Array.map (fun ct -> ct.El.c) output) stripped)
          (inv_all (fun ct -> ct.El.c) input)
      in
      (h1, h2)

    let flat (a : 'a array array) : 'a array = Array.concat (Array.to_list a)

    (* One proven ReEnc step over a batch of vectors, for one effective
       key: [eff_pk] = g^{x_eff} where x_eff = coeff·share is the exponent
       this server uses (for anytrust groups coeff = 1 and eff_pk is the
       server's public key; for many-trust groups it is share_pk^λ). Every
       component's randomness is drawn on the caller in the elementwise
       order. [eff_pk] and every DLEQ commitment (g^nonce, and Y^nonce on
       the strip base, X'^nonce on the next key) ride in the step's one
       [G.pow_many]; challenges and responses are hashed on the caller.
       The rerandomization statements R'/R and c'·D/c are exactly the
       factors (g^{r'}, X'^{r'}) the step multiplied in (group results are
       canonical), so they cost no group operation, and the proofs are the
       same bytes as per-component [reenc_with_proof] calls. *)
    let reenc_batch_with_proof ?pool rng ~share ?(coeff = G.Scalar.one) ~next_pk ~context
        (batch : El.vec array) : El.vec array * t array array =
      let x_eff = G.Scalar.mul coeff share in
      let draws = Array.map (Array.map (fun _ -> draw rng ~next_pk)) batch in
      let dr = flat draws in
      let n = Array.length dr in
      let ys = Array.map (fun ct -> fst (El.carried ct)) (flat batch) in
      let strip (_, s, _) = s and rerand (_, _, s) = s in
      let on b f = Array.map (fun d -> (b, f d)) dr in
      let rerand_pairs =
        match next_pk with None -> [] | Some pk' -> [ on G.generator rerand; on pk' rerand ]
      in
      let output, wits, (k, f) =
        El.reenc_batch_with ?pool ~x_eff ~next_pk
          ~fresh:(Array.map (Array.map (fun (r, _, _) -> r)) draws)
          ~also:
            ( Array.concat ([| (G.generator, x_eff) |] :: on G.generator strip :: rerand_pairs),
              Array.mapi (fun i y -> (y, strip dr.(i))) ys )
          batch
      in
      let eff_pk = k.(0) and a p i = k.(1 + (p * n) + i) in
      (* Flat component i: index i of [dr], [ys], [f] and each [a p]. *)
      let prove i (w : El.reenc_witness) =
        let dleq ~g2 ~h1 ~h2 ~x nonce a1 a2 =
          Dleq.respond ~nonce ~context ~g1:G.generator ~h1 ~g2 ~h2 ~x a1 a2
        in
        let strip_proof =
          dleq ~g2:ys.(i) ~h1:eff_pk ~h2:w.El.stripped ~x:x_eff (strip dr.(i)) (a 0 i) f.(i)
        in
        let rerand_proof =
          Option.map
            (fun pk' ->
              let h1, h2 = w.El.shift in
              dleq ~g2:pk' ~h1 ~h2 ~x:w.El.fresh (rerand dr.(i)) (a 1 i) (a 2 i))
            next_pk
        in
        { stripped = w.El.stripped; strip_proof; rerand_proof }
      in
      (output, El.reshape batch (Array.mapi prove (flat wits)))

    let reenc_with_proof (rng : Atom_util.Rng.t) ~(share : G.Scalar.t) ?coeff
        ~(next_pk : G.t option) ~(context : string) (ct : El.cipher) : El.cipher * t =
      let out, pis = reenc_batch_with_proof rng ~share ?coeff ~next_pk ~context [| [| ct |] |] in
      (out.(0).(0), pis.(0).(0))

    let reenc_vec_with_proof rng ~share ?coeff ~next_pk ~context (v : El.vec) :
        El.vec * t array =
      let out, pis = reenc_batch_with_proof rng ~share ?coeff ~next_pk ~context [| v |] in
      (out.(0), pis.(0))

    (* Every component of every unit checked at once. The structural
       rules are checked directly: each output carries Y = Y_in, and either
       a rerandomization proof is present (toward [next_pk]) or, at the exit
       layer, the output is the pure strip c' = c/D, R' = R. Then every DLEQ
       leg of every component (the strip proof against eff_pk, the
       rerandomization proof against the batched statements R'/R and
       c'·D/c) joins one weighted MSM, the one pooled job; the claims'
       challenges are only hashing, done on the caller. *)
    let verify_batch ?pool ~eff_pk ~next_pk ~context ~(input : El.vec array)
        ~(output : El.vec array) (pis : t array array) : bool =
      let same_shape a b = Array.length a = Array.length b in
      same_shape pis input && same_shape output input
      && Array.for_all2 same_shape pis input
      && Array.for_all2 same_shape output input
      &&
      let input = flat input and output = flat output and pis = flat pis in
      let ds = Array.map (fun pi -> pi.stripped) pis in
      let ys = Array.map (fun ct -> fst (El.carried ct)) input in
      Array.for_all2
        (fun ct y_in -> match ct.El.y with Some y -> G.equal y y_in | None -> false)
        output ys
      &&
      let shared, rerand_ok, rerand_claims =
        match next_pk with
        | None ->
            let cs = G.mul_batch (Array.map (fun ct -> ct.El.c) input) (G.inv_batch ds) in
            let pure_strip i ct =
              Option.is_none pis.(i).rerand_proof
              && G.equal ct.El.c cs.(i)
              && G.equal ct.El.r (snd (El.carried input.(i)))
            in
            ( [ G.generator; eff_pk ],
              Array.for_all Fun.id (Array.mapi pure_strip output),
              fun _ -> [] )
        | Some pk' ->
            let h1, h2 = rerand_statements ~input ~output ~stripped:ds in
            ( [ G.generator; eff_pk; pk' ],
              Array.for_all (fun pi -> Option.is_some pi.rerand_proof) pis,
              fun i ->
                [
                  Dleq.claim ~context ~g1:G.generator ~h1:h1.(i) ~g2:pk' ~h2:h2.(i)
                    (Option.get pis.(i).rerand_proof);
                ] )
      in
      rerand_ok
      && Batch.check ?pool ~shared
           (Array.of_list
              (List.concat
                 (Array.to_list
                    (Array.init (Array.length input) (fun i ->
                         Dleq.claim ~context ~g1:G.generator ~h1:eff_pk ~g2:ys.(i) ~h2:ds.(i)
                           pis.(i).strip_proof
                         :: rerand_claims i)))))

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
