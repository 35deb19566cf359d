(* Tests for atom_zkp: EncProof, DLEQ, ReEncProof, and the verifiable
   shuffle. Soundness is exercised by active tampering: every mutation an
   Atom adversary could attempt on the proven statements must be caught. *)

module Run (G : Atom_group.Group_intf.GROUP) = struct
  module El = Atom_elgamal.Elgamal.Make (G)
  module P = Atom_zkp.Proofs.Make (G) (El)
  module Shuf = Atom_zkp.Shuffle_proof.Make (G) (El)

  let rng () = Atom_util.Rng.create (Atom_util.Rng.hash_string ("zkp" ^ G.name))

  let test_enc_proof () =
    let r = rng () in
    let kp = El.keygen r in
    let m = G.random r in
    let ct, randomness = El.enc r kp.El.pk m in
    let pi = P.Enc_proof.prove r ~pk:kp.El.pk ~context:"group-7" ct ~randomness in
    Alcotest.(check bool) "valid proof accepted" true
      (P.Enc_proof.verify ~pk:kp.El.pk ~context:"group-7" ct pi);
    (* Binding to the entry group id: replaying at another group fails. *)
    Alcotest.(check bool) "other group rejected" false
      (P.Enc_proof.verify ~pk:kp.El.pk ~context:"group-8" ct pi);
    (* A rerandomized copy of the ciphertext invalidates the proof — this is
       what stops the duplicate-plaintext attack of §3. *)
    let ct', _ = Option.get (El.rerandomize r kp.El.pk ct) in
    Alcotest.(check bool) "rerandomized copy rejected" false
      (P.Enc_proof.verify ~pk:kp.El.pk ~context:"group-7" ct' pi)

  let test_enc_proof_vec () =
    let r = rng () in
    let kp = El.keygen r in
    let ms = Array.init 3 (fun _ -> G.random r) in
    let v, rands = El.enc_vec r kp.El.pk ms in
    let pis =
      Array.mapi (fun i ct -> P.Enc_proof.prove r ~pk:kp.El.pk ~context:"g" ct ~randomness:rands.(i)) v
    in
    Alcotest.(check bool) "vector proof accepted" true
      (P.Enc_proof.verify_vec ~pk:kp.El.pk ~context:"g" v pis);
    (* Component count mismatch rejected. *)
    Alcotest.(check bool) "truncated rejected" false
      (P.Enc_proof.verify_vec ~pk:kp.El.pk ~context:"g" v (Array.sub pis 0 2))

  let test_dleq () =
    let r = rng () in
    let x = G.Scalar.random r in
    let g2 = G.random r in
    let h1 = G.pow_gen x and h2 = G.pow g2 x in
    let pi = P.Dleq.prove r ~context:"t" ~g1:G.generator ~h1 ~g2 ~h2 ~x in
    Alcotest.(check bool) "valid dleq" true
      (P.Dleq.verify ~context:"t" ~g1:G.generator ~h1 ~g2 ~h2 pi);
    (* Different exponent on the second pair must fail. *)
    let h2_bad = G.mul h2 g2 in
    Alcotest.(check bool) "unequal logs rejected" false
      (P.Dleq.verify ~context:"t" ~g1:G.generator ~h1 ~g2 ~h2:h2_bad pi);
    Alcotest.(check bool) "wrong context rejected" false
      (P.Dleq.verify ~context:"u" ~g1:G.generator ~h1 ~g2 ~h2 pi)

  let test_reenc_proof_chain () =
    let r = rng () in
    let k = 3 in
    let group = Array.init k (fun _ -> El.keygen r) in
    let gpk = El.combine_pks (Array.to_list (Array.map (fun kp -> kp.El.pk) group)) in
    let next = El.keygen r in
    let m = G.random r in
    let ct0, _ = El.enc r gpk m in
    (* Each server re-encrypts with proof; every proof verifies against its
       own input/output pair. *)
    let ct = ref ct0 in
    Array.iter
      (fun kp ->
        let ct', pi =
          P.Reenc_proof.reenc_with_proof r ~share:kp.El.sk ~next_pk:(Some next.El.pk)
            ~context:"iter-0" !ct
        in
        Alcotest.(check bool) "step verifies" true
          (P.Reenc_proof.verify ~eff_pk:kp.El.pk ~next_pk:(Some next.El.pk) ~context:"iter-0"
             ~input:!ct ~output:ct' pi);
        (* Verifying against a mutated output must fail. *)
        let bad = { ct' with El.c = G.mul ct'.El.c G.generator } in
        Alcotest.(check bool) "tampered output rejected" false
          (P.Reenc_proof.verify ~eff_pk:kp.El.pk ~next_pk:(Some next.El.pk) ~context:"iter-0"
             ~input:!ct ~output:bad pi);
        ct := ct')
      group;
    (* After the full pass the ciphertext decrypts under the next key. *)
    let ct = El.clear_y !ct in
    Alcotest.(check bool) "chain correct" true (G.equal m (Option.get (El.dec next.El.sk ct)))

  let test_reenc_proof_exit_layer () =
    let r = rng () in
    let kp = El.keygen r in
    let m = G.random r in
    let ct, _ = El.enc r kp.El.pk m in
    let ct', pi =
      P.Reenc_proof.reenc_with_proof r ~share:kp.El.sk ~next_pk:None ~context:"exit" ct
    in
    Alcotest.(check bool) "exit step verifies" true
      (P.Reenc_proof.verify ~eff_pk:kp.El.pk ~next_pk:None ~context:"exit" ~input:ct ~output:ct'
         pi);
    Alcotest.(check bool) "plaintext exposed" true (G.equal m (El.plaintext_of_exit ct'));
    (* A server that lies about the plaintext is caught. *)
    let forged = { ct' with El.c = G.mul ct'.El.c G.generator } in
    Alcotest.(check bool) "forged exit rejected" false
      (P.Reenc_proof.verify ~eff_pk:kp.El.pk ~next_pk:None ~context:"exit" ~input:ct ~output:forged
         pi)

  let test_reenc_proof_wrong_share () =
    let r = rng () in
    let kp = El.keygen r and other = El.keygen r in
    let m = G.random r in
    let ct, _ = El.enc r kp.El.pk m in
    let ct', pi =
      P.Reenc_proof.reenc_with_proof r ~share:other.El.sk ~next_pk:None ~context:"x" ct
    in
    (* The proof itself is consistent, but verifies only against the actual
       share's public key — claiming it used [kp]'s share fails. *)
    Alcotest.(check bool) "wrong eff_pk rejected" false
      (P.Reenc_proof.verify ~eff_pk:kp.El.pk ~next_pk:None ~context:"x" ~input:ct ~output:ct' pi)

  let make_batch r pk n width =
    Array.init n (fun _ ->
        let ms = Array.init width (fun _ -> G.random r) in
        fst (El.enc_vec r pk ms))

  let test_shuffle_proof_complete () =
    let r = rng () in
    let kp = El.keygen r in
    List.iter
      (fun (n, width) ->
        let input = make_batch r kp.El.pk n width in
        let output, witness = Option.get (El.shuffle_vec r kp.El.pk input) in
        let pi = Shuf.prove r ~pk:kp.El.pk ~context:"ctx" ~input ~output ~witness in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d w=%d accepted" n width)
          true
          (Shuf.verify ~pk:kp.El.pk ~context:"ctx" ~input ~output pi))
      [ (1, 1); (2, 1); (8, 1); (4, 2) ]

  let test_shuffle_proof_tamper () =
    let r = rng () in
    let kp = El.keygen r in
    let input = make_batch r kp.El.pk 6 1 in
    let output, witness = Option.get (El.shuffle_vec r kp.El.pk input) in
    let pi = Shuf.prove r ~pk:kp.El.pk ~context:"ctx" ~input ~output ~witness in
    (* 1. Replacing one output ciphertext with a fresh encryption. *)
    let forged = Array.copy output in
    forged.(3) <- fst (El.enc_vec r kp.El.pk [| G.random r |]);
    Alcotest.(check bool) "replaced output rejected" false
      (Shuf.verify ~pk:kp.El.pk ~context:"ctx" ~input ~output:forged pi);
    (* 2. Duplicating one output over another (drop + duplicate attack). *)
    let dup = Array.copy output in
    dup.(2) <- dup.(4);
    Alcotest.(check bool) "duplicated output rejected" false
      (Shuf.verify ~pk:kp.El.pk ~context:"ctx" ~input ~output:dup pi);
    (* 3. Swapping two outputs after the proof was made. *)
    let swapped = Array.copy output in
    let tmp = swapped.(0) in
    swapped.(0) <- swapped.(1);
    swapped.(1) <- tmp;
    Alcotest.(check bool) "swapped outputs rejected" false
      (Shuf.verify ~pk:kp.El.pk ~context:"ctx" ~input ~output:swapped pi);
    (* 4. Mutating one input. *)
    let bad_input = Array.copy input in
    bad_input.(0) <- fst (El.enc_vec r kp.El.pk [| G.random r |]);
    Alcotest.(check bool) "mutated input rejected" false
      (Shuf.verify ~pk:kp.El.pk ~context:"ctx" ~input:bad_input ~output pi);
    (* 5. Wrong group key. *)
    let kp2 = El.keygen r in
    Alcotest.(check bool) "wrong pk rejected" false
      (Shuf.verify ~pk:kp2.El.pk ~context:"ctx" ~input ~output pi);
    (* 6. Wrong context (different generators). *)
    Alcotest.(check bool) "wrong context rejected" false
      (Shuf.verify ~pk:kp.El.pk ~context:"other" ~input ~output pi)

  let test_shuffle_proof_not_a_permutation () =
    let r = rng () in
    let kp = El.keygen r in
    let input = make_batch r kp.El.pk 4 1 in
    (* An adversarial "shuffle" that drops input 0 and duplicates input 1:
       build it by rerandomizing manually, then try to prove it with a forged
       witness. The proof must not verify. *)
    let fake_perm = [| 1; 1; 2; 3 |] in
    let rerands = Array.init 4 (fun _ -> [| G.Scalar.random r |]) in
    let output =
      Array.init 4 (fun j ->
          Array.mapi
            (fun w ct ->
              let r' = rerands.(j).(w) in
              { El.r = G.mul ct.El.r (G.pow_gen r');
                El.c = G.mul ct.El.c (G.pow kp.El.pk r');
                El.y = None })
            input.(fake_perm.(j)))
    in
    let witness = { El.vperm = fake_perm; El.vrerands = rerands } in
    let pi = Shuf.prove r ~pk:kp.El.pk ~context:"ctx" ~input ~output ~witness in
    Alcotest.(check bool) "non-permutation rejected" false
      (Shuf.verify ~pk:kp.El.pk ~context:"ctx" ~input ~output pi)

  let test_shuffle_decrypts_correctly () =
    let r = rng () in
    let kp = El.keygen r in
    let msgs = Array.init 5 (fun _ -> G.random r) in
    let input = Array.map (fun m -> fst (El.enc_vec r kp.El.pk [| m |])) msgs in
    let output, witness = Option.get (El.shuffle_vec r kp.El.pk input) in
    let pi = Shuf.prove r ~pk:kp.El.pk ~context:"c" ~input ~output ~witness in
    Alcotest.(check bool) "proof ok" true (Shuf.verify ~pk:kp.El.pk ~context:"c" ~input ~output pi);
    let key m = Atom_util.Hex.encode (G.to_bytes m) in
    let out_msgs =
      Array.map (fun v -> key (Option.get (El.dec kp.El.sk v.(0)))) output
    in
    Alcotest.(check (list string)) "multiset preserved"
      (List.sort compare (Array.to_list (Array.map key msgs)))
      (List.sort compare (Array.to_list out_msgs))

  (* ---- pooled ReEnc steps and the closed-form shuffle chain ---- *)

  module Ns = Atom_rpc.Node_shared.Make (G)
  module RP = Ns.Pr.P.Reenc_proof (* the proofs [Ns]'s blobs carry *)
  module RP_enc = Ns.Pr.P.Enc_proof

  let with_pool2 (f : Atom_exec.Pool.t option -> unit) : unit =
    f None;
    let p = Atom_exec.Pool.create ~domains:2 () in
    Fun.protect ~finally:(fun () -> Atom_exec.Pool.shutdown p) (fun () -> f (Some p))

  let step_input r =
    let kp = El.keygen r in
    Array.init 3 (fun _ -> fst (El.enc_vec r kp.El.pk [| G.random r; G.random r |]))

  let vecs_bytes vs = String.concat "" (Array.to_list (Array.map El.vec_to_bytes vs))

  (* A step over a batch as one job over its components produces the
     bytes of the elementwise path: per-component steps drawing from one
     generator in unit order, component order. *)
  let test_pooled_reenc_step_bytes () =
    let r = rng () in
    let batch = step_input r in
    let share = G.Scalar.random r and coeff = G.Scalar.random r in
    let next = (El.keygen r).El.pk in
    let seed = 0x5e9 in
    let each f = Array.map (Array.map f) batch in
    List.iter
      (fun next_pk ->
        let layer = if next_pk = None then "exit" else "mid" in
        let er = Atom_util.Rng.create seed in
        let proven =
          each (fun ct -> RP.reenc_with_proof er ~share ~coeff ~next_pk ~context:"s" ct)
        in
        let want_nizk = vecs_bytes (Array.map (Array.map fst) proven) in
        let want_proofs = Array.map (fun u -> Ns.reenc_proofs_to_blob (Array.map snd u)) proven in
        let er = Atom_util.Rng.create seed in
        let want_plain =
          vecs_bytes (each (fun ct -> fst (El.reenc er ~share ~coeff ~next_pk ct)))
        in
        with_pool2 (fun pool ->
            let tag s =
              Printf.sprintf "%s %s (%s)" layer s (if pool = None then "no pool" else "2 domains")
            in
            let out, pis =
              RP.reenc_batch_with_proof ?pool (Atom_util.Rng.create seed) ~share ~coeff
                ~next_pk ~context:"s" batch
            in
            Alcotest.(check string) (tag "nizk ciphertexts") want_nizk (vecs_bytes out);
            Alcotest.(check (array string)) (tag "nizk proof blobs") want_proofs
              (Array.map Ns.reenc_proofs_to_blob pis);
            let out, _ =
              El.reenc_batch ?pool (Atom_util.Rng.create seed) ~share ~coeff ~next_pk batch
            in
            Alcotest.(check string) (tag "trap/basic ciphertexts") want_plain (vecs_bytes out)))
      [ Some next; None ]

  (* The pooled hop check reaches the elementwise verdict, with and
     without one tampered component. *)
  let test_pooled_verify_hop_verdict () =
    let r = rng () in
    let input = step_input r in
    let share = G.Scalar.random r in
    let next_pk = Some (El.keygen r).El.pk in
    let eff_pk = G.pow_gen share in
    let output, pis =
      RP.reenc_batch_with_proof r ~share ~next_pk ~context:"h" input
    in
    let blobs = Array.map Ns.reenc_proofs_to_blob pis in
    let tampered = Array.map Array.copy output in
    tampered.(1).(1) <- { (tampered.(1).(1)) with El.c = G.mul tampered.(1).(1).El.c G.generator };
    List.iter
      (fun (what, output) ->
        let elementwise = ref true in
        Array.iteri
          (fun u v ->
            Array.iteri
              (fun c pi ->
                if
                  not
                    (RP.verify ~eff_pk ~next_pk ~context:"h" ~input:input.(u).(c)
                       ~output:output.(u).(c) pi)
                then elementwise := false)
              v)
          pis;
        Alcotest.(check bool) (what ^ " elementwise verdict") (what = "honest") !elementwise;
        with_pool2 (fun pool ->
            Alcotest.(check bool)
              (Printf.sprintf "%s verify_hop (%s)" what
                 (if pool = None then "no pool" else "2 domains"))
              !elementwise
              (Ns.verify_hop ?pool ~eff_pk ~next_pk ~context:"h" ~input ~output blobs)))
      [ ("honest", output); ("tampered", tampered) ]

  (* Every proof phase is one pooled job on a 2-domain pool, and the
     shuffle prover two, one on each side of its challenges; a verifier
     pools at most its weighted MSM. The pool's own job counter counts
     them, and the pool is also the default, so a phase that dropped its
     [?pool] would still be counted. *)
  let test_jobs_per_phase () =
    let obs = Atom_obs.Ctx.create () in
    let pool = Atom_exec.Pool.create ~obs ~domains:2 () in
    let prev = Atom_exec.Pool.default () in
    Atom_exec.Pool.set_default (Some pool);
    Fun.protect
      ~finally:(fun () ->
        Atom_exec.Pool.set_default prev;
        Atom_exec.Pool.shutdown pool)
      (fun () ->
        let count () =
          Atom_obs.Metrics.counter_value (Atom_obs.Ctx.metrics obs) "exec.pool.jobs"
        in
        let jobs f =
          let before = count () in
          let v = f () in
          (v, count () -. before)
        in
        let pin what want f =
          let v, n = jobs f in
          Alcotest.(check (float 0.)) (what ^ " jobs") want n;
          v
        in
        let r = rng () in
        let kp = El.keygen r in
        let ms () = [| G.random r; G.random r |] in
        let units =
          Array.init 4 (fun _ ->
              fst
                (pin "Enc with EncProofs" 1. (fun () ->
                     RP_enc.enc_vec_with_proof ~pool r ~pk:kp.El.pk ~context:"j" (ms ()))))
        in
        ignore (pin "Enc" 1. (fun () -> El.enc_vec ~pool r kp.El.pk (ms ())));
        let shuffled, witness =
          Option.get (pin "shuffle_vec" 1. (fun () -> El.shuffle_vec ~pool r kp.El.pk units))
        in
        let pi =
          pin "ShufProof prove" 2. (fun () ->
              Shuf.prove ~pool r ~pk:kp.El.pk ~context:"j" ~input:units ~output:shuffled ~witness)
        in
        let ok, n =
          jobs (fun () ->
              Shuf.verify ~pool ~pk:kp.El.pk ~context:"j" ~input:units ~output:shuffled pi)
        in
        Alcotest.(check bool) "ShufProof verifies" true ok;
        Alcotest.(check bool) "ShufProof verify pools its generators and its MSM" true (n <= 2.);
        let share = G.Scalar.random r in
        List.iter
          (fun next_pk ->
            let layer = if next_pk = None then "exit" else "mid" in
            let output, pis =
              pin (layer ^ " proven ReEnc step") 1. (fun () ->
                  RP.reenc_batch_with_proof ~pool r ~share ~next_pk ~context:"j" shuffled)
            in
            ignore
              (pin (layer ^ " ReEnc step") 1. (fun () ->
                   El.reenc_batch ~pool r ~share ~next_pk shuffled));
            let ok, n =
              jobs (fun () ->
                  RP.verify_batch ~pool ~eff_pk:(G.pow_gen share) ~next_pk ~context:"j"
                    ~input:shuffled ~output pis)
            in
            Alcotest.(check bool) (layer ^ " ReEncProofs verify") true ok;
            Alcotest.(check bool) (layer ^ " ReEncProof verify pools at most its MSM") true
              (n <= 1.))
          [ Some (El.keygen r).El.pk; None ])

  (* The provers' bytes for a fixed seed do not depend on the pool, and
     the one-call encryption with EncProofs is [enc_vec] then a [prove]
     per component, byte for byte. *)
  let test_proof_bytes_pool_independent () =
    let run pool =
      let r = Atom_util.Rng.create 0x0b7e in
      let kp = El.keygen r in
      let ms = Array.init 5 (fun _ -> [| G.random r; G.random r |]) in
      let seed = 0x5eed in
      let er = Atom_util.Rng.create seed in
      let split =
        Array.map
          (fun m ->
            let v, rs = El.enc_vec er kp.El.pk m in
            let prove i ct = RP_enc.prove er ~pk:kp.El.pk ~context:"b" ct ~randomness:rs.(i) in
            (v, Array.mapi prove v))
          ms
      in
      let er = Atom_util.Rng.create seed in
      let joint = Array.map (RP_enc.enc_vec_with_proof ?pool er ~pk:kp.El.pk ~context:"b") ms in
      let enc_bytes =
        Array.map (fun (v, pis) ->
            El.vec_to_bytes v ^ String.concat "" (Array.to_list (Array.map RP_enc.to_bytes pis)))
      in
      Alcotest.(check (array string)) "enc_vec_with_proof = enc_vec + prove each" (enc_bytes split)
        (enc_bytes joint);
      let units = Array.map fst joint in
      let shuffled, witness = Option.get (El.shuffle_vec ?pool r kp.El.pk units) in
      let shuf =
        Shuf.to_bytes
          (Shuf.prove ?pool r ~pk:kp.El.pk ~context:"b" ~input:units ~output:shuffled ~witness)
      in
      let out, pis =
        RP.reenc_batch_with_proof ?pool r ~share:kp.El.sk ~next_pk:(Some kp.El.pk) ~context:"b"
          shuffled
      in
      (enc_bytes joint, shuf, vecs_bytes out, Array.map Ns.reenc_proofs_to_blob pis)
    in
    let want = run None in
    with_pool2 (fun pool ->
        let enc, shuf, out, blobs = run pool and enc', shuf', out', blobs' = want in
        let tag s = Printf.sprintf "%s (%s)" s (if pool = None then "no pool" else "2 domains") in
        Alcotest.(check (array string)) (tag "EncProof units") enc' enc;
        Alcotest.(check string) (tag "ShufProof bytes") shuf' shuf;
        Alcotest.(check string) (tag "ReEnc ciphertexts") out' out;
        Alcotest.(check (array string)) (tag "ReEncProof blobs") blobs' blobs)

  (* The closed forms of the chain and of its announcements equal the
     prover's recurrences ĉ_i = g^{ŝ_i}·ĉ_{i-1}^{u'_i} and
     t̂_i = g^{ŵ_i}·ĉ_{i-1}^{w'_i} (ĉ_{-1} = h), link for link, and the
     last link's d is the endpoint secret. *)
  let test_commitment_chain_closed_form () =
    let r = rng () in
    List.iter
      (fun n ->
        let h = G.random r in
        let draw () = Array.init n (fun _ -> G.Scalar.random r) in
        let shat = draw () in
        let uprime = draw () in
        let w_hat = draw () in
        let w_prime = draw () in
        let chain = Array.make n G.one and ann = Array.make n G.one in
        let d = ref G.Scalar.zero and prev = ref h in
        for i = 0 to n - 1 do
          ann.(i) <- G.pow2 G.generator w_hat.(i) !prev w_prime.(i);
          chain.(i) <- G.pow2 G.generator shat.(i) !prev uprime.(i);
          d := G.Scalar.add shat.(i) (G.Scalar.mul uprime.(i) !d);
          prev := chain.(i)
        done;
        let e = Shuf.chain_exponents ~shat ~uprime ~w_hat ~w_prime in
        let chain_e = Array.sub e 0 n and ann_e = Array.sub e n n in
        let bytes xs = Array.to_list (Array.map G.to_bytes xs) in
        let closed es = bytes (Array.map (fun (eg, eh) -> G.pow2 G.generator eg h eh) es) in
        Alcotest.(check (list string)) (Printf.sprintf "chain n=%d" n) (bytes chain) (closed chain_e);
        Alcotest.(check (list string))
          (Printf.sprintf "announcements n=%d" n) (bytes ann) (closed ann_e);
        Alcotest.(check bool)
          (Printf.sprintf "d n=%d" n) true
          (G.Scalar.equal !d (fst chain_e.(n - 1))))
      [ 1; 2; 5 ]

  (* ---- batch verification: soundness of the weighted MSM ---- *)

  module B = Atom_zkp.Batch_verify.Make (G)

  let enc_claims r kp n =
    Array.init n (fun i ->
        let ct, randomness = El.enc r kp.El.pk (G.random r) in
        let context = Printf.sprintf "gid-%d" (i mod 2) in
        { P.Enc_proof.pk = kp.El.pk; context; ct;
          proof = P.Enc_proof.prove r ~pk:kp.El.pk ~context ct ~randomness })

  (* A bad [a] or [u] planted at any index of a batch sinks the batch,
     with and without a pool; the honest batch passes. *)
  let test_enc_batch_plants () =
    let r = rng () in
    let kp = El.keygen r in
    let claims = enc_claims r kp 5 in
    let plant i f =
      Array.mapi (fun j c -> if j = i then { c with P.Enc_proof.proof = f c.P.Enc_proof.proof } else c) claims
    in
    with_pool2 (fun pool ->
        let tag s = Printf.sprintf "%s (%s)" s (if pool = None then "no pool" else "2 domains") in
        Alcotest.(check bool) (tag "honest batch") true (P.Enc_proof.verify_batch ?pool claims);
        Alcotest.(check bool) (tag "empty batch") true (P.Enc_proof.verify_batch ?pool [||]);
        for i = 0 to Array.length claims - 1 do
          List.iter
            (fun (what, f) ->
              Alcotest.(check bool)
                (tag (Printf.sprintf "bad %s at %d" what i))
                false
                (P.Enc_proof.verify_batch ?pool (plant i f)))
            [
              ("a", fun (pi : P.Enc_proof.t) -> { pi with a = G.mul pi.a G.generator });
              ("u", fun (pi : P.Enc_proof.t) -> { pi with u = G.Scalar.add pi.u G.Scalar.one });
            ]
        done)

  (* Two forged responses whose errors cancel in the generator's summed
     exponent: under unit weights (u0 + δ, u1 − δ), or under the weights a
     transcript without the responses would give (u0 + δ·w1, u1 − δ·w0).
     Weights bound to every response reject both. *)
  let test_enc_batch_compensating_pair () =
    let r = rng () in
    let kp = El.keygen r in
    let claims = enc_claims r kp 2 in
    let delta = G.Scalar.random r in
    let forge d0 d1 =
      Array.mapi
        (fun i c ->
          let pi = c.P.Enc_proof.proof in
          { c with P.Enc_proof.proof = { pi with u = G.Scalar.add pi.u (if i = 0 then d0 else d1) } })
        claims
    in
    let digest (c : P.Enc_proof.claim) =
      let tr = Atom_zkp.Transcript.create ~domain:"enc-proof" in
      Atom_zkp.Transcript.add_list tr
        [ c.context; G.to_bytes c.pk; G.to_bytes c.ct.El.r; G.to_bytes c.ct.El.c;
          G.to_bytes c.proof.a ];
      Atom_zkp.Transcript.digest tr
    in
    let tr = Atom_zkp.Transcript.create ~domain:"sigma-batch" in
    Array.iter (fun c -> Atom_zkp.Transcript.add tr (digest c)) claims;
    let w = B.weights tr 2 in
    with_pool2 (fun pool ->
        let tag s = Printf.sprintf "%s (%s)" s (if pool = None then "no pool" else "2 domains") in
        Alcotest.(check bool) (tag "honest pair") true (P.Enc_proof.verify_batch ?pool claims);
        Alcotest.(check bool) (tag "pair cancelling under unit weights") false
          (P.Enc_proof.verify_batch ?pool (forge delta (G.Scalar.neg delta)));
        Alcotest.(check bool) (tag "pair cancelling under response-free weights") false
          (P.Enc_proof.verify_batch ?pool
             (forge (G.Scalar.mul delta w.(1)) (G.Scalar.neg (G.Scalar.mul delta w.(0))))))

  (* A bad field planted in any component's proofs sinks a ReEnc step's
     batch: a1, a2 or u of the strip DLEQ, the stripped factor D, and at a
     re-encrypting layer a1, a2 or u of the rerandomization DLEQ. *)
  let test_reenc_batch_plants () =
    let r = rng () in
    let input = step_input r in
    let share = G.Scalar.random r in
    let eff_pk = G.pow_gen share in
    let next = (El.keygen r).El.pk in
    let bump_dleq what (d : P.Dleq.t) =
      match what with
      | `A1 -> { d with a1 = G.mul d.a1 G.generator }
      | `A2 -> { d with a2 = G.mul d.a2 G.generator }
      | `U -> { d with u = G.Scalar.add d.u G.Scalar.one }
    in
    List.iter
      (fun next_pk ->
        let layer = if next_pk = None then "exit" else "mid" in
        let output, pis = P.Reenc_proof.reenc_batch_with_proof r ~share ~next_pk ~context:"p" input in
        let fields =
          [
            ("strip a1", fun (pi : P.Reenc_proof.t) -> { pi with strip_proof = bump_dleq `A1 pi.strip_proof });
            ("strip a2", fun pi -> { pi with strip_proof = bump_dleq `A2 pi.strip_proof });
            ("strip u", fun pi -> { pi with strip_proof = bump_dleq `U pi.strip_proof });
            ("stripped", fun pi -> { pi with stripped = G.mul pi.stripped G.generator });
          ]
          @
          if next_pk = None then []
          else
            List.map
              (fun (what, k) ->
                ( "rerand " ^ what,
                  fun (pi : P.Reenc_proof.t) ->
                    { pi with rerand_proof = Option.map (bump_dleq k) pi.rerand_proof } ))
              [ ("a1", `A1); ("a2", `A2); ("u", `U) ]
        in
        with_pool2 (fun pool ->
            let tag s =
              Printf.sprintf "%s %s (%s)" layer s (if pool = None then "no pool" else "2 domains")
            in
            let verify pis =
              P.Reenc_proof.verify_batch ?pool ~eff_pk ~next_pk ~context:"p" ~input ~output pis
            in
            Alcotest.(check bool) (tag "honest step") true (verify pis);
            Array.iteri
              (fun u v ->
                Array.iteri
                  (fun c _ ->
                    List.iter
                      (fun (what, f) ->
                        let bad = Array.map Array.copy pis in
                        bad.(u).(c) <- f bad.(u).(c);
                        Alcotest.(check bool)
                          (tag (Printf.sprintf "bad %s at unit %d component %d" what u c))
                          false (verify bad))
                      fields)
                  v)
              pis))
      [ Some next; None ]

  (* A server that knows its share but lies in a second leg: its strip
     factor D' = Y^x·g (or, re-encrypting, an extra factor g in c') comes
     with a DLEQ whose first leg is honest and whose second leg is false.
     The output is made consistent with the lie, so only the second leg
     can catch it, in any component of a step, at mid and exit layers. *)
  let test_reenc_batch_false_second_leg () =
    let r = rng () in
    let input = step_input r in
    let share = G.Scalar.random r in
    let eff_pk = G.pow_gen share in
    let next = (El.keygen r).El.pk in
    let liar (ct : El.cipher) ~next_pk ~junk_in =
      let y = ct.El.r (* a fresh ciphertext: Y is R, the carried R is one *) in
      let d = G.pow y share in
      let d = if junk_in = `Strip then G.mul d G.generator else d in
      let strip_proof = P.Dleq.prove r ~context:"f" ~g1:G.generator ~h1:eff_pk ~g2:y ~h2:d ~x:share in
      match next_pk with
      | None ->
          ( { El.r = G.one; c = G.div ct.El.c d; y = Some y },
            { P.Reenc_proof.stripped = d; strip_proof; rerand_proof = None } )
      | Some pk' ->
          let r' = G.Scalar.random r in
          let gr = G.pow_gen r' and pkr = G.pow pk' r' in
          let pkr = if junk_in = `Rerand then G.mul pkr G.generator else pkr in
          let rerand_proof =
            P.Dleq.prove r ~context:"f" ~g1:G.generator ~h1:gr ~g2:pk' ~h2:pkr ~x:r'
          in
          ( { El.r = gr; c = G.mul (G.div ct.El.c d) pkr; y = Some y },
            { P.Reenc_proof.stripped = d; strip_proof; rerand_proof = Some rerand_proof } )
    in
    List.iter
      (fun (next_pk, junk_in, what) ->
        let output, pis = P.Reenc_proof.reenc_batch_with_proof r ~share ~next_pk ~context:"f" input in
        with_pool2 (fun pool ->
            let verify output pis =
              P.Reenc_proof.verify_batch ?pool ~eff_pk ~next_pk ~context:"f" ~input ~output pis
            in
            let tag s = Printf.sprintf "%s %s (%s)" what s (if pool = None then "no pool" else "2 domains") in
            Alcotest.(check bool) (tag "honest step") true (verify output pis);
            Array.iteri
              (fun u v ->
                Array.iteri
                  (fun c ct ->
                    let output = Array.map Array.copy output and pis = Array.map Array.copy pis in
                    let out, pi = liar ct ~next_pk ~junk_in in
                    output.(u).(c) <- out;
                    pis.(u).(c) <- pi;
                    Alcotest.(check bool)
                      (tag (Printf.sprintf "lie at unit %d component %d" u c))
                      false (verify output pis))
                  v)
              input))
      [
        (None, `Strip, "exit strip");
        (Some next, `Strip, "mid strip");
        (Some next, `Rerand, "mid rerand");
      ]

  let cases =
    let n = G.name in
    [
      Alcotest.test_case (n ^ " enc proof") `Quick test_enc_proof;
      Alcotest.test_case (n ^ " enc proof vec") `Quick test_enc_proof_vec;
      Alcotest.test_case (n ^ " dleq") `Quick test_dleq;
      Alcotest.test_case (n ^ " reenc proof chain") `Quick test_reenc_proof_chain;
      Alcotest.test_case (n ^ " reenc proof exit") `Quick test_reenc_proof_exit_layer;
      Alcotest.test_case (n ^ " reenc proof wrong share") `Quick test_reenc_proof_wrong_share;
      Alcotest.test_case (n ^ " shuffle proof complete") `Quick test_shuffle_proof_complete;
      Alcotest.test_case (n ^ " shuffle proof tamper") `Quick test_shuffle_proof_tamper;
      Alcotest.test_case (n ^ " shuffle proof non-permutation") `Quick
        test_shuffle_proof_not_a_permutation;
      Alcotest.test_case (n ^ " shuffle + decrypt") `Quick test_shuffle_decrypts_correctly;
      Alcotest.test_case (n ^ " pooled reenc step bytes") `Quick test_pooled_reenc_step_bytes;
      Alcotest.test_case (n ^ " pooled verify_hop verdict") `Quick test_pooled_verify_hop_verdict;
      Alcotest.test_case (n ^ " shuffle chain closed form") `Quick
        test_commitment_chain_closed_form;
      Alcotest.test_case (n ^ " one pooled job per proof phase") `Quick test_jobs_per_phase;
      Alcotest.test_case (n ^ " proof bytes pool-independent") `Quick
        test_proof_bytes_pool_independent;
      Alcotest.test_case (n ^ " enc batch rejects a planted field") `Quick test_enc_batch_plants;
      Alcotest.test_case (n ^ " enc batch rejects a compensating pair") `Quick
        test_enc_batch_compensating_pair;
      Alcotest.test_case (n ^ " reenc batch rejects a planted field") `Quick
        test_reenc_batch_plants;
      Alcotest.test_case (n ^ " reenc batch rejects a false second leg") `Quick
        test_reenc_batch_false_second_leg;
    ]
end

let suite () =
  let module G_zp = (val Atom_group.Registry.zp_test ()) in
  let module Zp_run = Run (G_zp) in
  ("zkp", Zp_run.cases)

let suite_p256 () =
  let module P256_run = Run (Atom_group.P256) in
  ("zkp-p256", P256_run.cases)
