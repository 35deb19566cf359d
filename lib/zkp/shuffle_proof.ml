(* Verifiable shuffle of ElGamal vectors — a commitment-consistent proof of
   shuffle in the style of Terelius–Wikström (the production descendant of
   the Neff shuffle [59] the paper uses; see DESIGN.md for the
   substitution rationale).

   Statement: output = π(rerandomized input) under group key X, for a secret
   permutation π and secret exponents s. Structure:

   1. Pedersen commitments c_j = g^{r_j}·h_{π(j)} to the permutation, over
      generators h_1..h_n with unknown discrete logs ([G.of_hash]).
   2. Fiat–Shamir challenges u_1..u_n; the prover works with the permuted
      u'_i = u_{π⁻¹(i)} without revealing them.
   3. A chain ĉ_i = g^{ŝ_i}·ĉ_{i-1}^{u'_i} whose endpoint pins Π u'_i = Π u_i
      (Schwartz–Zippel: together with Σ-consistency from the commitments this
      forces u' to be a permutation of u).
   4. A sigma protocol, with one shared challenge v, proving consistent
      openings of:
        (A)  Π c_j^{u_j}          = g^{r̄}·Π h_i^{u'_i}
        (B)  Π c_j / Π h_i        = g^{r̂}
        (C)  ĉ_n / h^{Π u_j}      = g^{d}
        (D)  ĉ_i                  = g^{ŝ_i}·ĉ_{i-1}^{u'_i}        (each i)
        (E)  Π (e'_j)^{u_j}       = Enc(1; s̃)·Π e_i^{u'_i}        (each
             ciphertext column, both components)

   Messages are vector ciphertexts (width ≥ 1 group elements, one shared
   permutation); relation (E) is proven once per column. *)

module Make
    (G : Atom_group.Group_intf.GROUP)
    (El : module type of Atom_elgamal.Elgamal.Make (G)) =
struct
  module S = G.Scalar
  module Bin = Atom_util.Bin
  module Io = Atom_group.Group_intf.Bin_io (G)
  module Batch = Batch_verify.Make (G)

  type t = {
    perm_comm : G.t array; (* c_j *)
    chain : G.t array; (* ĉ_1..ĉ_n *)
    t_a : G.t;
    t_b : G.t;
    t_c : G.t;
    t_chain : G.t array; (* t̂_i *)
    t_er : G.t array; (* per column: announcement for the R component *)
    t_ec : G.t array; (* per column: announcement for the c component *)
    k_rbar : S.t;
    k_rhat : S.t;
    k_d : S.t;
    k_s : S.t array; (* per column *)
    k_prime : S.t array; (* n *)
    k_hat : S.t array; (* n *)
  }

  let generator_h (context : string) : G.t = G.of_hash ("shuffle-h\000" ^ context)
  let generator_hi (context : string) (i : int) : G.t =
    G.of_hash (Printf.sprintf "shuffle-hi\000%s\000%d" context i)

  let statement_transcript ~(pk : G.t) ~(context : string) (input : El.vec array)
      (output : El.vec array) : Transcript.t =
    let tr = Transcript.create ~domain:"shuffle-proof" in
    Transcript.add tr context;
    Transcript.add tr (G.to_bytes pk);
    Array.iter (fun v -> Transcript.add tr (El.vec_to_bytes v)) input;
    Array.iter (fun v -> Transcript.add tr (El.vec_to_bytes v)) output;
    tr

  let add_all (tr : Transcript.t) (xs : G.t array) : unit =
    Array.iter (fun x -> Transcript.add tr (G.to_bytes x)) xs

  (* The challenges u, over the statement and the permutation commitments. *)
  let challenges_u (tr : Transcript.t) (perm_comm : G.t array) : S.t array =
    add_all tr perm_comm;
    Array.map G.hash_to_scalar (Transcript.digest_n tr (Array.length perm_comm))

  (* The challenge v, over everything the prover announced after u. *)
  let challenge_v (tr : Transcript.t) (pi : t) : S.t =
    add_all tr pi.chain;
    add_all tr [| pi.t_a; pi.t_b; pi.t_c |];
    List.iter (add_all tr) [ pi.t_chain; pi.t_er; pi.t_ec ];
    G.hash_to_scalar (Transcript.digest tr)

  (* width of the vector ciphertexts; all must agree. *)
  let width_of (vs : El.vec array) : int option =
    if Array.length vs = 0 then None
    else begin
      let w = Array.length vs.(0) in
      if w = 0 || Array.exists (fun v -> Array.length v <> w) vs then None else Some w
    end

  (* The chain ĉ_i = g^{ŝ_i}·ĉ_{i-1}^{u'_i} (ĉ_{-1} = h) and its
     announcements t̂_i = g^{ŵ_i}·ĉ_{i-1}^{w'_i} in closed form over g and
     h: ĉ_i = g^{d_i}·h^{U_i} with d_i = ŝ_i + u'_i·d_{i-1} (d_{-1} = 0)
     and U_i = Π_{k≤i} u'_k (U_{-1} = 1), so
     t̂_i = g^{ŵ_i + w'_i·d_{i-1}}·h^{w'_i·U_{i-1}}: cheap scalar
     recurrences, after which no link's exponentiation waits on another.
     The n links' exponents come first, then the n announcements'. *)
  let chain_exponents ~(shat : S.t array) ~(uprime : S.t array) ~(w_hat : S.t array)
      ~(w_prime : S.t array) : (S.t * S.t) array =
    let n = Array.length shat in
    let e = Array.make (2 * n) (S.zero, S.one) in
    for i = 0 to n - 1 do
      let d, u = if i = 0 then (S.zero, S.one) else e.(i - 1) in
      e.(i) <- (S.add shat.(i) (S.mul uprime.(i) d), S.mul u uprime.(i));
      e.(n + i) <- (S.add w_hat.(i) (S.mul w_prime.(i) d), S.mul w_prime.(i) u)
    done;
    e

  (* Two pooled jobs: every random value is drawn first, in the order
     this proof has always drawn them; job A computes what the
     challenges u do not depend on, and job B, after u, the rest. *)
  let prove ?pool (rng : Atom_util.Rng.t) ~(pk : G.t) ~(context : string)
      ~(input : El.vec array) ~(output : El.vec array)
      ~(witness : El.vec_shuffle_witness) : t =
    let n = Array.length input in
    let width = match width_of input with Some w -> w | None -> invalid_arg "Shuffle_proof.prove" in
    let perm = witness.El.vperm in
    let r = Array.init n (fun _ -> S.random rng) in
    let shat = Array.init n (fun _ -> S.random rng) in
    let w_rbar = S.random rng and w_rhat = S.random rng and w_d = S.random rng in
    let w_s = Array.init width (fun _ -> S.random rng) in
    let w_prime = Array.init n (fun _ -> S.random rng) in
    let w_hat = Array.init n (fun _ -> S.random rng) in
    let h = generator_h context in
    (* An announcement: an MSM of n + 1 terms, (b0, k0) and base_i^{w'_i}. *)
    let announce (b0, k0) base =
      G.msm
        (Array.init (n + 1) (fun i ->
             if i = 0 then (b0, k0) else (base (i - 1), w_prime.(i - 1))))
    in
    (* Job A, the long items first and each claimed alone: every column's
       two announcements, each generator h_k with the permutation
       commitment c_j = g^{r_j}·h_k of the j with π(j) = k (a unit-scalar
       MSM, so curve backends spend one normalization, not two), then t_b
       and t_c. *)
    let src = Array.make n 0 in
    Array.iteri (fun j k -> src.(k) <- j) perm;
    let a =
      Atom_exec.Pool.tabulate ?pool ~chunk:1 ((2 * width) + n + 2) (fun k ->
          if k < width then (announce (G.generator, w_s.(k)) (fun i -> input.(i).(k).El.r), G.one)
          else if k < 2 * width then
            (announce (pk, w_s.(k - width)) (fun i -> input.(i).(k - width).El.c), G.one)
          else if k < (2 * width) + n then begin
            let k = k - (2 * width) in
            let hk = generator_hi context k in
            (hk, G.msm [| (G.generator, r.(src.(k))); (hk, S.one) |])
          end
          else (G.pow_gen (if k = (2 * width) + n then w_rhat else w_d), G.one))
    in
    let t_er = Array.init width (fun w -> fst a.(w)) in
    let t_ec = Array.init width (fun w -> fst a.(width + w)) in
    let hi = Array.init n (fun k -> fst a.((2 * width) + k)) in
    let perm_comm = Array.init n (fun j -> snd a.((2 * width) + perm.(j))) in
    let t_b = fst a.((2 * width) + n) and t_c = fst a.((2 * width) + n + 1) in
    (* challenges u, permuted u' *)
    let tr = statement_transcript ~pk ~context input output in
    let u = challenges_u tr perm_comm in
    let uprime = Array.make n S.zero in
    Array.iteri (fun j uj -> uprime.(perm.(j)) <- uj) u;
    (* Job B: t_a (the long item), then every chain link and its
       announcement, each claimed alone. *)
    let e = chain_exponents ~shat ~uprime ~w_hat ~w_prime in
    let b =
      Atom_exec.Pool.tabulate ?pool ~chunk:1 ((2 * n) + 1) (fun i ->
          if i = 0 then announce (G.generator, w_rbar) (fun i -> hi.(i))
          else G.pow2 G.generator (fst e.(i - 1)) h (snd e.(i - 1)))
    in
    let t_a = b.(0) and chain = Array.sub b 1 n and t_chain = Array.sub b (n + 1) n in
    (* secrets of the aggregate relations *)
    let sum = Array.fold_left S.add S.zero in
    let rbar = sum (Array.map2 S.mul r u) and rhat = sum r and d = fst e.(n - 1) in
    let stilde =
      Array.init width (fun w -> sum (Array.map2 (fun s uj -> S.mul s.(w) uj) witness.El.vrerands u))
    in
    let z = S.zero in
    let pi =
      { perm_comm; chain; t_a; t_b; t_c; t_chain; t_er; t_ec;
        k_rbar = z; k_rhat = z; k_d = z; k_s = [||]; k_prime = [||]; k_hat = [||] }
    in
    let v = challenge_v tr pi in
    let resp w x = S.add w (S.mul v x) in
    {
      pi with
      k_rbar = resp w_rbar rbar;
      k_rhat = resp w_rhat rhat;
      k_d = resp w_d d;
      k_s = Array.init width (fun w -> resp w_s.(w) stilde.(w));
      k_prime = Array.init n (fun i -> resp w_prime.(i) uprime.(i));
      k_hat = Array.init n (fun i -> resp w_hat.(i) shat.(i));
    }

  let verify ?pool ~(pk : G.t) ~(context : string) ~(input : El.vec array)
      ~(output : El.vec array) (pi : t) : bool =
    let n = Array.length input in
    match width_of input with
    | None -> false
    | Some width ->
        Array.length output = n
        && width_of output = Some width
        && Array.length pi.perm_comm = n
        && Array.length pi.chain = n
        && Array.length pi.t_chain = n
        && Array.length pi.k_prime = n
        && Array.length pi.k_hat = n
        && Array.length pi.t_er = width
        && Array.length pi.t_ec = width
        && Array.length pi.k_s = width
        && (not (Array.exists (fun v -> Array.exists (fun ct -> Option.is_some ct.El.y) v) input))
        && (not (Array.exists (fun v -> Array.exists (fun ct -> Option.is_some ct.El.y) v) output))
        && begin
             let h = generator_h context in
             let hi = Atom_exec.Pool.tabulate ?pool n (generator_hi context) in
             let tr = statement_transcript ~pk ~context input output in
             let u = challenges_u tr pi.perm_comm in
             let v = challenge_v tr pi in
             (* Batched verification. Each relation (A)–(E) is rearranged
                into a product that must equal the identity, scaled by an
                independent transcript-derived coefficient ρ, and the whole
                system is folded into ONE multi-scalar multiplication: a
                curve backend pays a single Pippenger run over ~(6+4w)·n
                points instead of ~6n full exponentiations. The ρ are
                [Batch.weights] of the transcript *after* every prover
                message is absorbed, so a violated relation survives the
                random linear combination with probability at most 2^-128
                (see [Batch_verify]).

                The rearranged identity forms (all checked as Π = 1):
                  (A)   g^{k_rbar} · Π hi_i^{k'_i} · Π c_j^{−v·u_j} · t_a^{−1}
                  (B)   g^{k_rhat} · Π c_j^{−v} · Π hi_i^{v} · t_b^{−1}
                  (C)   g^{k_d} · ĉ_{n−1}^{−v} · h^{v·Πu} · t_c^{−1}
                  (D_i) g^{k̂_i} · prev_i^{k'_i} · ĉ_i^{−v} · t̂_i^{−1}
                  (E_w) g^{k_s}·Π in_r^{k'}·Π out_r^{−v·u}·t_er^{−1}  (and
                        the c-component twin with pk^{k_s} and t_ec)

                Exponents on shared bases (g, pk, h, hi, c_j, ĉ_i) are
                folded in scalar arithmetic before the group ever sees
                them, so each base appears once in the MSM. *)
             Transcript.add tr "batch-verify";
             let rho = Batch.weights tr (3 + n + (2 * width)) in
             let rho_a = rho.(0) and rho_b = rho.(1) and rho_c = rho.(2) in
             let rho_d i = rho.(3 + i) in
             let rho_er w = rho.(3 + n + (2 * w)) in
             let rho_ec w = rho.(3 + n + (2 * w) + 1) in
             let vu = Array.map (S.mul v) u in
             let u_prod = Array.fold_left S.mul S.one u in
             let acc = Batch.create ~shared:[ G.generator; h; pk ] in
             let push = Batch.add acc in
             let add_gen = Batch.add acc G.generator in
             (* (A) + (B): hi and perm_comm each collect both relations. *)
             add_gen (S.mul rho_a pi.k_rbar);
             add_gen (S.mul rho_b pi.k_rhat);
             for i = 0 to n - 1 do
               push hi.(i) (S.add (S.mul rho_a pi.k_prime.(i)) (S.mul rho_b v));
               push pi.perm_comm.(i)
                 (S.neg (S.add (S.mul rho_a vu.(i)) (S.mul rho_b v)))
             done;
             push pi.t_a (S.neg rho_a);
             push pi.t_b (S.neg rho_b);
             (* (C) + (D): the h and chain exponents fold C's endpoint term,
                D_i's own −v term and D_{i+1}'s prev term. *)
             add_gen (S.mul rho_c pi.k_d);
             push pi.t_c (S.neg rho_c);
             push h (S.mul rho_c (S.mul v u_prod));
             push h (S.mul (rho_d 0) pi.k_prime.(0));
             for i = 0 to n - 1 do
               let rd = rho_d i in
               add_gen (S.mul rd pi.k_hat.(i));
               let ck = ref (S.neg (S.mul rd v)) in
               if i = n - 1 then ck := S.sub !ck (S.mul rho_c v)
               else ck := S.add !ck (S.mul (rho_d (i + 1)) pi.k_prime.(i + 1));
               push pi.chain.(i) !ck;
               push pi.t_chain.(i) (S.neg rd)
             done;
             (* (E) both components per column; pk collects every column. *)
             for w = 0 to width - 1 do
               let rr = rho_er w and rc = rho_ec w in
               add_gen (S.mul rr pi.k_s.(w));
               push pk (S.mul rc pi.k_s.(w));
               for i = 0 to n - 1 do
                 push input.(i).(w).El.r (S.mul rr pi.k_prime.(i));
                 push input.(i).(w).El.c (S.mul rc pi.k_prime.(i));
                 push output.(i).(w).El.r (S.neg (S.mul rr vu.(i)));
                 push output.(i).(w).El.c (S.neg (S.mul rc vu.(i)))
               done;
               push pi.t_er.(w) (S.neg rr);
               push pi.t_ec.(w) (S.neg rc)
             done;
             (* The whole system rides one (pooled) MSM: ~(6+4w)·n points. *)
             Batch.holds ?pool acc
           end

  (* ---- Serialization ----

     Wire layout: u32 n, u32 width, then the fixed-width fields in a fixed
     order. Group elements and scalars use the backend's canonical
     encodings, so decoding validates every element. n and width count
     items at least a byte wide, so a forged header cannot size an array
     beyond the bytes present. *)

  let to_bytes (pi : t) : string =
    let buf = Buffer.create 4096 in
    let el e = Buffer.add_string buf (G.to_bytes e) in
    let sc x = Buffer.add_string buf (S.to_bytes x) in
    Bin.W.u32 buf (Array.length pi.perm_comm);
    Bin.W.u32 buf (Array.length pi.t_er);
    Array.iter el pi.perm_comm;
    Array.iter el pi.chain;
    el pi.t_a;
    el pi.t_b;
    el pi.t_c;
    Array.iter el pi.t_chain;
    Array.iter el pi.t_er;
    Array.iter el pi.t_ec;
    sc pi.k_rbar;
    sc pi.k_rhat;
    sc pi.k_d;
    Array.iter sc pi.k_s;
    Array.iter sc pi.k_prime;
    Array.iter sc pi.k_hat;
    Buffer.contents buf

  let of_bytes (s : string) : t option =
    Bin.R.decode s (fun r ->
        let n = Bin.R.count r ~max:1_000_000 in
        let width = Bin.R.count r ~max:4096 in
        if n < 1 || width < 1 then Bin.R.fail ();
        let els k = Array.init k (fun _ -> Io.element r) in
        let scs k = Array.init k (fun _ -> Io.scalar r) in
        let perm_comm = els n in
        let chain = els n in
        let t_a = Io.element r in
        let t_b = Io.element r in
        let t_c = Io.element r in
        let t_chain = els n in
        let t_er = els width in
        let t_ec = els width in
        let k_rbar = Io.scalar r in
        let k_rhat = Io.scalar r in
        let k_d = Io.scalar r in
        let k_s = scs width in
        let k_prime = scs n in
        let k_hat = scs n in
        {
          perm_comm;
          chain;
          t_a;
          t_b;
          t_c;
          t_chain;
          t_er;
          t_ec;
          k_rbar;
          k_rhat;
          k_d;
          k_s;
          k_prime;
          k_hat;
        })
end
