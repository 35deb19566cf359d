(* Schnorr group backend over a safe prime p = 2q + 1, represented as the
   group of *signed quadratic residues* QR⁺(p) (Hofheinz–Kiltz): the set
   {1, …, q} under a∘b = |a·b mod p|, where |x| = min(x, p − x) picks the
   smaller of the two representatives of {x, −x}.

   For a safe prime, x ↦ |x| is a group isomorphism QR(p) → QR⁺(p) (every
   class {x, −x} contains exactly one quadratic residue and exactly one
   value ≤ q, and the map respects multiplication up to sign), so QR⁺ is
   cyclic of prime order q and DDH-equivalent to the classic residue
   subgroup. The payoff is the decode path: membership in QR⁺ is the range
   check 1 ≤ v ≤ q on the canonical representative — constant time in
   group operations — where membership in QR(p) costs a full Euler-
   criterion exponentiation x^q mod p per element. Wire decode of a
   ciphertext batch is therefore structural, and the batched-validation
   machinery ([check_batch], [Unverified.discharge_batch]) runs at memory
   speed instead of exponentiation speed.

   Much faster than P-256 in pure OCaml, so the protocol test-suites run
   on this backend; the P-256 backend matches the paper's prototype.
   Message embedding is the classic half-range bijection, now with no
   residue test at all: payloads map to c ∈ [1, q] directly, which *is*
   the canonical range. *)

open Atom_nat

type params = { p : Nat.t; q : Nat.t; g : Nat.t }

let derive_params ~(bits : int) ~(seed : int) : params =
  let rng = Atom_util.Rng.create seed in
  let p, q = Prime.random_safe_prime rng ~bits in
  (* 4 = 2² is a quadratic residue, and |4| = 4 (any plausible q exceeds
     4), so 4 generates QR⁺ (q prime means every non-identity element
     generates it). *)
  { p; q; g = Nat.of_int 4 }

let make (params : params) : (module Group_intf.GROUP) =
  let module G = struct
    let name = Printf.sprintf "zp-%d" (Nat.bit_length params.p)
    let ctx_p = Modarith.create params.p
    let ctx_q = Modarith.create params.q

    module Scalar = struct
      type t = Modarith.el

      let zero = Modarith.zero ctx_q
      let one = Modarith.one ctx_q
      let of_int i = Modarith.of_int ctx_q i
      let add = Modarith.add ctx_q
      let sub = Modarith.sub ctx_q
      let mul = Modarith.mul ctx_q
      let neg = Modarith.neg ctx_q
      let inv = Modarith.inv ctx_q
      let equal = Modarith.equal
      let is_zero = Modarith.is_zero
      let random rng = Modarith.random ctx_q rng
      let of_bytes_mod s = Modarith.of_bytes_mod ctx_q s
      let scalar_bytes = (Nat.bit_length params.q + 7) / 8
      let to_bytes s = Modarith.plain_to_bytes (Modarith.to_plain ctx_q s) ~len:scalar_bytes

      (* The exponent every ladder reads, plain limbs of ctx_q's width;
         [Modarith.window] reads them from ctx_p just the same. *)
      let exponent s = Modarith.to_plain ctx_q s
    end

    type t = Modarith.el
    type scalar = Scalar.t

    (* The canonical-range bound in plain limb form, for [norm], [is_member]
       and the wire-decode fast path's threshold compares. *)
    let q_plain = Modarith.plain_of_nat ctx_p params.q

    (* Canonicalize a Z_p* value into QR⁺: pick the representative ≤ q of
       the class {x, −x}. Every public operation ends here, so [equal] and
       [to_bytes] stay structural. *)
    let norm (x : Modarith.el) : Modarith.el =
      if Modarith.plain_leq (Modarith.to_plain ctx_p x) q_plain then x else Modarith.neg ctx_p x

    let generator = Modarith.of_nat ctx_p params.g
    let one = Modarith.one ctx_p
    let mul a b = norm (Modarith.mul ctx_p a b)
    let inv a = norm (Modarith.inv ctx_p a)
    let div a b = mul a (inv b)

    (* One Fermat inversion per batch (Montgomery's trick) instead of one
       per element. *)
    let inv_batch (xs : t array) : t array = Array.map norm (Modarith.inv_batch ctx_p xs)

    let pow_raw x k = norm (Modarith.pow ctx_p x (Scalar.exponent k))

    let pow x k =
      Atom_obs.Opcount.note_pow ();
      pow_raw x k

    let pow_gen k =
      Atom_obs.Opcount.note_pow_gen ();
      pow_raw generator k

    (* Multi-exponentiation. [pow_many] is the honest fallback, one pooled
       map of [pow] (Z_p* has no normalization to share, and
       [Modarith.pow] caches fixed-base tables per context), tallied once
       as a batch; [msm]/[pow2] ride Modarith's Straus, so the batched
       shuffle verifier's big product shares its squarings. *)
    let pow_many ?pool ~fresh keyed =
      let nk = Array.length keyed and nf = Array.length fresh in
      Atom_obs.Opcount.note_batch ~scalars:(nk + nf);
      let all = Atom_exec.Pool.map ?pool (fun (x, k) -> pow_raw x k) (Array.append keyed fresh) in
      (Array.sub all 0 nk, Array.sub all nk nf)

    include Group_intf.Keyed_batches (struct
      type nonrec t = t
      type nonrec scalar = scalar

      let generator = generator
      let pow_many = pow_many
    end)

    let mul_batch xs ys = Array.map2 mul xs ys

    (* A pooled MSM splits the pairs into contiguous chunks, runs Straus
       on each chunk independently, and folds the chunk partials in index
       order. The sign components of the partials multiply out exactly
       like the underlying Z_p* values, so one [norm] on the folded
       product lands on the same canonical element as normalizing every
       step — the fold equals the one-shot Straus product bit for bit
       regardless of the chunk count. *)
    let msm_pool_threshold = 64

    let msm_raw ?pool pairs =
      let plain_pairs = Array.map (fun (x, k) -> (x, Scalar.exponent k)) pairs in
      let n = Array.length plain_pairs in
      norm
        (match Atom_exec.Pool.resolve pool with
        | Some p when n >= msm_pool_threshold && Atom_exec.Pool.size p > 1 ->
            let nchunks = min n (Atom_exec.Pool.size p * 4) in
            let partials =
              Atom_exec.Pool.tabulate ~pool:p nchunks (fun c ->
                  let lo = c * n / nchunks and hi = (c + 1) * n / nchunks in
                  Modarith.msm_slice ctx_p plain_pairs ~lo ~hi)
            in
            Array.fold_left (Modarith.mul ctx_p) (Modarith.one ctx_p) partials
        | _ -> Modarith.msm ctx_p plain_pairs)

    let msm ?pool pairs =
      Atom_obs.Opcount.note_msm ~terms:(Array.length pairs);
      msm_raw ?pool pairs

    (* One composite op: must not also tally as an msm call. *)
    let pow2 a j b k =
      Atom_obs.Opcount.note_pow2 ();
      msm_raw [| (a, j); (b, k) |]

    let equal = Modarith.equal
    let is_one x = equal x one
    let element_bytes = (Nat.bit_length params.p + 7) / 8
    let to_bytes x = Modarith.plain_to_bytes (Modarith.to_plain ctx_p x) ~len:element_bytes

    (* Membership in QR⁺ is the canonical-range check — no exponentiation.
       Values built by this module are canonical by construction; the
       check exists for decode-time verification and defense in depth. *)
    let is_member (x : t) : bool =
      (not (Modarith.is_zero x)) && Modarith.plain_leq (Modarith.to_plain ctx_p x) q_plain

    include Group_intf.Naive_check (struct
      type nonrec t = t

      let is_member = is_member
    end)

    let of_bytes s =
      if String.length s <> element_bytes then None
      else
        match Modarith.parse_be_sub ctx_p s ~pos:0 ~len:element_bytes with
        | Some v when (not (Modarith.plain_is_zero v)) && Modarith.plain_leq v q_plain ->
            Some (Modarith.mont_of_plain ctx_p v)
        | _ -> None

    (* Structurally decoded, membership (the canonical-range check) still
       owed. [elt] is the plain limb value straight off the wire: discharge
       is one limb compare against [q_plain] plus the Montgomery entry
       multiplication — which [discharge_batch] amortizes over a pool, so
       the expensive half of decoding a frame parallelizes while the
       structural parse stays a single cheap pass. *)
    module Unverified = struct
      type elt = Modarith.plain

      let of_bytes_sub s ~pos =
        match Modarith.parse_be_sub ctx_p s ~pos ~len:element_bytes with
        | Some v when not (Modarith.plain_is_zero v) -> Some v
        | _ -> None

      let of_bytes s = if String.length s <> element_bytes then None else of_bytes_sub s ~pos:0

      let discharge (v : elt) : t option =
        if Modarith.plain_leq v q_plain then Some (Modarith.mont_of_plain ctx_p v) else None

      let pool_threshold = 256

      let discharge_batch ?pool (us : elt array) : (t array, int) result =
        let n = Array.length us in
        let rec scan i =
          if i >= n then None
          else if Modarith.plain_leq us.(i) q_plain then scan (i + 1)
          else Some i
        in
        match scan 0 with
        | Some i -> Error i
        | None -> (
            let conv = Modarith.mont_of_plain ctx_p in
            match Atom_exec.Pool.resolve pool with
            | Some p when n >= pool_threshold && Atom_exec.Pool.size p > 1 ->
                Ok (Atom_exec.Pool.map ~pool:p conv us)
            | _ -> Ok (Array.map conv us))
    end

    (* Payload must stay below q with margin: reserve 9 bits. *)
    let embed_bytes = (Nat.bit_length params.p - 9) / 8

    (* c ∈ [1, q] *is* the canonical range, so embedding needs no residue
       test and no sign fix-up — the +1 shift only avoids zero. *)
    let embed payload =
      if String.length payload > embed_bytes then None
      else Some (Modarith.add ctx_p (Modarith.of_bytes_mod ctx_p payload) one)

    let extract el =
      if Modarith.is_zero el then None
      else begin
        let payload = Modarith.to_plain ctx_p (Modarith.sub ctx_p el one) in
        if Modarith.plain_bit_length payload > embed_bytes * 8 then None
        else Some (Modarith.plain_to_bytes payload ~len:embed_bytes)
      end

    let random rng = pow_gen (Scalar.random rng)
    let hash_to_scalar msg = Scalar.of_bytes_mod (Atom_hash.Sha256.digest msg)

    (* Hash-to-group: square the hash value to land in QR(p), then fold to
       the canonical representative; nobody knows its discrete log w.r.t.
       the generator. *)
    let of_hash label =
      let rec go ctr =
        let digest = Atom_hash.Sha256.digest_list [ "zp-of-hash"; label; string_of_int ctr ] in
        let el = norm (Modarith.sqr ctx_p (Modarith.of_bytes_mod ctx_p digest)) in
        if Modarith.is_zero el || is_one el then go (ctr + 1) else el
      in
      go 0
  end in
  (module G)

(* Cached deterministic parameter sets. [Once], not [lazy]: group
   construction may be requested from several threads (a test harness
   spinning up per-thread nodes), and concurrent forcing of a lazy is an
   error in OCaml 5. *)
let test_params_once = Atom_exec.Once.make (fun () -> derive_params ~bits:96 ~seed:0x5af3)
let medium_params_once = Atom_exec.Once.make (fun () -> derive_params ~bits:256 ~seed:0x5af4)

let test_params () : params = Atom_exec.Once.get test_params_once
let medium_params () : params = Atom_exec.Once.get medium_params_once

let test_group () : (module Group_intf.GROUP) = make (test_params ())
let medium_group () : (module Group_intf.GROUP) = make (medium_params ())
