(* The cyclic-group abstraction underneath all of Atom's cryptography.

   Two backends implement this signature: [P256] (the curve the paper's
   prototype uses) and [Zp] (a Schnorr group over a safe prime, much faster
   in pure OCaml and used to keep the end-to-end protocol tests quick).
   Everything above — ElGamal, NIZKs, verifiable shuffles, secret sharing,
   the Atom protocol itself — is a functor over [GROUP]. *)

module type GROUP = sig
  val name : string

  (** Scalars: the field Z_q where q is the (prime) group order. *)
  module Scalar : sig
    type t

    val zero : t
    val one : t
    val of_int : int -> t
    val add : t -> t -> t
    val sub : t -> t -> t
    val mul : t -> t -> t
    val neg : t -> t

    val inv : t -> t
    (** @raise Division_by_zero on zero. *)

    val equal : t -> t -> bool
    val is_zero : t -> bool

    val random : Atom_util.Rng.t -> t
    (** Uniform in [0, q). *)

    val of_bytes_mod : string -> t
    (** Interpret big-endian bytes modulo q (hash-to-scalar). *)

    val to_bytes : t -> string
    (** Fixed-length big-endian encoding. *)
  end

  type t
  (** A group element. Values are canonical: [equal] is structural. *)

  type scalar = Scalar.t

  val generator : t
  val one : t
  (** The identity element. *)

  val mul : t -> t -> t
  (** The group operation. *)

  val inv : t -> t

  val inv_batch : t array -> t array
  (** [inv_batch xs] = [Array.map inv xs]. Backends whose inversion is an
      exponentiation (Zp) share one field inversion across the batch. *)

  val div : t -> t -> t

  val pow : t -> scalar -> t
  (** [pow x k] is x^k (scalar multiplication for curves). *)

  val pow_gen : scalar -> t
  (** [pow_gen k] = [pow generator k]. Backends may serve this from a
      precomputed fixed-base table. *)

  (* Fast-path multi-exponentiation. Every operation below is semantically
     a composition of [pow] and [mul]; backends are free to implement them
     with shared-doubling tricks (Shamir/Straus, Pippenger buckets) and
     batch affine normalization, or compose them honestly.

     The batch entry points take an optional [?pool]: an
     [Atom_exec.Pool.t] to spread the work over. Results are bit-identical
     for every pool size (and for no pool at all) — parallelism is purely
     an execution-time concern. When [?pool] is omitted the process-wide
     default pool ([ATOM_DOMAINS]) applies. *)

  val pow2 : t -> scalar -> t -> scalar -> t
  (** [pow2 a j b k] = a^j · b^k (double-scalar multiplication, the shape of
      every sigma-protocol verification equation). *)

  val msm : ?pool:Atom_exec.Pool.t -> (t * scalar) array -> t
  (** Multi-scalar multiplication: [msm [|(x1,k1);…|]] = Π xi^ki; the empty
      product is [one]. *)

  val pow_many :
    ?pool:Atom_exec.Pool.t -> fresh:(t * scalar) array -> (t * scalar) array -> t array * t array
  (** [pow_many ~fresh keyed] is [keyed] and [fresh] with every (x, k)
      replaced by [pow x k]: all the exponentiations of a proof phase in
      one call. Keyed bases (the generator, group keys) climb to their
      tables as under [pow], counted with all their scalars in the call;
      fresh (one-shot) bases never touch those tables, and a fresh base
      repeated in the call is prepared once. Curve backends run every
      ladder as one pooled job and normalize every result together. *)

  val pow_batch : ?pool:Atom_exec.Pool.t -> t -> scalar array -> t array
  (** [pow_batch x ks] = [|x^k1; x^k2; …|], as a keyed {!pow_many}. *)

  val pow_gen_batch : ?pool:Atom_exec.Pool.t -> scalar array -> t array
  (** [pow_gen_batch ks] = [pow_batch generator ks]. *)

  val mul_batch : t array -> t array -> t array
  (** [mul_batch xs ys] = [|mul x1 y1; mul x2 y2; …|], the elementwise
      product of two arrays of equal length. Curve backends pay one field
      inversion for the whole array instead of one per product.
      @raise Invalid_argument on a length mismatch. *)

  val equal : t -> t -> bool
  val is_one : t -> bool

  val element_bytes : int
  (** Length of the canonical encoding. *)

  val to_bytes : t -> string

  val of_bytes : string -> t option
  (** Decode with full validation (subgroup / curve membership); [None] on
      malformed input. *)

  (* ---- Membership verification ----

     Wire decode used to spend a full exponentiation per element on the
     subgroup check; both backends now verify membership structurally
     (P-256 decompression solves the curve equation; Zp uses the group of
     signed quadratic residues, where membership is a range check on the
     canonical representative). The batch API below is the decode hot
     path's single entry point, and [Unverified] is the typed escape hatch
     for deferring even that check. *)

  val is_member : t -> bool
  (** Full membership predicate on an already-constructed value. [true]
      for everything produced by this module's own operations; only
      hand-built representations (e.g. a raw affine point) can fail. *)

  val check_batch : ?pool:Atom_exec.Pool.t -> t array -> bool
  (** One membership verdict for a whole batch ([true] for the empty
      batch). Equivalent to [Array.for_all is_member] but free to amortize
      (and to spread across [?pool]); a single non-member anywhere in the
      batch makes the whole batch fail. *)

  val find_non_member : t array -> int option
  (** Index of the first non-member, for diagnostics after a failed
      {!check_batch}: the per-element fallback that names the culprit. *)

  (** Structurally-decoded elements whose membership check is still owed.

      [elt] is deliberately NOT [t]: an undischarged element cannot reach
      group arithmetic by construction — the only way out is {!discharge}
      (or {!discharge_batch}), which runs the membership check. This
      closes the old [of_bytes_unchecked] hole where deferred-validation
      values were ordinary [t]s. Backends whose structural decode is
      already fully validating (P-256) discharge for free; Zp defers its
      canonical-range subgroup check to discharge time. *)
  module Unverified : sig
    type elt

    val of_bytes : string -> elt option
    (** Structural checks only (length / field range); [None] on malformed
        input. Accepts a superset of {!of_bytes}: anything it accepts that
        full validation would reject is caught at discharge. *)

    val of_bytes_sub : string -> pos:int -> elt option
    (** [of_bytes_sub s ~pos] decodes [element_bytes] bytes at [pos]
        without copying the slice — the zero-copy view decode for wire
        parsers. [None] on a short buffer or malformed encoding. *)

    val discharge : elt -> t option
    (** Run the membership check; [None] on a non-member. *)

    val discharge_batch : ?pool:Atom_exec.Pool.t -> elt array -> (t array, int) result
    (** Discharge a whole batch with one amortized check; on failure
        falls back to per-element checks and reports the index of the
        first non-member as [Error i]. *)
  end

  val embed_bytes : int
  (** Payload capacity of {!embed}, in bytes. *)

  val embed : string -> t option
  (** Encode up to [embed_bytes] bytes of payload as a group element
      (left-padded with zeros). [None] only on oversized input. *)

  val extract : t -> string option
  (** Recover the [embed_bytes]-byte payload from an embedded element;
      [None] if the element does not carry an embedding. *)

  val random : Atom_util.Rng.t -> t
  (** A uniform group element (with known-nothing discrete log only if the
      RNG is secret; simulation-grade). *)

  val hash_to_scalar : string -> scalar
  (** Fiat–Shamir hash: SHA-256 of the input, reduced mod q. *)

  val of_hash : string -> t
  (** Derive a group element with publicly unknown discrete log from a label
      (hash-to-group). Used for the independent commitment generators of the
      verifiable shuffle. *)
end

(** What a backend must provide before the keyed batch wrappers are
    bolted on. *)
module type MANY_CORE = sig
  type t
  type scalar

  val generator : t

  val pow_many :
    ?pool:Atom_exec.Pool.t -> fresh:(t * scalar) array -> (t * scalar) array -> t array * t array
end

(** [pow_batch] and [pow_gen_batch] as the keyed [pow_many] calls they
    are, for every backend. *)
module Keyed_batches (B : MANY_CORE) = struct
  let pow_batch ?pool x ks = fst (B.pow_many ?pool ~fresh:[||] (Array.map (fun k -> (x, k)) ks))
  let pow_gen_batch ?pool ks = pow_batch ?pool B.generator ks
end

(** What a backend must provide before the batch membership API is bolted
    on. *)
module type MEMBER_CORE = sig
  type t

  val is_member : t -> bool
end

(** Honest per-element fallback for the batch membership API: sequential
    short-circuit scan for small batches, a pooled sweep above
    [pool_threshold]. Backends with a cheaper amortized check (a combined
    random-linear-combination verification, say) override; the property
    tests pin any specialized path against this shape. *)
module Naive_check (B : MEMBER_CORE) = struct
  let pool_threshold = 256

  let check_batch ?pool (els : B.t array) : bool =
    let n = Array.length els in
    match Atom_exec.Pool.resolve pool with
    | Some p when n >= pool_threshold && Atom_exec.Pool.size p > 1 ->
        Array.for_all Fun.id (Atom_exec.Pool.map ~pool:p B.is_member els)
    | _ ->
        let rec go i = i >= n || (B.is_member els.(i) && go (i + 1)) in
        go 0

  let find_non_member (els : B.t array) : int option =
    let n = Array.length els in
    let rec go i = if i >= n then None else if B.is_member els.(i) then go (i + 1) else Some i in
    go 0
end

(** Strict readers for a backend's canonical encodings, for decoder
    bodies run under [Atom_util.Bin.R.decode]: an element is validated
    exactly as by [of_bytes], a scalar is read as by
    [Scalar.of_bytes_mod]. *)
module Bin_io (G : GROUP) = struct
  open Atom_util.Bin

  let scalar_bytes = String.length (G.Scalar.to_bytes G.Scalar.zero)

  let element (r : R.t) : G.t =
    match G.of_bytes (R.bytes r G.element_bytes) with Some e -> e | None -> R.fail ()

  let scalar (r : R.t) : G.Scalar.t = G.Scalar.of_bytes_mod (R.bytes r scalar_bytes)
end
