(** Montgomery modular arithmetic for a fixed odd modulus.

    A {!ctx} is built once per modulus; elements ({!el}) are fixed-width limb
    arrays kept in Montgomery form. Inversion uses Fermat's little theorem
    and therefore requires a prime modulus — every context in this repository
    (field primes, curve orders, Schnorr subgroup orders) is prime.

    Multiplication and squaring are product-scanning Montgomery kernels:
    each column of limb products is summed in one native int and carried
    once, which bounds the modulus width (see {!create}). When the modulus
    is P-256's field prime, {!create} selects the kernels of
    {!P256_field} instead (bit-identical results) and {!inv} runs its
    fixed addition chain; every other modulus runs the generic loops.

    A ctx is safe to share across domains and systhreads: the mutable
    working state (the kernels' column buffer, the window-table cache) is
    kept per-domain via [Domain.DLS] and checked out per operation, so a
    single group instance can back an {!Atom_exec.Pool} worker set or a
    threaded TCP cluster without per-thread instances. *)

type ctx

type el = int array
(** A fixed-width little-endian limb buffer (base 2^26) in Montgomery form.
    The representation is exposed so callers (the group layer) can hold
    elements in preallocated flat buffers and use the in-place session API
    below; treat the limbs themselves as opaque. *)

val create : Nat.t -> ctx
(** The modulus may be at most 511 limbs of 26 bits (13,286 bits) wide:
    a column sums up to 2k products below 2^52 plus a carry, which must
    stay below 2^62.
    @raise Invalid_argument if the modulus is even, < 3, or wider than
    511 limbs. *)

val modulus : ctx -> Nat.t

val of_nat : ctx -> Nat.t -> el
(** Reduce mod the modulus and enter Montgomery form. *)

val to_nat : ctx -> el -> Nat.t

val of_int : ctx -> int -> el
(** Reduced mod the modulus, through {!of_bytes_mod}.
    @raise Invalid_argument on a negative int. *)

val of_bytes_mod : ctx -> string -> el
(** The big-endian value of a string of any length (empty is zero),
    reduced mod the modulus, in Montgomery form: equal to
    [of_nat ctx (Nat.of_bytes_be s)], computed by Horner steps over
    context-width limb chunks with no [Nat] arithmetic. *)

(** {1 Plain values}

    A {!plain} is a fixed-width limb value that has {e not} entered
    Montgomery form. On the wire-decode fast path {!parse_be_sub} reads
    one straight off a receive buffer and range-checks it against the
    modulus, {!plain_leq} compares it against a precomputed threshold
    with one limb loop, and {!mont_of_plain} pays the Montgomery entry
    multiplication only when the element is released to arithmetic — so
    a structural decoder can parse thousands of elements per frame and
    batch the expensive step. The other way, {!to_plain} leaves
    Montgomery form with one REDC: exponents ({!pow}, {!msm}), canonical
    encodings ({!plain_to_bytes}) and every ladder's digit recoding (the
    one extractor, {!window}) read plain limbs, so no per-operation path
    needs [Nat]; it builds contexts and constants and serves {!Ref}. *)

type plain

val parse_be_sub : ctx -> string -> pos:int -> len:int -> plain option
(** Big-endian value of [s.[pos .. pos+len-1]]. [None] when the slice is
    out of range or the value is ≥ the modulus. Total: never raises on
    wire input. *)

val plain_is_zero : plain -> bool

val plain_of_nat : ctx -> Nat.t -> plain
(** For precomputing comparison thresholds (e.g. the canonical-range
    bound q).
    @raise Invalid_argument if the value exceeds the context width. *)

val plain_leq : plain -> plain -> bool

val mont_of_plain : ctx -> plain -> el
(** Enter Montgomery form: one multiplication by R². The value must come
    from {!parse_be_sub} or {!plain_of_nat} of the same context (already
    reduced). *)

val to_plain : ctx -> el -> plain
(** Leave Montgomery form: one REDC (a Montgomery multiplication by plain
    1) into a fresh context-width buffer. *)

val window : plain -> pos:int -> width:int -> int
(** [window e ~pos ~width] is the [width]-bit digit (width at most 26) of
    [e] at bit [pos]. Bits past [e]'s last limb read as zero, so a value
    of one context can serve as an exponent in a wider one. *)

val plain_bit_length : plain -> int
(** Bits up to the highest set one; 0 for zero. *)

val plain_to_bytes : plain -> len:int -> string
(** The low [len] bytes, big-endian: the canonical encoding when [len]
    is the modulus's byte length. *)

val random : ctx -> Atom_util.Rng.t -> el
(** Uniform in [0, m): the bytes, mask and rejection rule of
    [Nat.random_below rng m], so one RNG stream gives the same value as
    [of_nat ctx (Nat.random_below rng m)]. *)

val zero : ctx -> el
val one : ctx -> el
val equal : el -> el -> bool
val is_zero : el -> bool
val copy : el -> el

val add : ctx -> el -> el -> el
val sub : ctx -> el -> el -> el
val neg : ctx -> el -> el
val mul : ctx -> el -> el -> el

val sqr : ctx -> el -> el
(** Specialized Montgomery squaring: each column sums its cross-limb
    products once and doubles them, and pairs its reduction terms, so a
    column takes half the loop iterations of a general multiplication. *)

val pow : ctx -> el -> plain -> el
(** [pow ctx b e] is b^e mod m. The exponent is plain limbs of any width
    (a scalar of another context included), read 4 bits at a time by
    {!window}. Window tables for recently used bases are kept in a small
    per-context MRU cache, so repeated exponentiations of a fixed base (a
    generator, a public key) skip table construction. *)

val msm : ctx -> (el * plain) array -> el
(** [msm ctx [|(b1, e1); ...|]] is Π bᵢ^eᵢ mod m via Straus interleaving:
    all pairs share one run of squarings, so an n-term product costs about
    one exponentiation's squarings plus n window-digit multiplications per
    window. Zero exponents are skipped; the empty product is [one]. *)

val msm_slice : ctx -> (el * plain) array -> lo:int -> hi:int -> el
(** [msm] restricted to pairs.(lo..hi-1), without materializing a sub-array.
    Used by pooled MSM to hand each worker a chunk allocation-free.
    @raise Invalid_argument on an out-of-range slice. *)

val inv : ctx -> el -> el
(** Inverse via Fermat (prime modulus only): a one-shot window
    exponentiation whose table lives in the per-domain arena and is never
    cached, or {!P256_field.inv_into}'s addition chain (run by {!chain})
    for P-256's field prime. Either way it allocates only its result and
    evicts no long-lived base's window table.
    @raise Division_by_zero on zero. *)

val chain : ctx -> (el array -> int -> el -> el -> unit) -> el -> el
(** [chain ctx f a] runs [f tmp off dst a] into a fresh result [dst],
    lending it four scratch elements tmp.(off) .. tmp.(off + 3) from the
    per-domain arena, so the call allocates only its result. For
    {!P256_field}'s addition chains. *)

val inv_batch : ctx -> el array -> el array
(** Every element's inverse for one Fermat inversion (Montgomery's
    trick) plus three multiplications per element. Zero entries come
    back as zero instead of raising. *)

(** {1 Flat-buffer / in-place API}

    The allocation-free surface. [alloc] makes a destination buffer once;
    the [S] operations then write results in place, drawing temporaries
    from a per-domain arena of preallocated slots. A {!with_session} scope
    checks the domain-local state out once for a whole ladder (a curve
    scalar-mult, an MSM run) instead of per field op, and releases every
    arena slot taken inside it when it ends.

    Rules: session values ([S.t]) must not escape their scope, must not be
    shared across threads, and must not be held across calls that may run
    the same ctx on this thread re-entrantly (e.g. [Atom_exec.Pool] jobs) —
    the re-entrant call would silently fall back to a throwaway working
    state. Buffers from [S.take] are only valid until the session (or the
    enclosing [S.mark]/[S.release] pair) ends. *)

val alloc : ctx -> el
(** A fresh zeroed destination buffer of the context's width. *)

val copy_into : dst:el -> el -> unit
val set_zero : el -> unit
val set_one : ctx -> el -> unit

module S : sig
  type t

  val mul : t -> dst:el -> el -> el -> unit
  (** [dst] may alias either operand. *)

  val sqr : t -> dst:el -> el -> unit
  (** [dst] may alias the operand. *)

  val add : t -> dst:el -> el -> el -> unit
  val sub : t -> dst:el -> el -> el -> unit

  val take : t -> el
  (** Check a scratch element out of the arena: stale contents, valid
      until the enclosing release point. *)

  val mark : t -> int
  val release : t -> int -> unit
  (** [release s (mark s)] frees every slot taken since, en masse. Use
      around per-step temporaries inside long ladders so the arena's
      high-water mark stays at the per-step working set. *)
end

val with_session : ctx -> (S.t -> 'a) -> 'a
(** Run [f] with the calling domain's working state pinned. Arena slots
    taken inside are released on exit (also on exception). *)

(** {1 Reference implementations}

    Structurally independent slow paths ([Nat] schoolbook multiply +
    binary long division, square-and-multiply pow over [Nat] exponents)
    used by property tests to pin the product-scanning kernels
    byte-identical; tests hand the fast paths the same exponents through
    {!plain_of_nat}. Not for production use. *)
module Ref : sig
  val mul : ctx -> el -> el -> el
  val sqr : ctx -> el -> el
  val add : ctx -> el -> el -> el
  val sub : ctx -> el -> el -> el
  val pow : ctx -> el -> Nat.t -> el
  val msm : ctx -> (el * Nat.t) array -> el
end
