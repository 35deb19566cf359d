(** Field arithmetic specialized to P-256's prime
    p = 2{^256} − 2{^224} + 2{^192} + 2{^96} − 1, over the 10-limb
    Montgomery representation of {!Modarith} (R = 2{^260}).

    {!Modarith.create} selects the kernels and the inversion chain for that
    modulus; only the square-root chain is called from outside it,
    through {!Modarith.chain}. Every function takes and returns 10-limb
    arrays in Montgomery form. *)

val is_modulus : int array -> bool
(** Are these the limbs (base 2{^26}, little-endian) of p? *)

val mul_into : int array -> int array -> int array -> unit
(** [mul_into dst a b]: dst ← a·b·R{^-1} mod p, bit-identical to the
    generic Montgomery kernel. [dst] may alias either operand. *)

val sqr_into : int array -> int array -> unit
(** [sqr_into dst a]: dst ← a²·R{^-1} mod p. [dst] may alias [a]. *)

val add_into : int array -> int array -> int array -> unit
(** [add_into dst a b]: dst ← a + b, less p once (mod 2{^260}) when the
    sum carries out of the top limb or is at least p: the generic
    addition's limbs for any operands with limbs below 2{^26}, computed
    without a branch on limb values. [dst] may alias either operand. *)

val sub_into : int array -> int array -> int array -> unit
(** [sub_into dst a b]: dst ← a − b, plus p (mod 2{^260}) when a < b;
    branch-free like {!add_into}, same aliasing rule. *)

val inv_into : int array array -> int -> int array -> int array -> unit
(** [inv_into tmp off dst a]: dst ← a{^p−2} by a fixed addition chain,
    with tmp.(off) .. tmp.(off + 3) as scratch. Zero maps to zero.
    [dst] may alias [a]. *)

val sqrt_into : int array array -> int -> int array -> int array -> unit
(** [sqrt_into tmp off dst a]: dst ← a{^(p+1)/4}, a square root of [a]
    when one exists (p ≡ 3 mod 4); same scratch and aliasing rules. *)
