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

val inv_into : int array array -> int -> int array -> int array -> unit
(** [inv_into tmp off dst a]: dst ← a{^p−2} by a fixed addition chain,
    with tmp.(off) .. tmp.(off + 3) as scratch. Zero maps to zero.
    [dst] may alias [a]. *)

val sqrt_into : int array array -> int -> int array -> int array -> unit
(** [sqrt_into tmp off dst a]: dst ← a{^(p+1)/4}, a square root of [a]
    when one exists (p ≡ 3 mod 4); same scratch and aliasing rules. *)
