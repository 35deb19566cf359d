(* Field arithmetic specialized to P-256's prime
   p = 2^256 - 2^224 + 2^192 + 2^96 - 1.

   The only module that knows p's special form. {!Modarith} selects the
   kernels below inside [create] when its modulus is p, so every ladder,
   inversion and conversion on P-256's field runs them; every other
   modulus keeps the generic loops.

   [mul_into] and [sqr_into] are the generic product-scanning Montgomery
   kernels unrolled for k = 10 limbs of 26 bits, with p's limbs
   [2^26-1, 2^26-1, 2^26-1, 2^18-1, 0, 0, 0, 2^10, 0x3ff0000, 2^22-1]
   folded in as constants. They compute exactly the generic kernel's
   columns minus the terms that are zero:
   - the q_j·m_(i-j) terms of the three zero limbs are dropped, and the
     two equal limbs m_1 = m_2 share one multiplication;
   - m_0 = 2^26 - 1, so -m^-1 mod 2^26 = 1: the low column's quotient
     digit is q_i = acc land mask, and (acc + q_i·m_0) lsr 26 =
     (acc lsr 26) + q_i, so no multiplication sits on the serial q chain.
   The q digits and column sums are the generic kernel's, and [finish] is
   its conditional subtraction, so the output limbs are the generic
   kernel's for every input, canonical or not. Every operand limb is read
   into a local before [dst] is first written, so [dst] may alias either
   operand.

   The exponentiation chains for inversion (p - 2) and square root
   ((p + 1)/4, valid since p = 3 mod 4) are fixed addition chains over
   these kernels, working in Montgomery form like any ladder. *)

let mask = (1 lsl 26) - 1

let limbs = [| mask; mask; mask; 0x3ffff; 0; 0; 0; 0x400; 0x3ff0000; 0x3fffff |]

let is_modulus (m : int array) : bool = m = limbs

(* The high half of the columns is in dst.(0..9) and [over] is the carry
   out of the last one: subtract p once when over <> 0 or the limbs are
   at least p (no borrow out of r - p). *)
let finish (dst : int array) (over : int) : unit =
  let s0 = Array.unsafe_get dst 0 - mask in
  let s1 = Array.unsafe_get dst 1 - mask + (s0 asr 26) in
  let s2 = Array.unsafe_get dst 2 - mask + (s1 asr 26) in
  let s3 = Array.unsafe_get dst 3 - 0x3ffff + (s2 asr 26) in
  let s4 = Array.unsafe_get dst 4 + (s3 asr 26) in
  let s5 = Array.unsafe_get dst 5 + (s4 asr 26) in
  let s6 = Array.unsafe_get dst 6 + (s5 asr 26) in
  let s7 = Array.unsafe_get dst 7 - 0x400 + (s6 asr 26) in
  let s8 = Array.unsafe_get dst 8 - 0x3ff0000 + (s7 asr 26) in
  let s9 = Array.unsafe_get dst 9 - 0x3fffff + (s8 asr 26) in
  if over <> 0 || s9 >= 0 then begin
    Array.unsafe_set dst 0 (s0 land mask);
    Array.unsafe_set dst 1 (s1 land mask);
    Array.unsafe_set dst 2 (s2 land mask);
    Array.unsafe_set dst 3 (s3 land mask);
    Array.unsafe_set dst 4 (s4 land mask);
    Array.unsafe_set dst 5 (s5 land mask);
    Array.unsafe_set dst 6 (s6 land mask);
    Array.unsafe_set dst 7 (s7 land mask);
    Array.unsafe_set dst 8 (s8 land mask);
    Array.unsafe_set dst 9 (s9 land mask)
  end

(* dst <- a·b·2^-260 mod p. Columns 0-9 fix the quotient digits q_i,
   columns 10-18 give result limbs 0-8, the last carry limb 9. *)
let mul_into (dst : int array) (a : int array) (b : int array) : unit =
  let a0 = Array.unsafe_get a 0 in
  let a1 = Array.unsafe_get a 1 in
  let a2 = Array.unsafe_get a 2 in
  let a3 = Array.unsafe_get a 3 in
  let a4 = Array.unsafe_get a 4 in
  let a5 = Array.unsafe_get a 5 in
  let a6 = Array.unsafe_get a 6 in
  let a7 = Array.unsafe_get a 7 in
  let a8 = Array.unsafe_get a 8 in
  let a9 = Array.unsafe_get a 9 in
  let b0 = Array.unsafe_get b 0 in
  let b1 = Array.unsafe_get b 1 in
  let b2 = Array.unsafe_get b 2 in
  let b3 = Array.unsafe_get b 3 in
  let b4 = Array.unsafe_get b 4 in
  let b5 = Array.unsafe_get b 5 in
  let b6 = Array.unsafe_get b 6 in
  let b7 = Array.unsafe_get b 7 in
  let b8 = Array.unsafe_get b 8 in
  let b9 = Array.unsafe_get b 9 in
  let acc = (a0 * b0) in
  let q0 = acc land mask in
  let c = (acc lsr 26) + q0 in
  let acc = c + (a0 * b1) + (a1 * b0) + (0x3ffffff * q0) in
  let q1 = acc land mask in
  let c = (acc lsr 26) + q1 in
  let acc = c + (a0 * b2) + (a1 * b1) + (a2 * b0) + (0x3ffffff * (q1 + q0)) in
  let q2 = acc land mask in
  let c = (acc lsr 26) + q2 in
  let acc = c + (a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0) + (0x3ffffff * (q2 + q1)) + (q0 * 0x3ffff) in
  let q3 = acc land mask in
  let c = (acc lsr 26) + q3 in
  let acc = c + (a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0) + (0x3ffffff * (q3 + q2)) + (q1 * 0x3ffff) in
  let q4 = acc land mask in
  let c = (acc lsr 26) + q4 in
  let acc = c + (a0 * b5) + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1) + (a5 * b0) + (0x3ffffff * (q4 + q3)) + (q2 * 0x3ffff) in
  let q5 = acc land mask in
  let c = (acc lsr 26) + q5 in
  let acc = c + (a0 * b6) + (a1 * b5) + (a2 * b4) + (a3 * b3) + (a4 * b2) + (a5 * b1) + (a6 * b0) + (0x3ffffff * (q5 + q4)) + (q3 * 0x3ffff) in
  let q6 = acc land mask in
  let c = (acc lsr 26) + q6 in
  let acc = c + (a0 * b7) + (a1 * b6) + (a2 * b5) + (a3 * b4) + (a4 * b3) + (a5 * b2) + (a6 * b1) + (a7 * b0) + (0x3ffffff * (q6 + q5)) + (q4 * 0x3ffff) + (q0 * 0x400) in
  let q7 = acc land mask in
  let c = (acc lsr 26) + q7 in
  let acc = c + (a0 * b8) + (a1 * b7) + (a2 * b6) + (a3 * b5) + (a4 * b4) + (a5 * b3) + (a6 * b2) + (a7 * b1) + (a8 * b0) + (0x3ffffff * (q7 + q6)) + (q5 * 0x3ffff) + (q1 * 0x400) + (q0 * 0x3ff0000) in
  let q8 = acc land mask in
  let c = (acc lsr 26) + q8 in
  let acc = c + (a0 * b9) + (a1 * b8) + (a2 * b7) + (a3 * b6) + (a4 * b5) + (a5 * b4) + (a6 * b3) + (a7 * b2) + (a8 * b1) + (a9 * b0) + (0x3ffffff * (q8 + q7)) + (q6 * 0x3ffff) + (q2 * 0x400) + (q1 * 0x3ff0000) + (q0 * 0x3fffff) in
  let q9 = acc land mask in
  let c = (acc lsr 26) + q9 in
  let acc = c + (a1 * b9) + (a2 * b8) + (a3 * b7) + (a4 * b6) + (a5 * b5) + (a6 * b4) + (a7 * b3) + (a8 * b2) + (a9 * b1) + (0x3ffffff * (q9 + q8)) + (q7 * 0x3ffff) + (q3 * 0x400) + (q2 * 0x3ff0000) + (q1 * 0x3fffff) in
  Array.unsafe_set dst 0 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (a2 * b9) + (a3 * b8) + (a4 * b7) + (a5 * b6) + (a6 * b5) + (a7 * b4) + (a8 * b3) + (a9 * b2) + (0x3ffffff * q9) + (q8 * 0x3ffff) + (q4 * 0x400) + (q3 * 0x3ff0000) + (q2 * 0x3fffff) in
  Array.unsafe_set dst 1 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (a3 * b9) + (a4 * b8) + (a5 * b7) + (a6 * b6) + (a7 * b5) + (a8 * b4) + (a9 * b3) + (q9 * 0x3ffff) + (q5 * 0x400) + (q4 * 0x3ff0000) + (q3 * 0x3fffff) in
  Array.unsafe_set dst 2 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (a4 * b9) + (a5 * b8) + (a6 * b7) + (a7 * b6) + (a8 * b5) + (a9 * b4) + (q6 * 0x400) + (q5 * 0x3ff0000) + (q4 * 0x3fffff) in
  Array.unsafe_set dst 3 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (a5 * b9) + (a6 * b8) + (a7 * b7) + (a8 * b6) + (a9 * b5) + (q7 * 0x400) + (q6 * 0x3ff0000) + (q5 * 0x3fffff) in
  Array.unsafe_set dst 4 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (a6 * b9) + (a7 * b8) + (a8 * b7) + (a9 * b6) + (q8 * 0x400) + (q7 * 0x3ff0000) + (q6 * 0x3fffff) in
  Array.unsafe_set dst 5 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (a7 * b9) + (a8 * b8) + (a9 * b7) + (q9 * 0x400) + (q8 * 0x3ff0000) + (q7 * 0x3fffff) in
  Array.unsafe_set dst 6 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (a8 * b9) + (a9 * b8) + (q9 * 0x3ff0000) + (q8 * 0x3fffff) in
  Array.unsafe_set dst 7 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (a9 * b9) + (q9 * 0x3fffff) in
  Array.unsafe_set dst 8 (acc land mask);
  let c = acc lsr 26 in
  Array.unsafe_set dst 9 (c land mask);
  finish dst (c lsr 26)

(* dst <- a·a·2^-260 mod p: each column's cross products once, doubled,
   plus the diagonal square; the reduction terms are the multiply's. *)
let sqr_into (dst : int array) (a : int array) : unit =
  let a0 = Array.unsafe_get a 0 in
  let a1 = Array.unsafe_get a 1 in
  let a2 = Array.unsafe_get a 2 in
  let a3 = Array.unsafe_get a 3 in
  let a4 = Array.unsafe_get a 4 in
  let a5 = Array.unsafe_get a 5 in
  let a6 = Array.unsafe_get a 6 in
  let a7 = Array.unsafe_get a 7 in
  let a8 = Array.unsafe_get a 8 in
  let a9 = Array.unsafe_get a 9 in
  let acc = (a0 * a0) in
  let q0 = acc land mask in
  let c = (acc lsr 26) + q0 in
  let acc = c + ((a0 * a1) lsl 1) + (0x3ffffff * q0) in
  let q1 = acc land mask in
  let c = (acc lsr 26) + q1 in
  let acc = c + ((a0 * a2) lsl 1) + (a1 * a1) + (0x3ffffff * (q1 + q0)) in
  let q2 = acc land mask in
  let c = (acc lsr 26) + q2 in
  let acc = c + (((a0 * a3) + (a1 * a2)) lsl 1) + (0x3ffffff * (q2 + q1)) + (q0 * 0x3ffff) in
  let q3 = acc land mask in
  let c = (acc lsr 26) + q3 in
  let acc = c + (((a0 * a4) + (a1 * a3)) lsl 1) + (a2 * a2) + (0x3ffffff * (q3 + q2)) + (q1 * 0x3ffff) in
  let q4 = acc land mask in
  let c = (acc lsr 26) + q4 in
  let acc = c + (((a0 * a5) + (a1 * a4) + (a2 * a3)) lsl 1) + (0x3ffffff * (q4 + q3)) + (q2 * 0x3ffff) in
  let q5 = acc land mask in
  let c = (acc lsr 26) + q5 in
  let acc = c + (((a0 * a6) + (a1 * a5) + (a2 * a4)) lsl 1) + (a3 * a3) + (0x3ffffff * (q5 + q4)) + (q3 * 0x3ffff) in
  let q6 = acc land mask in
  let c = (acc lsr 26) + q6 in
  let acc = c + (((a0 * a7) + (a1 * a6) + (a2 * a5) + (a3 * a4)) lsl 1) + (0x3ffffff * (q6 + q5)) + (q4 * 0x3ffff) + (q0 * 0x400) in
  let q7 = acc land mask in
  let c = (acc lsr 26) + q7 in
  let acc = c + (((a0 * a8) + (a1 * a7) + (a2 * a6) + (a3 * a5)) lsl 1) + (a4 * a4) + (0x3ffffff * (q7 + q6)) + (q5 * 0x3ffff) + (q1 * 0x400) + (q0 * 0x3ff0000) in
  let q8 = acc land mask in
  let c = (acc lsr 26) + q8 in
  let acc = c + (((a0 * a9) + (a1 * a8) + (a2 * a7) + (a3 * a6) + (a4 * a5)) lsl 1) + (0x3ffffff * (q8 + q7)) + (q6 * 0x3ffff) + (q2 * 0x400) + (q1 * 0x3ff0000) + (q0 * 0x3fffff) in
  let q9 = acc land mask in
  let c = (acc lsr 26) + q9 in
  let acc = c + (((a1 * a9) + (a2 * a8) + (a3 * a7) + (a4 * a6)) lsl 1) + (a5 * a5) + (0x3ffffff * (q9 + q8)) + (q7 * 0x3ffff) + (q3 * 0x400) + (q2 * 0x3ff0000) + (q1 * 0x3fffff) in
  Array.unsafe_set dst 0 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (((a2 * a9) + (a3 * a8) + (a4 * a7) + (a5 * a6)) lsl 1) + (0x3ffffff * q9) + (q8 * 0x3ffff) + (q4 * 0x400) + (q3 * 0x3ff0000) + (q2 * 0x3fffff) in
  Array.unsafe_set dst 1 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (((a3 * a9) + (a4 * a8) + (a5 * a7)) lsl 1) + (a6 * a6) + (q9 * 0x3ffff) + (q5 * 0x400) + (q4 * 0x3ff0000) + (q3 * 0x3fffff) in
  Array.unsafe_set dst 2 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (((a4 * a9) + (a5 * a8) + (a6 * a7)) lsl 1) + (q6 * 0x400) + (q5 * 0x3ff0000) + (q4 * 0x3fffff) in
  Array.unsafe_set dst 3 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (((a5 * a9) + (a6 * a8)) lsl 1) + (a7 * a7) + (q7 * 0x400) + (q6 * 0x3ff0000) + (q5 * 0x3fffff) in
  Array.unsafe_set dst 4 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (((a6 * a9) + (a7 * a8)) lsl 1) + (q8 * 0x400) + (q7 * 0x3ff0000) + (q6 * 0x3fffff) in
  Array.unsafe_set dst 5 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + ((a7 * a9) lsl 1) + (a8 * a8) + (q9 * 0x400) + (q8 * 0x3ff0000) + (q7 * 0x3fffff) in
  Array.unsafe_set dst 6 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + ((a8 * a9) lsl 1) + (q9 * 0x3ff0000) + (q8 * 0x3fffff) in
  Array.unsafe_set dst 7 (acc land mask);
  let c = acc lsr 26 in
  let acc = c + (a9 * a9) + (q9 * 0x3fffff) in
  Array.unsafe_set dst 8 (acc land mask);
  let c = acc lsr 26 in
  Array.unsafe_set dst 9 (c land mask);
  finish dst (c lsr 26)

(* ---- addition and subtraction ----

   Straight-line over the 10 limbs, with the generic loops' results for
   every input: carries and borrows move by [lsr]/[asr] and the reduction
   is picked by a mask, never by a branch on limb values. On random field
   elements such a branch goes either way about as often, and a Jacobian
   doubling makes about 14 of these calls beside its 8 multiply/square
   calls. *)

(* dst <- a + b, less p once when the sum carried out of the top limb or
   is at least p: both the sum and the sum minus p are formed, and [keep]
   (all ones or zero) selects one. *)
let add_into (dst : int array) (a : int array) (b : int array) : unit =
  let s0 = Array.unsafe_get a 0 + Array.unsafe_get b 0 in
  let s1 = Array.unsafe_get a 1 + Array.unsafe_get b 1 + (s0 lsr 26) in
  let s2 = Array.unsafe_get a 2 + Array.unsafe_get b 2 + (s1 lsr 26) in
  let s3 = Array.unsafe_get a 3 + Array.unsafe_get b 3 + (s2 lsr 26) in
  let s4 = Array.unsafe_get a 4 + Array.unsafe_get b 4 + (s3 lsr 26) in
  let s5 = Array.unsafe_get a 5 + Array.unsafe_get b 5 + (s4 lsr 26) in
  let s6 = Array.unsafe_get a 6 + Array.unsafe_get b 6 + (s5 lsr 26) in
  let s7 = Array.unsafe_get a 7 + Array.unsafe_get b 7 + (s6 lsr 26) in
  let s8 = Array.unsafe_get a 8 + Array.unsafe_get b 8 + (s7 lsr 26) in
  let s9 = Array.unsafe_get a 9 + Array.unsafe_get b 9 + (s8 lsr 26) in
  let s0 = s0 land mask and s1 = s1 land mask and s2 = s2 land mask and s3 = s3 land mask in
  let s4 = s4 land mask and s5 = s5 land mask and s6 = s6 land mask and s7 = s7 land mask in
  let s8 = s8 land mask and over = s9 lsr 26 and s9 = s9 land mask in
  let d0 = s0 - mask in
  let d1 = s1 - mask + (d0 asr 26) in
  let d2 = s2 - mask + (d1 asr 26) in
  let d3 = s3 - 0x3ffff + (d2 asr 26) in
  let d4 = s4 + (d3 asr 26) in
  let d5 = s5 + (d4 asr 26) in
  let d6 = s6 + (d5 asr 26) in
  let d7 = s7 - 0x400 + (d6 asr 26) in
  let d8 = s8 - 0x3ff0000 + (d7 asr 26) in
  let d9 = s9 - 0x3fffff + (d8 asr 26) in
  (* d9 asr 26 is -1 on a borrow (sum < p), else 0. *)
  let keep = -(over lor (1 + (d9 asr 26))) in
  Array.unsafe_set dst 0 (s0 lxor ((s0 lxor d0) land keep) land mask);
  Array.unsafe_set dst 1 (s1 lxor ((s1 lxor d1) land keep) land mask);
  Array.unsafe_set dst 2 (s2 lxor ((s2 lxor d2) land keep) land mask);
  Array.unsafe_set dst 3 (s3 lxor ((s3 lxor d3) land keep) land mask);
  Array.unsafe_set dst 4 (s4 lxor ((s4 lxor d4) land keep) land mask);
  Array.unsafe_set dst 5 (s5 lxor ((s5 lxor d5) land keep) land mask);
  Array.unsafe_set dst 6 (s6 lxor ((s6 lxor d6) land keep) land mask);
  Array.unsafe_set dst 7 (s7 lxor ((s7 lxor d7) land keep) land mask);
  Array.unsafe_set dst 8 (s8 lxor ((s8 lxor d8) land keep) land mask);
  Array.unsafe_set dst 9 (s9 lxor ((s9 lxor d9) land keep) land mask)

(* dst <- a - b, plus p when the difference borrowed out of the top limb:
   [back] is p's limbs masked by that borrow. *)
let sub_into (dst : int array) (a : int array) (b : int array) : unit =
  let d0 = Array.unsafe_get a 0 - Array.unsafe_get b 0 in
  let d1 = Array.unsafe_get a 1 - Array.unsafe_get b 1 + (d0 asr 26) in
  let d2 = Array.unsafe_get a 2 - Array.unsafe_get b 2 + (d1 asr 26) in
  let d3 = Array.unsafe_get a 3 - Array.unsafe_get b 3 + (d2 asr 26) in
  let d4 = Array.unsafe_get a 4 - Array.unsafe_get b 4 + (d3 asr 26) in
  let d5 = Array.unsafe_get a 5 - Array.unsafe_get b 5 + (d4 asr 26) in
  let d6 = Array.unsafe_get a 6 - Array.unsafe_get b 6 + (d5 asr 26) in
  let d7 = Array.unsafe_get a 7 - Array.unsafe_get b 7 + (d6 asr 26) in
  let d8 = Array.unsafe_get a 8 - Array.unsafe_get b 8 + (d7 asr 26) in
  let d9 = Array.unsafe_get a 9 - Array.unsafe_get b 9 + (d8 asr 26) in
  let back = d9 asr 26 in
  let s0 = (d0 land mask) + (mask land back) in
  let s1 = (d1 land mask) + (mask land back) + (s0 lsr 26) in
  let s2 = (d2 land mask) + (mask land back) + (s1 lsr 26) in
  let s3 = (d3 land mask) + (0x3ffff land back) + (s2 lsr 26) in
  let s4 = (d4 land mask) + (s3 lsr 26) in
  let s5 = (d5 land mask) + (s4 lsr 26) in
  let s6 = (d6 land mask) + (s5 lsr 26) in
  let s7 = (d7 land mask) + (0x400 land back) + (s6 lsr 26) in
  let s8 = (d8 land mask) + (0x3ff0000 land back) + (s7 lsr 26) in
  let s9 = (d9 land mask) + (0x3fffff land back) + (s8 lsr 26) in
  Array.unsafe_set dst 0 (s0 land mask);
  Array.unsafe_set dst 1 (s1 land mask);
  Array.unsafe_set dst 2 (s2 land mask);
  Array.unsafe_set dst 3 (s3 land mask);
  Array.unsafe_set dst 4 (s4 land mask);
  Array.unsafe_set dst 5 (s5 land mask);
  Array.unsafe_set dst 6 (s6 land mask);
  Array.unsafe_set dst 7 (s7 land mask);
  Array.unsafe_set dst 8 (s8 land mask);
  Array.unsafe_set dst 9 (s9 land mask)

(* ---- fixed addition chains ----

   Writing x_k for a^(2^k - 1), both exponents open with the same ladder
   to x_32 (31 squarings, 7 multiplications): x_2, x_3, x_6 = x_3^(2^3)·x_3,
   x_12, x_15 = x_12^(2^3)·x_3, x_30, x_32 = x_30^(2^2)·x_2. The tails
   spell out the exponents' bits, high to low. The four scratch buffers
   are tmp.(off) .. tmp.(off + 3); [dst] is written only by the last
   step, so it may alias [a]. *)

let sqr_n (dst : int array) (a : int array) (n : int) : unit =
  sqr_into dst a;
  for _ = 2 to n do
    sqr_into dst dst
  done

(* Leaves x_2 in t0, x_3 in t1, x_30 in t2 and x_32 in t3. *)
let to_x32 t0 t1 t2 t3 (a : int array) : unit =
  sqr_into t0 a;
  mul_into t0 t0 a;
  sqr_into t1 t0;
  mul_into t1 t1 a;
  sqr_n t2 t1 3;
  mul_into t2 t2 t1;
  sqr_n t3 t2 6;
  mul_into t3 t3 t2;
  sqr_n t3 t3 3;
  mul_into t3 t3 t1;
  sqr_n t2 t3 15;
  mul_into t2 t2 t3;
  sqr_n t3 t2 2;
  mul_into t3 t3 t0

(* p - 2 = 1^32 0^31 1 0^96 1^94 0 1 (bits, high to low): 255 squarings
   and 12 multiplications, against the 4-bit window's 256 and 64. *)
let inv_into (tmp : int array array) (off : int) (dst : int array) (a : int array) : unit =
  let t0 = tmp.(off) and t1 = tmp.(off + 1) and t2 = tmp.(off + 2) and t3 = tmp.(off + 3) in
  to_x32 t0 t1 t2 t3 a;
  sqr_n t0 t3 32;
  mul_into t0 t0 a;
  sqr_n t0 t0 96;
  sqr_n t0 t0 32;
  mul_into t0 t0 t3;
  sqr_n t0 t0 32;
  mul_into t0 t0 t3;
  sqr_n t0 t0 30;
  mul_into t0 t0 t2;
  sqr_n t0 t0 2;
  mul_into dst t0 a

(* (p + 1)/4 = 1^32 0^31 1 0^95 1 0^94: 253 squarings and 9
   multiplications. *)
let sqrt_into (tmp : int array array) (off : int) (dst : int array) (a : int array) : unit =
  let t0 = tmp.(off) and t1 = tmp.(off + 1) and t2 = tmp.(off + 2) and t3 = tmp.(off + 3) in
  to_x32 t0 t1 t2 t3 a;
  sqr_n t0 t3 32;
  mul_into t0 t0 a;
  sqr_n t0 t0 96;
  mul_into t0 t0 a;
  sqr_n dst t0 94
