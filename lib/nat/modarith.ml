(* Montgomery modular arithmetic for a fixed odd modulus.

   Elements are fixed-width little-endian limb arrays (base 2^26) kept in
   Montgomery form (x·R mod m with R = 2^(26k)).  Multiplication and
   squaring scan products column by column (the product-scanning, or FIPS,
   Montgomery form): with 26-bit limbs a whole column of 52-bit products
   sums in one 63-bit native int and is carried once, not per product.

   Memory discipline (the flat-limb refactor): an [el] is a flat unboxed
   buffer of native-int limbs, and every hot kernel is *destination-passing*
   — [mont_mul_into] and friends write into a caller-provided k-limb buffer
   and allocate nothing. Temporaries come from a per-domain arena of
   preallocated k-limb slots ([tls.slots]) handed out in stack order and
   released en masse when the enclosing operation (or {!with_session} scope)
   ends, so the steady-state inner loops of pow/msm touch the minor heap
   zero times. The boxed world (fresh [el] results) exists only at the
   API edge, and [Nat] only where a context or a constant is built and in
   {!Ref}: exponents, encodings and digit recodings read plain limbs,
   which one REDC ([to_plain]) leaves Montgomery form into. The classic
   allocating implementations are retained verbatim-in-spirit under {!Ref}
   — property tests pin the flat kernels byte-identical to them.

   One modulus gets its own kernels: for P-256's field prime, [create]
   selects [P256_field]'s unrolled multiply and square (same columns,
   zero terms dropped, so the same bytes), its straight-line add and sub,
   and [inv] its fixed addition chain. There is no option; the modulus
   decides. *)

let limb_bits = 26
let limb_mask = (1 lsl limb_bits) - 1

type el = int array

(* The mutable working state of a context: the Montgomery kernels'
   column buffer reused across calls, the arena of k-limb scratch slots,
   and the MRU window-table cache. Kept per-domain via [Domain.DLS] so one
   ctx can serve every domain of a pool, and checked out per operation
   (the [in_use] flag) so systhreads sharing a domain's storage can't
   interleave mid-multiplication — see [with_tls]. *)
type tls = {
  scratch : int array; (* 2k columns of mont_mul/mont_sqr: q, then the result *)
  mutable slots : int array array; (* arena of k-limb scratch elements *)
  mutable top : int; (* arena stack pointer *)
  mutable pow_cache : (el * el array) list; (* MRU base -> window table *)
  mutable in_use : bool;
}

type ctx = {
  modulus : Nat.t;
  bits : int; (* bit length of the modulus *)
  m : int array; (* k limbs of the modulus *)
  k : int;
  m0inv : int; (* -m^{-1} mod 2^26 *)
  r2 : int array; (* R^2 mod m, for entering Montgomery form *)
  one_m : int array; (* R mod m, i.e. 1 in Montgomery form *)
  one_plain : int array; (* plain 1, the fixed second operand of to_plain *)
  inv_exp : int array; (* m - 2 in plain limbs, the Fermat inversion exponent *)
  p256 : bool; (* m is P-256's field prime: the [P256_field] kernels serve it *)
  tls : tls Domain.DLS.key;
}

let fresh_tls (k : int) : tls =
  {
    scratch = Array.make (2 * k) 0;
    slots = [||];
    top = 0;
    pow_cache = [];
    in_use = false;
  }

(* Check the domain-local state out for the duration of one exported
   operation. The load-test-store on [in_use] contains no allocation or
   function call, so a systhread cannot be preempted inside it; if the
   domain's state is already held (another systhread of this domain is
   mid-operation), fall back to a throwaway allocation — correctness
   first, the fast path second. Internal helpers take the [tls] record
   explicitly and never re-enter [with_tls] while holding it. *)
let checkout (ctx : ctx) : tls =
  let t = Domain.DLS.get ctx.tls in
  if t.in_use then fresh_tls ctx.k
  else begin
    t.in_use <- true;
    t
  end

let checkin (t : tls) : unit = t.in_use <- false

let with_tls (ctx : ctx) (f : tls -> 'a) : 'a =
  let t = checkout ctx in
  match f t with
  | v ->
      checkin t;
      v
  | exception e ->
      checkin t;
      raise e

(* ---- the arena: preallocated k-limb slots, stack discipline ---- *)

let arena_mark (t : tls) : int = t.top

let arena_release (t : tls) (mark : int) : unit = t.top <- mark

(* Hand out the next preallocated slot, growing the arena (amortized,
   start-up only) when the high-water mark rises. Slot contents are
   arbitrary stale limbs — callers always fully overwrite. *)
let arena_take (ctx : ctx) (t : tls) : el =
  if t.top = Array.length t.slots then begin
    let old = Array.length t.slots in
    let grown = max 16 (2 * old) in
    t.slots <-
      Array.init grown (fun i -> if i < old then t.slots.(i) else Array.make ctx.k 0)
  end;
  let v = t.slots.(t.top) in
  t.top <- t.top + 1;
  v

(* The big-endian value of s.[pos .. pos+len-1] into the little-endian
   limbs of [out] (zero on entry): the one byte reader behind wire parse,
   [of_bytes_mod] and [widen]. False when the value needs more limbs. *)
let read_be (s : string) ~(pos : int) ~(len : int) (out : int array) : bool =
  let n = Array.length out in
  let acc = ref 0 and acc_bits = ref 0 and limb = ref 0 and fits = ref true in
  for i = pos + len - 1 downto pos do
    acc := !acc lor (Char.code (String.unsafe_get s i) lsl !acc_bits);
    acc_bits := !acc_bits + 8;
    if !acc_bits >= limb_bits then begin
      let l = !acc land limb_mask in
      if !limb < n then out.(!limb) <- l else if l <> 0 then fits := false;
      acc := !acc lsr limb_bits;
      acc_bits := !acc_bits - limb_bits;
      incr limb
    end
  done;
  if !acc_bits > 0 then
    if !limb < n then out.(!limb) <- !acc else if !acc <> 0 then fits := false;
  !fits

(* Widen a Nat (canonical, possibly short) to exactly k limbs, going through
   the byte serialization so Nat's representation stays abstract. *)
let widen (k : int) (a : Nat.t) : int array =
  let bytes = Nat.to_bytes_be a and out = Array.make k 0 in
  if not (read_be bytes ~pos:0 ~len:(String.length bytes) out) then
    invalid_arg "Modarith.widen: value too large";
  out

(* Comparison of fixed-width limb arrays. A plain loop, not a local
   recursive function: the latter captures [a]/[b] in a heap-allocated
   closure, and this runs inside the allocation-free kernels. *)
let cmp_limbs (a : int array) (b : int array) : int =
  let i = ref (Array.length a - 1) and r = ref 0 in
  while !r = 0 && !i >= 0 do
    let ai = Array.unsafe_get a !i and bi = Array.unsafe_get b !i in
    if ai <> bi then r := if ai < bi then -1 else 1;
    decr i
  done;
  !r

(* a <- a - b (fixed width, assumes a >= b). *)
let sub_in_place (a : int array) (b : int array) : unit =
  let borrow = ref 0 in
  for i = 0 to Array.length a - 1 do
    let s = Array.unsafe_get a i - Array.unsafe_get b i - !borrow in
    if s < 0 then begin
      Array.unsafe_set a i (s + (1 lsl limb_bits));
      borrow := 1
    end
    else begin
      Array.unsafe_set a i s;
      borrow := 0
    end
  done

(* The widest modulus whose product columns stay below 2^62: 2k products
   below 2^52 each, plus a carry below 2^36. *)
let max_limbs = 511

let create (modulus : Nat.t) : ctx =
  if Nat.is_even modulus || Nat.compare modulus (Nat.of_int 3) < 0 then
    invalid_arg "Modarith.create: modulus must be odd and >= 3";
  let bits = Nat.bit_length modulus in
  let k = (bits + limb_bits - 1) / limb_bits in
  if k > max_limbs then invalid_arg "Modarith.create: modulus wider than 511 limbs";
  let m = widen k modulus in
  (* m0inv = -m[0]^{-1} mod 2^26 via Newton iteration. *)
  let m0 = m.(0) in
  let x = ref 1 in
  for _ = 1 to 5 do
    (* Mask the inner term first so the product stays below 2^52. *)
    x := !x * ((2 - (m0 * !x)) land limb_mask) land limb_mask
  done;
  let m0inv = (1 lsl limb_bits) - !x land limb_mask in
  let m0inv = m0inv land limb_mask in
  (* R mod m by doubling 1, 26k times, with conditional subtraction. *)
  let double_mod (a : int array) : unit =
    let carry = ref 0 in
    for i = 0 to k - 1 do
      let s = (a.(i) lsl 1) lor !carry in
      a.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done;
    if !carry = 1 || cmp_limbs a m >= 0 then sub_in_place a m
  in
  let one_m = Array.make k 0 in
  one_m.(0) <- 1;
  for _ = 1 to k * limb_bits do
    double_mod one_m
  done;
  (* R^2 mod m: double R mod m another 26k times. *)
  let r2 = Array.copy one_m in
  for _ = 1 to k * limb_bits do
    double_mod r2
  done;
  let one_plain = Array.make k 0 in
  one_plain.(0) <- 1;
  {
    modulus;
    bits;
    m;
    k;
    m0inv;
    r2;
    one_m;
    one_plain;
    inv_exp = widen k (Nat.sub modulus Nat.two);
    p256 = P256_field.is_modulus m;
    tls = Domain.DLS.new_key (fun () -> fresh_tls k);
  }

(* ---- allocation-free kernels ----

   Every [_into] kernel writes its result into a caller-provided k-limb
   destination and allocates nothing: the column buffer lives in the
   checked-out [tls], the operands are only read, and the final copy-out
   happens after every operand read, so [dst] may alias [a] or [b].
   Inner loops use unsafe accessors — widths are fixed at [ctx.k] by
   construction and the kernels are pinned against {!Ref} by property
   tests. *)

(* Product-scanning Montgomery: column i of a*b + q*m, the carry in plus
   every limb product, is summed in one native int and carried once. Each
   product is below 2^52 and a column holds at most 2k of them plus a
   carry below 2^36, so it stays below 2^62 while k <= [max_limbs]. A low
   column (i < k) picks q_i = sum*m0inv mod 2^26, zeroing its low limb; a
   high column yields result limb i-k. Both land in [tl.scratch].(i), one
   2k-limb buffer. [finish] writes the last column, whose carry is the top
   bit of a result below 2m, and subtracts m once if needed. *)
let finish (ctx : ctx) (t : int array) (dst : el) (c : int) : unit =
  let k = ctx.k in
  t.((2 * k) - 1) <- c land limb_mask;
  let over = c lsr limb_bits <> 0 in
  Array.blit t k dst 0 k;
  if over || cmp_limbs dst ctx.m >= 0 then sub_in_place dst ctx.m

(* dst <- a*b*R^{-1} mod m. *)
let mont_mul_generic (ctx : ctx) (tl : tls) (dst : el) (a : el) (b : el) : unit =
  let k = ctx.k and m = ctx.m and t = tl.scratch in
  let c = ref 0 in
  for i = 0 to k - 1 do
    let acc = ref (!c + (Array.unsafe_get a i * Array.unsafe_get b 0)) in
    for j = 0 to i - 1 do
      acc :=
        !acc
        + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
        + (Array.unsafe_get t j * Array.unsafe_get m (i - j))
    done;
    let q = !acc * ctx.m0inv land limb_mask in
    Array.unsafe_set t i q;
    c := (!acc + (q * Array.unsafe_get m 0)) lsr limb_bits
  done;
  for i = k to (2 * k) - 2 do
    let acc = ref !c in
    for j = i - k + 1 to k - 1 do
      acc :=
        !acc
        + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
        + (Array.unsafe_get t j * Array.unsafe_get m (i - j))
    done;
    Array.unsafe_set t i (!acc land limb_mask);
    c := !acc lsr limb_bits
  done;
  finish ctx t dst !c

(* The kernels every operation below calls: P-256's field prime gets its
   unrolled kernels (bit-identical, see [P256_field]), any other modulus
   the loop above. Inlined at every call site, so a generic-modulus call
   costs one test of [ctx.p256] over the parent's direct call.

   A generic square is the multiply on (a, a). A dedicated squaring loop
   (cross products summed once and doubled, reduction terms paired: half
   the iterations) gave the same limbs but was no faster at the widths in
   use. Best of 30 × 20 sessions of 8,192 dependent calls (and 40 × 50 of
   1,024) on a 2-vCPU shared host: at 4 limbs (zp-test) the multiply on
   (a, a) read even or up to 2.5 ns faster (38–40 vs 41–42 ns, and 32–39
   ns for both); at 10 limbs (zp-medium, P-256's n) the loop read at most
   4% faster (103–126 vs 105–127 ns), and the round squares at that width
   only in a few P-256 scalar inversions per hop (Lagrange coefficients). *)
let[@inline] mont_mul_into (ctx : ctx) (tl : tls) (dst : el) (a : el) (b : el) : unit =
  if ctx.p256 then P256_field.mul_into dst a b else mont_mul_generic ctx tl dst a b

let[@inline] mont_sqr_into (ctx : ctx) (tl : tls) (dst : el) (a : el) : unit =
  if ctx.p256 then P256_field.sqr_into dst a else mont_mul_generic ctx tl dst a a

(* Generic add/sub for every other modulus, with the same results and no
   branch on limb values: carries and borrows move arithmetically ([asr]
   of a signed limb difference is -1 on a borrow, else 0) and the
   correction by m is masked in, as in [P256_field]. Limbs are below
   2^26, so every carry is 0 or 1. *)

(* dst <- a + b, less m once (mod 2^26k) when the sum carried out of the
   top limb or is at least m. One pass writes the sum and runs the borrow
   chain of sum − m beside it; the second subtracts m masked by the
   verdict. dst may alias a or b. *)
let add_generic (ctx : ctx) (dst : el) (a : el) (b : el) : unit =
  let m = ctx.m in
  let carry = ref 0 and borrow = ref 0 in
  for i = 0 to ctx.k - 1 do
    let s = Array.unsafe_get a i + Array.unsafe_get b i + !carry in
    let l = s land limb_mask in
    Array.unsafe_set dst i l;
    carry := s lsr limb_bits;
    borrow := (l - Array.unsafe_get m i + !borrow) asr limb_bits
  done;
  let keep = -(!carry lor (1 + !borrow)) in
  let borrow = ref 0 in
  for i = 0 to ctx.k - 1 do
    let d = Array.unsafe_get dst i - (Array.unsafe_get m i land keep) + !borrow in
    Array.unsafe_set dst i (d land limb_mask);
    borrow := d asr limb_bits
  done

(* dst <- a − b, plus m (mod 2^26k) when the difference borrowed out of
   the top limb. *)
let sub_generic (ctx : ctx) (dst : el) (a : el) (b : el) : unit =
  let m = ctx.m in
  let borrow = ref 0 in
  for i = 0 to ctx.k - 1 do
    let d = Array.unsafe_get a i - Array.unsafe_get b i + !borrow in
    Array.unsafe_set dst i (d land limb_mask);
    borrow := d asr limb_bits
  done;
  let back = !borrow and carry = ref 0 in
  for i = 0 to ctx.k - 1 do
    let s = Array.unsafe_get dst i + (Array.unsafe_get m i land back) + !carry in
    Array.unsafe_set dst i (s land limb_mask);
    carry := s lsr limb_bits
  done

(* Like the multiply: P-256's field prime gets its straight-line kernels,
   any other modulus the loops above, behind one inlined test. *)
let[@inline] add_into (ctx : ctx) (dst : el) (a : el) (b : el) : unit =
  if ctx.p256 then P256_field.add_into dst a b else add_generic ctx dst a b

let[@inline] sub_into (ctx : ctx) (dst : el) (a : el) (b : el) : unit =
  if ctx.p256 then P256_field.sub_into dst a b else sub_generic ctx dst a b

(* Boxed conveniences over the kernels (one result allocation each). The
   kernels cannot raise, so [mont_mul_c] checks the working state out and
   in around one call without [with_tls]'s closure. *)
let mont_mul_t (ctx : ctx) (tl : tls) (a : el) (b : el) : el =
  let out = Array.make ctx.k 0 in
  mont_mul_into ctx tl out a b;
  out

let mont_mul_c (ctx : ctx) (a : el) (b : el) : el =
  let t = checkout ctx in
  let out = mont_mul_t ctx t a b in
  checkin t;
  out

let of_nat (ctx : ctx) (a : Nat.t) : el =
  let reduced = if Nat.compare a ctx.modulus >= 0 then Nat.rem a ctx.modulus else a in
  mont_mul_c ctx (widen ctx.k reduced) ctx.r2

(* Big-endian bytes of any length, reduced mod m, straight into
   Montgomery form without a [Nat] or a division (hash-to-scalar's path).
   The value is cut into k-limb chunks C_j, each below R = 2^{26k}, and
   folded from the top by Horner steps acc <- acc·R + C_j. A Montgomery
   multiplication by R² maps any x < R (reduced or not) to x·R mod m, so
   a step is one such multiplication of the accumulator (acc·R, kept in
   Montgomery form), one of the chunk (entering Montgomery form) and a
   modular addition. The result is the canonical element [of_nat] gives. *)
let of_bytes_mod (ctx : ctx) (s : string) : el =
  let k = ctx.k and len = String.length s in
  let nlimbs = ((8 * len) + limb_bits - 1) / limb_bits in
  let nchunks = max 1 ((nlimbs + k - 1) / k) in
  let limbs = Array.make (nchunks * k) 0 in
  ignore (read_be s ~pos:0 ~len limbs);
  with_tls ctx (fun t ->
      let out = Array.make k 0 and chunk = Array.make k 0 in
      for j = nchunks - 1 downto 0 do
        Array.blit limbs (j * k) chunk 0 k;
        mont_mul_into ctx t chunk chunk ctx.r2;
        if j < nchunks - 1 then mont_mul_into ctx t out out ctx.r2;
        add_into ctx out out chunk
      done;
      out)

(* ---- plain values: wire parse, exponents, encodings ----

   A [plain] is a k-limb value that is not in Montgomery form. The wire
   decoder reads one straight off a receive buffer ([parse_be_sub], one
   limb compare for the range check) and pays the Montgomery entry
   multiplication ([mont_of_plain]) only when the element is released to
   arithmetic. The other way, [to_plain] leaves Montgomery form with one
   REDC: exponents, canonical encodings and threshold compares
   ([plain_leq]) all read the plain limbs, and [window] is the one digit
   extractor every ladder recodes its exponent through. *)

type plain = int array

let parse_be_sub (ctx : ctx) (s : string) ~(pos : int) ~(len : int) : plain option =
  let out = Array.make ctx.k 0 in
  let in_range = pos >= 0 && len >= 0 && pos + len <= String.length s in
  if in_range && read_be s ~pos ~len out && cmp_limbs out ctx.m < 0 then Some out else None

(* A plain loop: [Array.for_all]'s inner recursive function captures its
   arguments in a heap-allocated closure, and the curve engine tests its
   points for infinity on every addition and doubling. Serves [el] and
   [plain] alike: zero is zero in Montgomery form too. *)
let is_zero (a : int array) : bool =
  let i = ref 0 in
  while !i < Array.length a && Array.unsafe_get a !i = 0 do
    incr i
  done;
  !i = Array.length a

let plain_is_zero = is_zero
let plain_leq (a : plain) (b : plain) : bool = cmp_limbs a b <= 0
let plain_of_nat (ctx : ctx) (a : Nat.t) : plain = widen ctx.k a
let mont_of_plain (ctx : ctx) (a : plain) : el = mont_mul_c ctx a ctx.r2
let to_plain (ctx : ctx) (a : el) : plain = mont_mul_c ctx a ctx.one_plain

(* [width] (at most 26) bits of [e] from bit [pos] up. Bits past [e]'s
   last limb read as zero, so an exponent need not have the width of the
   context it is used in (a Zp scalar from ctx_q raises an element of
   ctx_p). *)
let window (e : plain) ~(pos : int) ~(width : int) : int =
  let n = Array.length e and limb = pos / limb_bits and off = pos mod limb_bits in
  let v = if limb < n then Array.unsafe_get e limb lsr off else 0 in
  let v =
    if off + width > limb_bits && limb + 1 < n then
      v lor (Array.unsafe_get e (limb + 1) lsl (limb_bits - off))
    else v
  in
  v land ((1 lsl width) - 1)

let plain_bit_length (e : plain) : int =
  let i = ref (Array.length e - 1) in
  while !i >= 0 && Array.unsafe_get e !i = 0 do
    decr i
  done;
  if !i < 0 then 0
  else begin
    let w = ref 0 in
    while e.(!i) lsr !w <> 0 do
      incr w
    done;
    (!i * limb_bits) + !w
  end

(* The low [len] bytes of [a], big-endian. *)
let plain_to_bytes (a : plain) ~(len : int) : string =
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set out (len - 1 - i) (Char.unsafe_chr (window a ~pos:(8 * i) ~width:8))
  done;
  Bytes.unsafe_to_string out

let to_nat (ctx : ctx) (a : el) : Nat.t =
  Nat.of_bytes_be (plain_to_bytes (to_plain ctx a) ~len:(((ctx.k * limb_bits) + 7) / 8))

(* Uniform in [0, m), in Montgomery form: the bytes, mask and rejection
   rule of [Nat.random_below] over the modulus, so one RNG stream yields
   the same values through either. *)
let random (ctx : ctx) (rng : Atom_util.Rng.t) : el =
  let bytes = (ctx.bits + 7) / 8 in
  let mask = 0xff lsr ((bytes * 8) - ctx.bits) in
  let rec go () =
    let raw = Bytes.of_string (Atom_util.Rng.bytes rng bytes) in
    Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) land mask));
    match parse_be_sub ctx (Bytes.unsafe_to_string raw) ~pos:0 ~len:bytes with
    | Some v -> mont_of_plain ctx v
    | None -> go ()
  in
  go ()

let zero (ctx : ctx) : el = Array.make ctx.k 0
let one (ctx : ctx) : el = Array.copy ctx.one_m

let of_int (ctx : ctx) (i : int) : el =
  if i < 0 then invalid_arg "Modarith.of_int: negative";
  of_bytes_mod ctx (String.init 8 (fun j -> Char.unsafe_chr ((i lsr (8 * (7 - j))) land 0xff)))

let equal (a : el) (b : el) : bool = cmp_limbs a b = 0

let alloc (ctx : ctx) : el = Array.make ctx.k 0
let copy_into ~(dst : el) (a : el) : unit = Array.blit a 0 dst 0 (Array.length dst)
let set_zero (dst : el) : unit = Array.fill dst 0 (Array.length dst) 0
let set_one (ctx : ctx) (dst : el) : unit = Array.blit ctx.one_m 0 dst 0 ctx.k

let add (ctx : ctx) (a : el) (b : el) : el =
  let out = Array.make ctx.k 0 in
  add_into ctx out a b;
  out

let sub (ctx : ctx) (a : el) (b : el) : el =
  let out = Array.make ctx.k 0 in
  sub_into ctx out a b;
  out

(* m − a, which for 0 < a < m is the canonical −a. *)
let neg (ctx : ctx) (a : el) : el = if is_zero a then Array.copy a else sub ctx ctx.m a
let mul (ctx : ctx) (a : el) (b : el) : el = mont_mul_c ctx a b

let sqr (ctx : ctx) (a : el) : el =
  let out = Array.make ctx.k 0 in
  let t = checkout ctx in
  mont_sqr_into ctx t out a;
  checkin t;
  out

(* Small MRU cache of 4-bit window tables, so exponentiations with a
   long-lived base (the Schnorr generator, a group public key) skip table
   construction. The cache is part of the domain-local state, so each
   domain of a pool warms its own copy. Lookup is a linear scan with limb
   comparison — at most [pow_cache_cap] k-limb compares, negligible next
   to an exponentiation. Fermat inversion, whose base is one-shot, uses
   [pow_oneshot_into_t] instead, which leaves the cache alone. Cached
   tables are built once and only read afterwards, so the steady-state pow
   of a warm base allocates nothing beyond its result. *)
let pow_cache_cap = 8

let pow_table (ctx : ctx) (tl : tls) (base : el) : el array =
  let rec extract acc = function
    | [] -> None
    | ((b, _) as hit) :: rest when cmp_limbs b base = 0 -> Some (hit, List.rev_append acc rest)
    | entry :: rest -> extract (entry :: acc) rest
  in
  match extract [] tl.pow_cache with
  | Some ((_, table) as hit, rest) ->
      tl.pow_cache <- hit :: rest;
      table
  | None ->
      let table = Array.make 16 (one ctx) in
      table.(1) <- Array.copy base;
      for i = 2 to 15 do
        table.(i) <- mont_mul_t ctx tl table.(i - 1) base
      done;
      let cache = (Array.copy base, table) :: tl.pow_cache in
      tl.pow_cache <- List.filteri (fun i _ -> i < pow_cache_cap) cache;
      table

(* Fixed 4-bit-window exponentiation into [dst] over a window table whose
   entry for digit d is [table.(off + d)]; the accumulator IS the
   destination, squared and multiplied in place, so the ladder allocates
   nothing. *)
let pow_window_into (ctx : ctx) (tl : tls) (dst : el) (table : el array) (off : int) (e : plain)
    : unit =
  let windows = (plain_bit_length e + 3) / 4 in
  set_one ctx dst;
  for w = windows - 1 downto 0 do
    if w <> windows - 1 then begin
      mont_sqr_into ctx tl dst dst;
      mont_sqr_into ctx tl dst dst;
      mont_sqr_into ctx tl dst dst;
      mont_sqr_into ctx tl dst dst
    end;
    let nibble = window e ~pos:(4 * w) ~width:4 in
    if nibble <> 0 then mont_mul_into ctx tl dst dst table.(off + nibble)
  done

(* Cached-table pow: a warm-cache call allocates nothing. [dst] may alias
   [base]: the window table is built (from copies) before [dst] is first
   written. *)
let pow_into_t (ctx : ctx) (tl : tls) (dst : el) (base : el) (e : plain) : unit =
  if is_zero e then set_one ctx dst else pow_window_into ctx tl dst (pow_table ctx tl base) 0 e

(* One-shot pow for a base that will never recur (a Fermat inversion's
   operand on a generic modulus): the window table lives in arena
   slots, so the call neither allocates a table nor pushes one into the MRU
   cache, where it would evict the long-lived bases' tables. Entry d is
   arena slot [mark + d - 1]; the slots are read through [tl.slots] only
   after the last take, when any arena growth has already happened. *)
let pow_oneshot_into_t (ctx : ctx) (tl : tls) (dst : el) (base : el) (e : plain) : unit =
  if is_zero e then set_one ctx dst
  else begin
    let mark = arena_mark tl in
    let prev = ref (arena_take ctx tl) in
    copy_into ~dst:!prev base;
    for _ = 2 to 15 do
      let slot = arena_take ctx tl in
      mont_mul_into ctx tl slot !prev base;
      prev := slot
    done;
    pow_window_into ctx tl dst tl.slots (mark - 1) e;
    arena_release tl mark
  end

let pow (ctx : ctx) (base : el) (e : plain) : el =
  with_tls ctx (fun t ->
      let out = Array.make ctx.k 0 in
      pow_into_t ctx t out base e;
      out)

(* Straus interleaved multi-scalar multiplication over [lo, hi):
   dst <- Π base_i^{e_i} with one shared run of squarings across all pairs
   — 4 squarings per window total instead of 4 per window per base.
   Window tables are built lazily to the largest digit an exponent can
   produce, so a unit-exponent pair (common in the batched shuffle
   verifier) costs a single table slot. Table entries beyond the base
   itself live in the arena; only the per-call table spines are fresh.
   The cached [pow_table] is deliberately not consulted: MSM callers pass
   crowds of one-shot bases that would flush it. [dst] must not alias any
   base (the public wrappers allocate it fresh). *)
let msm_into_t (ctx : ctx) (tl : tls) (dst : el) (pairs : (el * plain) array) (lo : int)
    (hi : int) : unit =
  let mark = arena_mark tl in
  let nl = ref 0 in
  for i = lo to hi - 1 do
    if not (is_zero (snd pairs.(i))) then incr nl
  done;
  if !nl = 0 then set_one ctx dst
  else begin
    let nl = !nl in
    let idx = Array.make nl 0 in
    let tables = Array.make nl [||] in
    let j = ref 0 and max_bits = ref 0 in
    for i = lo to hi - 1 do
      let b, e = pairs.(i) in
      if not (is_zero e) then begin
        idx.(!j) <- i;
        let bits = plain_bit_length e in
        max_bits := max !max_bits bits;
        let max_d = if bits > 4 then 15 else window e ~pos:0 ~width:4 in
        let t = Array.make (max_d + 1) b in
        (* t.(0) is never read (zero digits are skipped); t.(1) aliases the
           caller's base, which is only ever read. *)
        for d = 2 to max_d do
          let slot = arena_take ctx tl in
          mont_mul_into ctx tl slot t.(d - 1) b;
          t.(d) <- slot
        done;
        tables.(!j) <- t;
        incr j
      end
    done;
    let windows = (!max_bits + 3) / 4 in
    set_one ctx dst;
    for w = windows - 1 downto 0 do
      if w <> windows - 1 then begin
        mont_sqr_into ctx tl dst dst;
        mont_sqr_into ctx tl dst dst;
        mont_sqr_into ctx tl dst dst;
        mont_sqr_into ctx tl dst dst
      end;
      for jj = 0 to nl - 1 do
        let e = snd pairs.(idx.(jj)) in
        let nib = window e ~pos:(4 * w) ~width:4 in
        if nib <> 0 then mont_mul_into ctx tl dst dst tables.(jj).(nib)
      done
    done;
    arena_release tl mark
  end

let msm_slice (ctx : ctx) (pairs : (el * plain) array) ~(lo : int) ~(hi : int) : el =
  if lo < 0 || hi > Array.length pairs || lo > hi then invalid_arg "Modarith.msm_slice";
  with_tls ctx (fun t ->
      let out = Array.make ctx.k 0 in
      msm_into_t ctx t out pairs lo hi;
      out)

let msm (ctx : ctx) (pairs : (el * plain) array) : el =
  msm_slice ctx pairs ~lo:0 ~hi:(Array.length pairs)

(* [f tmp off dst a] into a fresh result, with the four arena slots
   tmp.(off) .. tmp.(off + 3) as its scratch: P-256's addition chains,
   which then allocate only their result. The slots are read through
   [t.slots] after the last take, when any arena growth has happened. *)
let chain (ctx : ctx) (f : el array -> int -> el -> el -> unit) (a : el) : el =
  let out = Array.make ctx.k 0 in
  let t = checkout ctx in
  let mark = arena_mark t in
  for _ = 1 to 4 do
    ignore (arena_take ctx t)
  done;
  f t.slots mark out a;
  arena_release t mark;
  checkin t;
  out

(* Modular inverse via Fermat: only valid when the modulus is prime, which
   holds for every context in this repo (field primes and group orders).
   P-256's field prime runs its fixed addition chain for p - 2. *)
let inv (ctx : ctx) (a : el) : el =
  if is_zero a then raise Division_by_zero;
  if ctx.p256 then chain ctx P256_field.inv_into a
  else begin
    (* Checked out without [with_tls]'s closure, so a call allocates only
       its result. *)
    let out = Array.make ctx.k 0 and t = checkout ctx in
    pow_oneshot_into_t ctx t out a ctx.inv_exp;
    checkin t;
    out
  end

(* Montgomery's simultaneous-inversion trick: the inverses of a whole
   array for a single Fermat inversion plus three multiplications per
   element. Zero entries are skipped and come back as zero; an array of
   zeros costs no inversion at all. Each output buffer first holds the
   prefix product before its entry and is then multiplied in place by
   the running inverse, so a call allocates little beyond its results;
   the inversion runs between the two passes, outside the working state. *)
let inv_batch (ctx : ctx) (vs : el array) : el array =
  let n = Array.length vs in
  let out = Array.init n (fun _ -> zero ctx) in
  let acc = one ctx and live = ref false in
  with_tls ctx (fun t ->
      for i = 0 to n - 1 do
        if not (is_zero vs.(i)) then begin
          copy_into ~dst:out.(i) acc;
          mont_mul_into ctx t acc acc vs.(i);
          live := true
        end
      done);
  if !live then begin
    let inv_acc = inv ctx acc in
    with_tls ctx (fun t ->
        for i = n - 1 downto 0 do
          if not (is_zero vs.(i)) then begin
            mont_mul_into ctx t out.(i) inv_acc out.(i);
            mont_mul_into ctx t inv_acc inv_acc vs.(i)
          end
        done)
  end;
  out

let modulus ctx = ctx.modulus

let copy (a : el) : el = Array.copy a

(* ---- sessions: scoped access to the in-place kernels ---- *)

(* A session pins the domain-local working state for a whole ladder (a
   curve scalar-mult, an MSM window run) instead of checking it out per
   field op. Arena slots taken inside the session are released when it
   ends. Holding a session, the public one-shot ops on the same ctx from
   the same thread still work (they fall back to a throwaway tls), so a
   session can never deadlock — but hot paths should stay on the session
   ops. *)
module S = struct
  type t = { sctx : ctx; stl : tls }

  let mul (s : t) ~(dst : el) (a : el) (b : el) : unit = mont_mul_into s.sctx s.stl dst a b
  let sqr (s : t) ~(dst : el) (a : el) : unit = mont_sqr_into s.sctx s.stl dst a
  let add (s : t) ~(dst : el) (a : el) (b : el) : unit = add_into s.sctx dst a b
  let sub (s : t) ~(dst : el) (a : el) (b : el) : unit = sub_into s.sctx dst a b
  let take (s : t) : el = arena_take s.sctx s.stl
  let mark (s : t) : int = arena_mark s.stl
  let release (s : t) (m : int) : unit = arena_release s.stl m
end

let with_session (ctx : ctx) (f : S.t -> 'a) : 'a =
  with_tls ctx (fun tl ->
      let mark = arena_mark tl in
      match f { S.sctx = ctx; stl = tl } with
      | v ->
          arena_release tl mark;
          v
      | exception e ->
          arena_release tl mark;
          raise e)

(* ---- retained reference implementations ----

   Deliberately naive and structurally independent of the product-scanning
   kernels: products via [Nat]'s schoolbook multiply, reduction via [Nat]'s
   binary long division, exponentiation by square-and-multiply over those.
   The property suite pins every flat kernel byte-identical to these on
   random and carry-extreme operands, over every backend modulus and two
   all-ones moduli that maximise the column sums. Cold-path only. *)
module Ref = struct
  let mul (ctx : ctx) (a : el) (b : el) : el =
    of_nat ctx (Nat.rem (Nat.mul (to_nat ctx a) (to_nat ctx b)) ctx.modulus)

  let sqr (ctx : ctx) (a : el) : el = mul ctx a a

  let add (ctx : ctx) (a : el) (b : el) : el =
    of_nat ctx (Nat.rem (Nat.add (to_nat ctx a) (to_nat ctx b)) ctx.modulus)

  let sub (ctx : ctx) (a : el) (b : el) : el =
    (* a - b mod m as a + (m - b): to_nat is always < m. *)
    of_nat ctx
      (Nat.rem (Nat.add (to_nat ctx a) (Nat.sub ctx.modulus (to_nat ctx b))) ctx.modulus)

  let pow (ctx : ctx) (base : el) (e : Nat.t) : el =
    let bits = Nat.bit_length e in
    let acc = ref (one ctx) in
    for i = bits - 1 downto 0 do
      acc := mul ctx !acc !acc;
      if Nat.test_bit e i then acc := mul ctx !acc base
    done;
    !acc

  let msm (ctx : ctx) (pairs : (el * Nat.t) array) : el =
    Array.fold_left (fun acc (b, e) -> mul ctx acc (pow ctx b e)) (one ctx) pairs
end
