(* Tests for atom_nat: naturals, Montgomery arithmetic, primality. *)

open Atom_nat

let nat = Alcotest.testable Nat.pp Nat.equal

let test_of_to_int () =
  List.iter
    (fun i -> Alcotest.(check int) "roundtrip" i (Nat.to_int_exn (Nat.of_int i)))
    [ 0; 1; 2; 1000; 0x3ffffff; 0x4000000; max_int / 4 ];
  Alcotest.(check bool) "zero" true (Nat.is_zero Nat.zero)

let test_add_sub () =
  let a = Nat.of_decimal "123456789012345678901234567890" in
  let b = Nat.of_decimal "987654321098765432109876543210" in
  let s = Nat.add a b in
  Alcotest.(check nat) "a+b" (Nat.of_decimal "1111111110111111111011111111100") s;
  Alcotest.(check nat) "a+b-b" a (Nat.sub s b);
  Alcotest.(check nat) "a+b-a" b (Nat.sub s a);
  Alcotest.check_raises "negative sub" (Invalid_argument "Nat.sub: negative result") (fun () ->
      ignore (Nat.sub a b))

let test_mul () =
  let a = Nat.of_decimal "123456789" in
  let b = Nat.of_decimal "987654321" in
  Alcotest.(check nat) "small product" (Nat.of_decimal "121932631112635269") (Nat.mul a b);
  let big = Nat.of_decimal "340282366920938463463374607431768211455" in
  (* (2^128-1)^2 = 2^256 - 2^129 + 1 *)
  Alcotest.(check nat) "big square"
    (Nat.of_decimal
       "115792089237316195423570985008687907852589419931798687112530834793049593217025")
    (Nat.mul big big);
  Alcotest.(check nat) "times zero" Nat.zero (Nat.mul a Nat.zero)

let test_div_rem () =
  let a = Nat.of_decimal "121932631112635269" in
  let b = Nat.of_decimal "987654321" in
  let q, r = Nat.div_rem a b in
  Alcotest.(check nat) "quotient" (Nat.of_decimal "123456789") q;
  Alcotest.(check nat) "remainder" Nat.zero r;
  let q2, r2 = Nat.div_rem (Nat.add a (Nat.of_int 17)) b in
  Alcotest.(check nat) "quotient 2" (Nat.of_decimal "123456789") q2;
  Alcotest.(check nat) "remainder 2" (Nat.of_int 17) r2;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Nat.div_rem a Nat.zero))

let test_shift () =
  let a = Nat.of_decimal "12345678901234567890" in
  Alcotest.(check nat) "shift roundtrip" a (Nat.shift_right (Nat.shift_left a 67) 67);
  Alcotest.(check nat) "shl = *2^k" (Nat.mul a (Nat.of_int 1024)) (Nat.shift_left a 10);
  Alcotest.(check nat) "shr drops" (Nat.of_int 1) (Nat.shift_right (Nat.of_int 3) 1);
  Alcotest.(check nat) "shr to zero" Nat.zero (Nat.shift_right a 100)

let test_bytes_roundtrip () =
  let a = Nat.of_hex "deadbeef0123456789abcdef" in
  Alcotest.(check nat) "bytes roundtrip" a (Nat.of_bytes_be (Nat.to_bytes_be a));
  Alcotest.(check string) "hex" "deadbeef0123456789abcdef" (Nat.to_hex a);
  let padded = Nat.to_bytes_be ~length:16 a in
  Alcotest.(check int) "padded length" 16 (String.length padded);
  Alcotest.(check nat) "padded roundtrip" a (Nat.of_bytes_be padded);
  Alcotest.check_raises "too short" (Invalid_argument "Nat.to_bytes_be: does not fit") (fun () ->
      ignore (Nat.to_bytes_be ~length:4 a))

let test_decimal_roundtrip () =
  let s = "115792089237316195423570985008687907853269984665640564039457584007913129639936" in
  Alcotest.(check string) "decimal roundtrip" s (Nat.to_decimal (Nat.of_decimal s));
  Alcotest.(check string) "zero" "0" (Nat.to_decimal Nat.zero)

let test_bit_ops () =
  let a = Nat.of_int 0b1011 in
  Alcotest.(check int) "bit_length" 4 (Nat.bit_length a);
  Alcotest.(check bool) "bit 0" true (Nat.test_bit a 0);
  Alcotest.(check bool) "bit 2" false (Nat.test_bit a 2);
  Alcotest.(check bool) "bit 3" true (Nat.test_bit a 3);
  Alcotest.(check bool) "bit 100" false (Nat.test_bit a 100);
  Alcotest.(check int) "bit_length zero" 0 (Nat.bit_length Nat.zero)

let test_mod_small () =
  let a = Nat.of_decimal "123456789012345678901234567890" in
  Alcotest.(check int) "mod 97" (* computed independently *)
    (let r = ref 0 in
     String.iter (fun c -> r := ((!r * 10) + (Char.code c - 48)) mod 97) "123456789012345678901234567890";
     !r)
    (Nat.mod_small a 97);
  Alcotest.(check int) "mod 2" 0 (Nat.mod_small a 2)

(* Montgomery arithmetic cross-checked against plain Nat arithmetic. *)
let p_test = Nat.of_decimal "57896044618658097711785492504343953926634992332820282019728792003956564819949"
(* 2^255 - 19, a well-known prime *)

let test_modarith_pow () =
  let ctx = Modarith.create p_test in
  let g = Modarith.of_int ctx 5 in
  (* Fermat: g^(p-1) = 1 *)
  let e = Nat.sub p_test Nat.one in
  Alcotest.(check nat) "fermat" Nat.one
    (Modarith.to_nat ctx (Modarith.pow ctx g (Modarith.plain_of_nat ctx e)));
  (* pow matches iterated multiplication for small exponents *)
  let acc = ref (Modarith.one ctx) in
  for i = 0 to 20 do
    Alcotest.(check nat)
      (Printf.sprintf "pow %d" i)
      (Modarith.to_nat ctx !acc)
      (Modarith.to_nat ctx (Modarith.pow ctx g (Modarith.plain_of_nat ctx (Nat.of_int i))));
    acc := Modarith.mul ctx !acc g
  done

let test_modarith_inv () =
  let ctx = Modarith.create p_test in
  let rng = Atom_util.Rng.create 12 in
  for _ = 1 to 20 do
    let a = Nat.add Nat.one (Nat.random_below rng (Nat.sub p_test Nat.one)) in
    let ma = Modarith.of_nat ctx a in
    let prod = Modarith.mul ctx ma (Modarith.inv ctx ma) in
    Alcotest.(check nat) "a * a^-1 = 1" Nat.one (Modarith.to_nat ctx prod)
  done;
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Modarith.inv ctx (Modarith.zero ctx)))

let test_modarith_small_modulus () =
  (* Exhaustive check of multiplication mod 101. *)
  let ctx = Modarith.create (Nat.of_int 101) in
  for a = 0 to 100 do
    for b = 0 to 100 do
      let m =
        Modarith.to_nat ctx (Modarith.mul ctx (Modarith.of_int ctx a) (Modarith.of_int ctx b))
      in
      Alcotest.(check int) "mod 101" (a * b mod 101) (Nat.to_int_exn m)
    done
  done

(* ---- flat kernels vs retained reference implementations ----

   The product-scanning kernels must be byte-identical (same limbs, via
   Modarith.equal) to Modarith.Ref — the structurally independent Nat-based
   slow path — on every modulus the three group backends use: the P-256
   field prime and curve order, and both Schnorr groups' p and q (recovered
   from the cached group instances: p = 2q + 1). Random operands never
   reach the carry extremes, so every modulus also crosses a set of edge
   operands pairwise, and two synthetic all-ones moduli (every limb
   2^26 - 1) maximise the column sums: one at the P-256 width, one at the
   widest width [Modarith.create] accepts. *)

let backend_moduli () =
  let schnorr_pair name (order : Nat.t) =
    [ (name ^ "-p", Nat.add (Nat.shift_left order 1) Nat.one); (name ^ "-q", order) ]
  in
  [
    ( "p256-p",
      Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff" );
    ( "p256-n",
      Nat.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551" );
  ]
  @ schnorr_pair "zp96" (Atom_group.Zp.test_params ()).Atom_group.Zp.q
  @ schnorr_pair "zp256" (Atom_group.Zp.medium_params ()).Atom_group.Zp.q

(* Add, sub, mul and sqr against plain Nat arithmetic on 2^255 − 19 and
   every backend modulus: P-256's field prime runs the straight-line
   kernels, the others the generic loops. *)
let test_modarith_matches_nat () =
  List.iter
    (fun (name, m) ->
      let ctx = Modarith.create m in
      let rng = Atom_util.Rng.create 11 in
      let check what want got = Alcotest.(check nat) (name ^ " " ^ what) want (Modarith.to_nat ctx got) in
      for _ = 1 to 50 do
        let a = Nat.random_below rng m and b = Nat.random_below rng m in
        let ma = Modarith.of_nat ctx a and mb = Modarith.of_nat ctx b in
        check "add" (Nat.rem (Nat.add a b) m) (Modarith.add ctx ma mb);
        check "mul" (Nat.rem (Nat.mul a b) m) (Modarith.mul ctx ma mb);
        check "sqr" (Nat.rem (Nat.mul a a) m) (Modarith.sqr ctx ma);
        let sub_expected = if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a m) b in
        check "sub" sub_expected (Modarith.sub ctx ma mb)
      done)
    (("2^255-19", p_test) :: backend_moduli ())

let all_ones_limbs (k : int) : Nat.t = Nat.sub (Nat.shift_left Nat.one (26 * k)) Nat.one
let synthetic_moduli () = [ ("ones-10", all_ones_limbs 10); ("ones-511", all_ones_limbs 511) ]
let width (ctx : Modarith.ctx) : int = Array.length (Modarith.alloc ctx)

(* Raw limbs (base 2^26) of a value below the modulus. The carry extremes
   live in the limbs a kernel reads, whatever value those stand for in
   Montgomery form, so edge operands are built limb by limb. *)
let limbs_of (ctx : Modarith.ctx) (x : Nat.t) : Modarith.el =
  Array.init (width ctx) (fun i -> Nat.mod_small (Nat.shift_right x (26 * i)) (1 lsl 26))

let nat_of_limbs (l : Modarith.el) : Nat.t =
  Array.fold_right (fun limb acc -> Nat.add (Nat.shift_left acc 26) (Nat.of_int limb)) l Nat.zero

(* 0, 1, 2, m-1, m-2, R mod m, and the largest value below m with the most
   all-ones limbs: m cut below its highest limb that is not all ones, minus
   one, which sets every limb but that one. *)
let edge_operands (ctx : Modarith.ctx) : Modarith.el list =
  let m = Modarith.modulus ctx and k = width ctx in
  let j = ref (k - 1) in
  while !j > 0 && Nat.mod_small (Nat.shift_right m (26 * !j)) (1 lsl 26) = (1 lsl 26) - 1 do
    decr j
  done;
  let cut = Nat.shift_left (Nat.shift_right m (26 * !j)) (26 * !j) in
  List.map (limbs_of ctx)
    (List.sort_uniq Nat.compare
       [
         Nat.zero;
         Nat.one;
         Nat.two;
         Nat.sub m Nat.one;
         Nat.sub m Nat.two;
         Nat.rem (Nat.shift_left Nat.one (26 * k)) m;
         Nat.sub cut Nat.one;
       ])

(* An oracle that shares no code with Modarith: z is the Montgomery
   product of x and y iff z < m and z·R = x·y (mod m). *)
let is_mont_product (ctx : Modarith.ctx) (z : Modarith.el) (x : Modarith.el) (y : Modarith.el) :
    bool =
  let m = Modarith.modulus ctx and zv = nat_of_limbs z in
  Nat.compare zv m < 0
  && Nat.equal
       (Nat.rem (Nat.shift_left zv (26 * width ctx)) m)
       (Nat.rem (Nat.mul (nat_of_limbs x) (nat_of_limbs y)) m)

let test_flat_vs_ref () =
  List.iter
    (fun (name, m) ->
      let ctx = Modarith.create m in
      let rng = Atom_util.Rng.create 0x51a7 in
      let check label cond = Alcotest.(check bool) (name ^ " " ^ label) true cond in
      (* The Nat oracle's long divisions are too slow at 511 limbs, where
         Ref alone checks. *)
      let agrees z x y reference =
        Modarith.equal z reference && (width ctx > 10 || is_mont_product ctx z x y)
      in
      let edges = edge_operands ctx in
      List.iter
        (fun a ->
          check "edge sqr" (agrees (Modarith.sqr ctx a) a a (Modarith.Ref.sqr ctx a));
          List.iter
            (fun b ->
              check "edge mul" (agrees (Modarith.mul ctx a b) a b (Modarith.Ref.mul ctx a b)))
            edges)
        edges;
      (* Random operands on all but the widest modulus, where Ref.pow's
         13,286 squarings by long division would take minutes. *)
      if width ctx <= 10 then begin
        for _ = 1 to 25 do
          let a = Nat.random_below rng m and b = Nat.random_below rng m in
          let ma = Modarith.of_nat ctx a and mb = Modarith.of_nat ctx b in
          check "mul" (Modarith.equal (Modarith.mul ctx ma mb) (Modarith.Ref.mul ctx ma mb));
          check "sqr" (Modarith.equal (Modarith.sqr ctx ma) (Modarith.Ref.sqr ctx ma));
          check "add" (Modarith.equal (Modarith.add ctx ma mb) (Modarith.Ref.add ctx ma mb));
          check "sub" (Modarith.equal (Modarith.sub ctx ma mb) (Modarith.Ref.sub ctx ma mb))
        done;
        for _ = 1 to 4 do
          let base = Modarith.of_nat ctx (Nat.random_below rng m) in
          let e = Nat.random_below rng m in
          check "pow"
            (Modarith.equal
               (Modarith.pow ctx base (Modarith.plain_of_nat ctx e))
               (Modarith.Ref.pow ctx base e))
        done;
        let pairs =
          Array.init 5 (fun i ->
              ( Modarith.of_nat ctx (Nat.random_below rng m),
                (* mix tiny and full-width exponents so both table shapes run *)
                if i mod 2 = 0 then Nat.of_int i else Nat.random_below rng m ))
        in
        let plain_pairs = Array.map (fun (b, e) -> (b, Modarith.plain_of_nat ctx e)) pairs in
        check "msm" (Modarith.equal (Modarith.msm ctx plain_pairs) (Modarith.Ref.msm ctx pairs));
        check "msm_slice"
          (Modarith.equal
             (Modarith.msm_slice ctx plain_pairs ~lo:1 ~hi:4)
             (Modarith.Ref.msm ctx (Array.sub pairs 1 3)))
      end)
    (backend_moduli () @ synthetic_moduli ())

(* A column of 2k products below 2^52 stays below 2^62 up to k = 511, so
   [create] takes a 511-limb modulus and refuses the next width. *)
(* [of_bytes_mod] reduces by limb-chunk Horner steps and must give the
   very element the Nat path gives: the empty string, zero, m − 1, m,
   2^256 − 1 and random strings of 1 to 64 bytes, on every backend
   modulus and the all-ones width-10 one. *)
let test_of_bytes_mod () =
  let rng = Atom_util.Rng.create 0xb7e5 in
  List.iter
    (fun (name, m) ->
      let ctx = Modarith.create m in
      let check what s =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s" name what)
          true
          (Modarith.equal (Modarith.of_nat ctx (Nat.of_bytes_be s)) (Modarith.of_bytes_mod ctx s))
      in
      check "empty" "";
      check "zero" "\000";
      check "m - 1" (Nat.to_bytes_be (Nat.sub m Nat.one));
      check "m" (Nat.to_bytes_be m);
      check "2^256 - 1" (String.make 32 '\255');
      for len = 1 to 64 do
        check (Printf.sprintf "random %d bytes" len) (Atom_util.Rng.bytes rng len)
      done)
    (backend_moduli () @ [ ("ones-10", all_ones_limbs 10) ])

(* [inv_batch] is elementwise [inv], zero entries included (they come back
   as zero), on every backend modulus. *)
let test_inv_batch () =
  let rng = Atom_util.Rng.create 0x1b7 in
  List.iter
    (fun (name, m) ->
      let ctx = Modarith.create m in
      let xs =
        Array.init 9 (fun i ->
            if i = 3 || i = 7 then Modarith.zero ctx
            else Modarith.of_nat ctx (Nat.add Nat.one (Nat.random_below rng (Nat.sub m Nat.one))))
      in
      let got = Modarith.inv_batch ctx xs in
      Array.iteri
        (fun i x ->
          let want = if Modarith.is_zero x then Modarith.zero ctx else Modarith.inv ctx x in
          Alcotest.(check bool) (Printf.sprintf "%s [%d]" name i) true (Modarith.equal want got.(i)))
        xs;
      Alcotest.(check int) (name ^ " empty") 0 (Array.length (Modarith.inv_batch ctx [||])))
    (backend_moduli ())

let test_width_limit () =
  ignore (Modarith.create (all_ones_limbs 511));
  Alcotest.check_raises "512 limbs"
    (Invalid_argument "Modarith.create: modulus wider than 511 limbs") (fun () ->
      ignore (Modarith.create (Nat.add (Nat.shift_left Nat.one (26 * 511)) Nat.one)))

(* The in-place session surface against the same reference, including the
   documented aliasing cases (dst == operand). *)
let test_session_inplace () =
  List.iter
    (fun (name, m) ->
      let ctx = Modarith.create m in
      let rng = Atom_util.Rng.create 0x5e55 in
      let check label cond = Alcotest.(check bool) (name ^ " " ^ label) true cond in
      for _ = 1 to 10 do
        let a = Modarith.of_nat ctx (Nat.random_below rng m) in
        let b = Modarith.of_nat ctx (Nat.random_below rng m) in
        Modarith.with_session ctx (fun s ->
            let dst = Modarith.S.take s in
            Modarith.S.mul s ~dst a b;
            check "S.mul" (Modarith.equal dst (Modarith.Ref.mul ctx a b));
            Modarith.S.sqr s ~dst a;
            check "S.sqr" (Modarith.equal dst (Modarith.Ref.sqr ctx a));
            Modarith.S.add s ~dst a b;
            check "S.add" (Modarith.equal dst (Modarith.Ref.add ctx a b));
            Modarith.S.sub s ~dst a b;
            check "S.sub" (Modarith.equal dst (Modarith.Ref.sub ctx a b));
            (* aliasing: dst is also an operand *)
            Modarith.copy_into ~dst a;
            Modarith.S.mul s ~dst dst b;
            check "S.mul dst=a" (Modarith.equal dst (Modarith.Ref.mul ctx a b));
            Modarith.copy_into ~dst a;
            Modarith.S.sqr s ~dst dst;
            check "S.sqr dst=a" (Modarith.equal dst (Modarith.Ref.sqr ctx a));
            Modarith.copy_into ~dst a;
            Modarith.S.mul s ~dst dst dst;
            check "S.mul dst=a=b" (Modarith.equal dst (Modarith.Ref.sqr ctx a));
            (* mark/release: slots reused after release still compute right *)
            let mark = Modarith.S.mark s in
            let t1 = Modarith.S.take s in
            Modarith.S.mul s ~dst:t1 a b;
            Modarith.S.release s mark;
            let t2 = Modarith.S.take s in
            Modarith.S.mul s ~dst:t2 b a;
            check "arena reuse" (Modarith.equal t2 (Modarith.Ref.mul ctx a b));
            Modarith.S.release s mark)
      done;
      (* edge operands, each operand also the destination *)
      let edges = edge_operands ctx in
      Modarith.with_session ctx (fun s ->
          let dst = Modarith.S.take s in
          List.iter
            (fun a ->
              Modarith.copy_into ~dst a;
              Modarith.S.sqr s ~dst dst;
              check "edge S.sqr dst=a" (Modarith.equal dst (Modarith.Ref.sqr ctx a));
              Modarith.copy_into ~dst a;
              Modarith.S.mul s ~dst dst dst;
              check "edge S.mul dst=a=b" (Modarith.equal dst (Modarith.Ref.sqr ctx a));
              List.iter
                (fun b ->
                  Modarith.copy_into ~dst a;
                  Modarith.S.mul s ~dst dst b;
                  check "edge S.mul dst=a" (Modarith.equal dst (Modarith.Ref.mul ctx a b));
                  Modarith.copy_into ~dst b;
                  Modarith.S.mul s ~dst a dst;
                  check "edge S.mul dst=b" (Modarith.equal dst (Modarith.Ref.mul ctx a b)))
                edges)
            edges))
    [
      ( "p256-p",
        Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff" );
      ("small", Nat.of_int 65537);
      ("ones-10", all_ones_limbs 10);
    ]

(* The kernels' contract: steady-state Montgomery mul/sqr (and the
   in-place add/sub) allocate zero words. The only allocation in the
   measurement window is Gc.minor_words itself boxing its float result, so
   the slack is a few hundred words against 40k kernel calls — under one
   hundredth of a word per call. P-256's p runs the specialized kernels,
   its order n (same width) and zp-test's modulus the generic ones. *)
let test_kernels_zero_alloc () =
  List.iter
    (fun (name, m) ->
      let ctx = Modarith.create m in
      let rng = Atom_util.Rng.create 0xa110c in
      let a = Modarith.of_nat ctx (Nat.random_below rng m) in
      let b = Modarith.of_nat ctx (Nat.random_below rng m) in
      Modarith.with_session ctx (fun s ->
          let dst = Modarith.S.take s in
          (* warm up: any arena growth happens on the first calls *)
          Modarith.S.mul s ~dst a b;
          Modarith.S.sqr s ~dst dst;
          let m0 = Gc.minor_words () in
          for _ = 1 to 10_000 do
            Modarith.S.mul s ~dst a b;
            Modarith.S.sqr s ~dst dst;
            Modarith.S.add s ~dst dst a;
            Modarith.S.sub s ~dst dst b
          done;
          let dm = Gc.minor_words () -. m0 in
          if dm >= 256.0 then
            Alcotest.failf "%s: steady-state kernels allocated %.0f minor words over 40k calls"
              name dm))
    [
      ( "p256-p",
        Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff" );
      ( "p256-n",
        Nat.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551" );
      ("zp-test-p", (Atom_group.Zp.test_params ()).Atom_group.Zp.p);
    ]

(* What the generic kernel computes for any k-limb operands, canonical or
   not: T = (x·y + Q·m)/R with Q = −x·y·m⁻¹ mod R, less m once when T ≥ m.
   m⁻¹ mod R comes from Newton's iteration, each step doubling the low
   bits that are right. *)
let mont_definition (m : Nat.t) (k : int) (x : Nat.t) (y : Nat.t) : Nat.t =
  let r = Nat.shift_left Nat.one (26 * k) in
  let minv = ref Nat.one in
  for _ = 1 to 9 do
    let e = Nat.rem (Nat.sub (Nat.add Nat.two r) (Nat.rem (Nat.mul m !minv) r)) r in
    minv := Nat.rem (Nat.mul !minv e) r
  done;
  let xy = Nat.mul x y in
  let q = Nat.rem (Nat.sub r (Nat.rem (Nat.mul xy !minv) r)) r in
  let t = Nat.shift_right (Nat.add xy (Nat.mul q m)) (26 * k) in
  if Nat.compare t m >= 0 then Nat.sub t m else t

(* P-256's specialized kernel gives the generic kernel's limbs for every
   input, including operands at or above p whose product carries out of
   the top limb (all-ones limbs): the case where the final subtraction
   runs on the carry alone. The order n, same width, runs the generic
   kernel against the same definition. *)
let test_p256_kernel_definition () =
  let rng = Atom_util.Rng.create 0x9e7 in
  List.iter
    (fun (name, m) ->
      let ctx = Modarith.create m in
      let top = Nat.shift_left Nat.one 260 in
      let operands =
        [ Nat.sub top Nat.one; Nat.sub top Nat.two; m; Nat.add m Nat.one; Nat.sub m Nat.one ]
        @ List.init 8 (fun _ -> Nat.random_below rng top)
      in
      Modarith.with_session ctx (fun s ->
          let dst = Modarith.S.take s in
          List.iter
            (fun x ->
              let a = limbs_of ctx x in
              Modarith.S.sqr s ~dst a;
              Alcotest.(check bool)
                (Printf.sprintf "%s sqr %s" name (Nat.to_hex x))
                true
                (Nat.equal (nat_of_limbs dst) (mont_definition m 10 x x));
              List.iter
                (fun y ->
                  Modarith.S.mul s ~dst a (limbs_of ctx y);
                  Alcotest.(check bool)
                    (Printf.sprintf "%s mul %s %s" name (Nat.to_hex x) (Nat.to_hex y))
                    true
                    (Nat.equal (nat_of_limbs dst) (mont_definition m 10 x y)))
                operands)
            operands))
    [
      ( "p256-p",
        Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff" );
      ( "p256-n",
        Nat.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551" );
    ]

(* What field add and sub compute for any 10-limb operands, canonical or
   not: add takes (x + y) mod 2^260 and, when the sum carried out or is at
   least m, subtracts m once mod 2^260; sub takes (x − y) mod 2^260 and
   adds m when x < y. *)
let add_definition (m : Nat.t) (x : Nat.t) (y : Nat.t) : Nat.t =
  let r = Nat.shift_left Nat.one 260 in
  let sum = Nat.add x y in
  let s = Nat.rem sum r in
  if Nat.compare sum r >= 0 || Nat.compare s m >= 0 then Nat.rem (Nat.sub (Nat.add s r) m) r else s

let sub_definition (m : Nat.t) (x : Nat.t) (y : Nat.t) : Nat.t =
  let r = Nat.shift_left Nat.one 260 in
  let d = Nat.rem (Nat.sub (Nat.add x r) y) r in
  if Nat.compare x y < 0 then Nat.rem (Nat.add d m) r else d

(* P-256's straight-line add and sub on its field prime, and the generic
   loops on its order n, against those definitions: on 0, 1, m − 1, m,
   m + 1, 2^260 − 1, 2^260 − 2, pairs summing to exactly m and random
   values below 2^260, crossed pairwise, with the destination aliasing
   either operand and both operands the same buffer. *)
let test_p256_add_sub_definition () =
  let rng = Atom_util.Rng.create 0xadd5 in
  List.iter
    (fun (name, m) ->
      let ctx = Modarith.create m in
      let top = Nat.shift_left Nat.one 260 in
      let randoms = List.init 6 (fun _ -> Nat.random_below rng top) in
      let splits = List.init 3 (fun _ -> Nat.random_below rng m) in
      let operands =
        [
          Nat.zero; Nat.one; Nat.sub m Nat.one; m; Nat.add m Nat.one; Nat.sub top Nat.one;
          Nat.sub top Nat.two;
        ]
        @ splits
        @ List.map (Nat.sub m) splits
        @ randoms
      in
      Modarith.with_session ctx (fun s ->
          let dst = Modarith.S.take s in
          let check what x y want =
            Alcotest.(check bool)
              (Printf.sprintf "%s %s %s %s" name what (Nat.to_hex x) (Nat.to_hex y))
              true
              (Nat.equal (nat_of_limbs dst) want)
          in
          List.iter
            (fun x ->
              let a = limbs_of ctx x in
              List.iter
                (fun y ->
                  let b = limbs_of ctx y in
                  Modarith.S.add s ~dst a b;
                  check "add" x y (add_definition m x y);
                  Modarith.S.sub s ~dst a b;
                  check "sub" x y (sub_definition m x y);
                  Modarith.copy_into ~dst a;
                  Modarith.S.add s ~dst dst b;
                  check "add dst=a" x y (add_definition m x y);
                  Modarith.copy_into ~dst a;
                  Modarith.S.sub s ~dst dst b;
                  check "sub dst=a" x y (sub_definition m x y);
                  Modarith.copy_into ~dst b;
                  Modarith.S.add s ~dst a dst;
                  check "add dst=b" x y (add_definition m x y);
                  Modarith.copy_into ~dst b;
                  Modarith.S.sub s ~dst a dst;
                  check "sub dst=b" x y (sub_definition m x y))
                operands;
              Modarith.S.add s ~dst a a;
              check "add a=b" x x (add_definition m x x);
              Modarith.S.sub s ~dst a a;
              check "sub a=b" x x (sub_definition m x x);
              Modarith.copy_into ~dst a;
              Modarith.S.add s ~dst dst dst;
              check "add dst=a=b" x x (add_definition m x x))
            operands))
    [
      ( "p256-p",
        Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff" );
      ( "p256-n",
        Nat.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551" );
    ]

(* P-256's fixed addition chains for p − 2 (inversion) and (p + 1)/4
   (square root) against square-and-multiply by the same exponents, on
   random values, on 0, 1 and p − 1, and on non-residues (where the root
   chain's result squares to −v, not v). Each runs on caller scratch and
   through [Modarith.chain]'s arena slots; the inversion chain also with
   the destination aliasing the input, and behind [Modarith.inv]. *)
let test_p256_chains () =
  let m = Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff" in
  let ctx = Modarith.create m in
  let inv_exp = Nat.sub m Nat.two and sqrt_exp = Nat.shift_right (Nat.add m Nat.one) 2 in
  let rng = Atom_util.Rng.create 0xc4a1 in
  let randoms = List.init 16 (fun _ -> Nat.random_below rng m) in
  let values = [ Nat.zero; Nat.one; Nat.sub m Nat.one ] @ randoms in
  (* Euler's criterion: v is a non-residue iff v^((p − 1)/2) = −1. *)
  let minus_one = Modarith.of_nat ctx (Nat.sub m Nat.one) in
  let non_residues =
    List.filter
      (fun v ->
        Modarith.equal
          (Modarith.Ref.pow ctx (Modarith.of_nat ctx v) (Nat.shift_right m 1))
          minus_one)
      (values @ List.init 16 (fun i -> Nat.of_int (i + 2)))
  in
  if List.length non_residues < 8 then Alcotest.fail "too few non-residues among the inputs";
  let tmp = Array.init 4 (fun _ -> Modarith.alloc ctx) in
  List.iter
    (fun v ->
      let x = Modarith.of_nat ctx v in
      let check what got e =
        Alcotest.(check bool)
          (Printf.sprintf "%s of %s" what (Nat.to_hex v))
          true
          (Modarith.equal got (Modarith.Ref.pow ctx x e))
      in
      check "sqrt" (Modarith.chain ctx P256_field.sqrt_into x) sqrt_exp;
      let dst = Modarith.alloc ctx in
      P256_field.sqrt_into tmp 0 dst x;
      check "sqrt tmp" dst sqrt_exp;
      P256_field.inv_into tmp 0 dst x;
      check "inv" dst inv_exp;
      Modarith.copy_into ~dst x;
      P256_field.inv_into tmp 0 dst dst;
      check "inv dst=a" dst inv_exp;
      if not (Nat.is_zero v) then check "Modarith.inv" (Modarith.inv ctx x) inv_exp)
    (values @ non_residues)

(* Fermat inversion runs a one-shot pow whose window table lives in the
   arena (P-256's order n), or P-256's addition chain over arena slots
   (its field prime p, which also runs the square-root chain here). Either
   way a call allocates only its k-limb result (k + 1 words with the
   header) and pushes nothing into the pow cache — a warm base's table
   survives any number of inversions. *)
let test_inv_allocates_only_result () =
  let p = Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff" in
  let n = Nat.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551" in
  List.iter
    (fun m ->
      let ctx = Modarith.create m in
      let rng = Atom_util.Rng.create 0x1a7 in
      let k = Array.length (Modarith.alloc ctx) in
      let xs = Array.init 64 (fun _ -> Modarith.of_nat ctx (Nat.random_below rng m)) in
      let g = Modarith.of_nat ctx (Nat.random_below rng m) in
      let e = Modarith.plain_of_nat ctx (Nat.random_below rng m) in
      ignore (Modarith.pow ctx g e);
      let per_call what f =
        (* warm up: any arena growth happens on the first call *)
        ignore (f xs.(0));
        let m0 = Gc.minor_words () in
        Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
        let per_call = (Gc.minor_words () -. m0) /. float_of_int (Array.length xs) in
        if per_call > float_of_int (k + 1) +. 0.5 then
          Alcotest.failf "%s allocated %.1f words per call, result is %d" what per_call (k + 1)
      in
      per_call "inv" (Modarith.inv ctx);
      if Nat.equal m p then per_call "sqrt chain" (Modarith.chain ctx P256_field.sqrt_into);
      (* A rebuilt 16-entry table would cost over 15·(k + 1) words. *)
      let m1 = Gc.minor_words () in
      ignore (Sys.opaque_identity (Modarith.pow ctx g e));
      let dm = Gc.minor_words () -. m1 in
      if dm >= float_of_int (8 * (k + 1)) then
        Alcotest.failf "warm pow allocated %.0f words after 64 inversions" dm)
    [ p; n ]

let test_prime_known () =
  let primes = [ 2; 3; 5; 7; 97; 65537; 1_000_000_007 ] in
  List.iter
    (fun p -> Alcotest.(check bool) (string_of_int p) true (Prime.is_probable_prime (Nat.of_int p)))
    primes;
  let composites = [ 0; 1; 4; 100; 65535; 561; 41041; 825265 (* Carmichael *) ] in
  List.iter
    (fun c ->
      Alcotest.(check bool) (string_of_int c) false (Prime.is_probable_prime (Nat.of_int c)))
    composites;
  Alcotest.(check bool) "2^255-19" true (Prime.is_probable_prime p_test);
  Alcotest.(check bool) "2^255-19 + 2" false (Prime.is_probable_prime (Nat.add p_test Nat.two))

let test_random_prime () =
  let rng = Atom_util.Rng.create 13 in
  let p = Prime.random_prime rng ~bits:64 in
  Alcotest.(check int) "bit length" 64 (Nat.bit_length p);
  Alcotest.(check bool) "is prime" true (Prime.is_probable_prime p)

let test_safe_prime () =
  let rng = Atom_util.Rng.create 14 in
  let p, q = Prime.random_safe_prime rng ~bits:48 in
  Alcotest.(check int) "bit length" 48 (Nat.bit_length p);
  Alcotest.(check nat) "p = 2q+1" p (Nat.add (Nat.shift_left q 1) Nat.one);
  Alcotest.(check bool) "p prime" true (Prime.is_probable_prime p);
  Alcotest.(check bool) "q prime" true (Prime.is_probable_prime q)

let test_random_below_uniform () =
  (* Rejection sampling over a non-power-of-two bound: bucket counts must be
     uniform (the classic modulo-bias failure would skew low buckets). *)
  let rng = Atom_util.Rng.create 777 in
  let bound = Nat.of_int 1000 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let v = Nat.to_int_exn (Nat.random_below rng bound) in
    buckets.(v / 100) <- buckets.(v / 100) + 1
  done;
  (* chi-square, 9 dof: 99.9th percentile ~27.9 *)
  Alcotest.(check bool) "uniform buckets" true
    (Atom_util.Stats.chi_square_uniform buckets < 30.)

(* Property tests *)

let gen_nat : Nat.t QCheck2.Gen.t =
  QCheck2.Gen.map
    (fun s -> Nat.of_bytes_be s)
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 24))

let prop_add_commutative =
  QCheck2.Test.make ~name:"nat add commutative" ~count:300 (QCheck2.Gen.pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a))

let prop_mul_commutative =
  QCheck2.Test.make ~name:"nat mul commutative" ~count:300 (QCheck2.Gen.pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_mul_distributes =
  QCheck2.Test.make ~name:"nat mul distributes over add" ~count:300
    (QCheck2.Gen.triple gen_nat gen_nat gen_nat) (fun (a, b, c) ->
      Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_div_rem =
  QCheck2.Test.make ~name:"nat a = q*b + r, r < b" ~count:300 (QCheck2.Gen.pair gen_nat gen_nat)
    (fun (a, b) ->
      QCheck2.assume (not (Nat.is_zero b));
      let q, r = Nat.div_rem a b in
      Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0)

let prop_bytes_roundtrip =
  QCheck2.Test.make ~name:"nat bytes roundtrip" ~count:300 gen_nat (fun a ->
      Nat.equal a (Nat.of_bytes_be (Nat.to_bytes_be a)))

let prop_decimal_roundtrip =
  QCheck2.Test.make ~name:"nat decimal roundtrip" ~count:200 gen_nat (fun a ->
      Nat.equal a (Nat.of_decimal (Nat.to_decimal a)))

let suite =
  let q t = QCheck_alcotest.to_alcotest t in
  ( "nat",
    [
      Alcotest.test_case "of/to int" `Quick test_of_to_int;
      Alcotest.test_case "add/sub" `Quick test_add_sub;
      Alcotest.test_case "mul" `Quick test_mul;
      Alcotest.test_case "div_rem" `Quick test_div_rem;
      Alcotest.test_case "shifts" `Quick test_shift;
      Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
      Alcotest.test_case "decimal roundtrip" `Quick test_decimal_roundtrip;
      Alcotest.test_case "bit operations" `Quick test_bit_ops;
      Alcotest.test_case "mod_small" `Quick test_mod_small;
      Alcotest.test_case "montgomery matches nat" `Quick test_modarith_matches_nat;
      Alcotest.test_case "montgomery pow" `Quick test_modarith_pow;
      Alcotest.test_case "montgomery inverse" `Quick test_modarith_inv;
      Alcotest.test_case "montgomery small modulus exhaustive" `Slow test_modarith_small_modulus;
      Alcotest.test_case "flat kernels match reference (all backends)" `Quick test_flat_vs_ref;
      Alcotest.test_case "session in-place ops match reference" `Quick test_session_inplace;
      Alcotest.test_case "montgomery width limit" `Quick test_width_limit;
      Alcotest.test_case "of_bytes_mod matches nat" `Quick test_of_bytes_mod;
      Alcotest.test_case "inv_batch matches inv" `Quick test_inv_batch;
      Alcotest.test_case "montgomery kernels allocation-free" `Quick test_kernels_zero_alloc;
      Alcotest.test_case "inverse allocates only its result" `Quick test_inv_allocates_only_result;
      Alcotest.test_case "p256 inversion and square-root chains" `Quick test_p256_chains;
      Alcotest.test_case "p256 kernel is the montgomery definition on any limbs" `Quick
        test_p256_kernel_definition;
      Alcotest.test_case "p256 add and sub are the generic definition on any limbs" `Quick
        test_p256_add_sub_definition;
      Alcotest.test_case "known primes and composites" `Quick test_prime_known;
      Alcotest.test_case "random prime" `Quick test_random_prime;
      Alcotest.test_case "safe prime" `Quick test_safe_prime;
      Alcotest.test_case "random_below uniform" `Slow test_random_below_uniform;
      q prop_add_commutative;
      q prop_mul_commutative;
      q prop_mul_distributes;
      q prop_div_rem;
      q prop_bytes_roundtrip;
      q prop_decimal_roundtrip;
    ] )
