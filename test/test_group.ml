(* Tests for atom_group: generic group laws over every backend, plus
   P-256-specific known-answer vectors. *)

open Atom_nat

(* Generic law tests, instantiated per backend. *)
module Laws (G : Atom_group.Group_intf.GROUP) = struct
  let rng () = Atom_util.Rng.create (Atom_util.Rng.hash_string G.name)

  let test_identity () =
    let r = rng () in
    for _ = 1 to 5 do
      let x = G.random r in
      Alcotest.(check bool) "x*1 = x" true (G.equal (G.mul x G.one) x);
      Alcotest.(check bool) "1*x = x" true (G.equal (G.mul G.one x) x);
      Alcotest.(check bool) "x/x = 1" true (G.is_one (G.div x x))
    done

  let test_associativity_commutativity () =
    let r = rng () in
    for _ = 1 to 5 do
      let a = G.random r and b = G.random r and c = G.random r in
      Alcotest.(check bool) "assoc" true (G.equal (G.mul (G.mul a b) c) (G.mul a (G.mul b c)));
      Alcotest.(check bool) "comm" true (G.equal (G.mul a b) (G.mul b a))
    done

  let test_pow_homomorphism () =
    let r = rng () in
    for _ = 1 to 5 do
      let a = G.Scalar.random r and b = G.Scalar.random r in
      let lhs = G.pow_gen (G.Scalar.add a b) in
      let rhs = G.mul (G.pow_gen a) (G.pow_gen b) in
      Alcotest.(check bool) "g^(a+b) = g^a g^b" true (G.equal lhs rhs);
      let x = G.random r in
      Alcotest.(check bool) "(x^a)^b = x^(ab)" true
        (G.equal (G.pow (G.pow x a) b) (G.pow x (G.Scalar.mul a b)))
    done

  let test_pow_edge_cases () =
    let r = rng () in
    let x = G.random r in
    Alcotest.(check bool) "x^0 = 1" true (G.is_one (G.pow x G.Scalar.zero));
    Alcotest.(check bool) "x^1 = x" true (G.equal (G.pow x G.Scalar.one) x);
    (* x^(q-1) * x = x^q = 1 *)
    let q1 = G.Scalar.neg G.Scalar.one in
    Alcotest.(check bool) "x^q = 1" true (G.is_one (G.mul (G.pow x q1) x));
    Alcotest.(check bool) "1^k = 1" true (G.is_one (G.pow G.one (G.Scalar.random r)))

  let test_inverse () =
    let r = rng () in
    for _ = 1 to 5 do
      let x = G.random r in
      Alcotest.(check bool) "x * x^-1 = 1" true (G.is_one (G.mul x (G.inv x)));
      let k = G.Scalar.random r in
      Alcotest.(check bool) "x^-k = (x^k)^-1" true
        (G.equal (G.pow x (G.Scalar.neg k)) (G.inv (G.pow x k)))
    done

  let test_encoding_roundtrip () =
    let r = rng () in
    for _ = 1 to 5 do
      let x = G.random r in
      let bytes = G.to_bytes x in
      Alcotest.(check int) "encoding length" G.element_bytes (String.length bytes);
      match G.of_bytes bytes with
      | Some y -> Alcotest.(check bool) "roundtrip" true (G.equal x y)
      | None -> Alcotest.fail "decode failed"
    done;
    (* Identity roundtrips too. *)
    (match G.of_bytes (G.to_bytes G.one) with
    | Some y -> Alcotest.(check bool) "identity roundtrip" true (G.is_one y)
    | None -> Alcotest.fail "identity decode failed");
    Alcotest.(check bool) "garbage rejected" true (G.of_bytes (String.make G.element_bytes '\xfe') = None);
    Alcotest.(check bool) "wrong length rejected" true (G.of_bytes "short" = None)

  let test_embedding () =
    let r = rng () in
    for _ = 1 to 10 do
      let payload = Atom_util.Rng.bytes r G.embed_bytes in
      match G.embed payload with
      | None -> Alcotest.fail "embed failed"
      | Some el -> (
          match G.extract el with
          | None -> Alcotest.fail "extract failed"
          | Some back -> Alcotest.(check string) "payload roundtrip" payload back)
    done;
    (* Short payloads are left-padded. *)
    (match G.embed "hi" with
    | Some el ->
        let got = Option.get (G.extract el) in
        Alcotest.(check string) "padded payload"
          (String.make (G.embed_bytes - 2) '\000' ^ "hi")
          got
    | None -> Alcotest.fail "short embed failed");
    Alcotest.(check bool) "oversize rejected" true
      (G.embed (String.make (G.embed_bytes + 1) 'x') = None);
    (* A random group element is (almost surely) not a valid embedding for
       P-256 (framing marker); for Zp extraction may succeed but must then be
       a consistent roundtrip, so only check embed-then-extract here. *)
    ignore r

  let test_scalar_field () =
    let r = rng () in
    for _ = 1 to 10 do
      let a = G.Scalar.random r and b = G.Scalar.random r in
      Alcotest.(check bool) "add comm" true (G.Scalar.equal (G.Scalar.add a b) (G.Scalar.add b a));
      Alcotest.(check bool) "sub inverse" true
        (G.Scalar.equal a (G.Scalar.add (G.Scalar.sub a b) b));
      if not (G.Scalar.is_zero a) then
        Alcotest.(check bool) "mul inverse" true
          (G.Scalar.equal G.Scalar.one (G.Scalar.mul a (G.Scalar.inv a)))
    done;
    let x = G.Scalar.random r in
    Alcotest.(check bool) "scalar bytes roundtrip" true
      (G.Scalar.equal x (G.Scalar.of_bytes_mod (G.Scalar.to_bytes x)))

  let test_hash_to_scalar () =
    let a = G.hash_to_scalar "input one" and b = G.hash_to_scalar "input two" in
    Alcotest.(check bool) "distinct inputs" false (G.Scalar.equal a b);
    Alcotest.(check bool) "deterministic" true
      (G.Scalar.equal a (G.hash_to_scalar "input one"))

  let cases =
    [
      Alcotest.test_case (G.name ^ " identity laws") `Quick test_identity;
      Alcotest.test_case (G.name ^ " assoc/comm") `Quick test_associativity_commutativity;
      Alcotest.test_case (G.name ^ " pow homomorphism") `Quick test_pow_homomorphism;
      Alcotest.test_case (G.name ^ " pow edge cases") `Quick test_pow_edge_cases;
      Alcotest.test_case (G.name ^ " inverses") `Quick test_inverse;
      Alcotest.test_case (G.name ^ " encoding") `Quick test_encoding_roundtrip;
      Alcotest.test_case (G.name ^ " message embedding") `Quick test_embedding;
      Alcotest.test_case (G.name ^ " scalar field") `Quick test_scalar_field;
      Alcotest.test_case (G.name ^ " hash to scalar") `Quick test_hash_to_scalar;
    ]
end

(* P-256 known-answer tests. *)
let test_p256_generator_on_curve () =
  Alcotest.(check bool) "G on curve" true (Atom_group.P256.on_curve Atom_group.P256.generator)

let test_p256_double_g () =
  let module P = Atom_group.P256 in
  let two_g = P.mul P.generator P.generator in
  let expected_x = "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978" in
  let expected_y = "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1" in
  match two_g with
  | P.Inf -> Alcotest.fail "2G is infinity"
  | P.Aff (_, y) ->
      let bytes = P.to_bytes two_g in
      Alcotest.(check string) "2G x-coordinate" expected_x
        (Atom_util.Hex.encode (String.sub bytes 1 32));
      let y_nat = Atom_nat.Modarith.to_nat Atom_group.P256.fp y in
      Alcotest.(check string) "2G y-coordinate" expected_y
        (Atom_util.Hex.encode (Atom_nat.Nat.to_bytes_be ~length:32 y_nat))

(* Full-width known answers, cross-checked with an independent big-int
   implementation, through the three ladders: the generator's comb
   ([pow_gen]), the one-shot window ladder of a base seen once ([pow] of
   3G by k/3, in a fresh domain so no earlier sighting gave 3G a table),
   and decompression ([of_bytes] runs the field square root). *)
let test_p256_full_width_kats () =
  let module P = Atom_group.P256 in
  let three_g = P.mul P.generator (P.mul P.generator P.generator) in
  let third = P.Scalar.inv (P.Scalar.of_int 3) in
  List.iter
    (fun (label, k, x, y) ->
      let check path pt =
        match pt with
        | P.Inf -> Alcotest.failf "%s %s: infinity" label path
        | P.Aff (px, py) ->
            let hex v =
              Atom_util.Hex.encode (Nat.to_bytes_be ~length:32 (Modarith.to_nat P.fp v))
            in
            Alcotest.(check string) (label ^ " " ^ path ^ " x") x (hex px);
            Alcotest.(check string) (label ^ " " ^ path ^ " y") y (hex py)
      in
      check "pow_gen" (P.pow_gen k);
      let windows = P.window_builds () and combs = P.comb_builds () in
      let k3 = P.Scalar.mul k third in
      check "one-shot pow" (Domain.join (Domain.spawn (fun () -> P.pow three_g k3)));
      Alcotest.(check (pair int int)) (label ^ " no table built") (windows, combs)
        (P.window_builds (), P.comb_builds ());
      let y_odd = not (Nat.is_even (Nat.of_hex y)) in
      match P.of_bytes (Atom_util.Hex.decode ((if y_odd then "03" else "02") ^ x)) with
      | Some pt -> check "decode" pt
      | None -> Alcotest.failf "%s: compressed point rejected" label)
    [
      ( "k=112233445566778899",
        P.Scalar.of_bytes_mod (Nat.to_bytes_be (Nat.of_decimal "112233445566778899")),
        "339150844ec15234807fe862a86be77977dbfb3ae3d96f4c22795513aeaab82f",
        "b1c14ddfdc8ec1b2583f51e85a5eb3a155840f2034730e9b5ada38b674336a21" );
      ( "(n-2)G",
        P.Scalar.of_bytes_mod (Nat.to_bytes_be (Nat.sub P.n Nat.two)),
        "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978",
        "f888aaee24712fc0d6c26539608bcf244582521ac3167dd661fb4862dd878c2e" );
    ]

let test_p256_order () =
  let module P = Atom_group.P256 in
  (* (n-1)·G + G = nG = O *)
  let n1 = P.Scalar.neg P.Scalar.one in
  Alcotest.(check bool) "nG = O" true (P.is_one (P.mul (P.pow_gen n1) P.generator));
  (* (n-1)·G = -G *)
  Alcotest.(check bool) "(n-1)G = -G" true (P.equal (P.pow_gen n1) (P.inv P.generator))

let test_p256_pow_matches_additions () =
  let module P = Atom_group.P256 in
  let acc = ref P.one in
  for k = 0 to 20 do
    Alcotest.(check bool)
      (Printf.sprintf "%dG" k)
      true
      (P.equal !acc (P.pow_gen (P.Scalar.of_int k)));
    acc := P.mul !acc P.generator
  done

let test_p256_field_prime_is_prime () =
  Alcotest.(check bool) "p prime" true (Atom_nat.Prime.is_probable_prime Atom_group.P256.p);
  Alcotest.(check bool) "n prime" true (Atom_nat.Prime.is_probable_prime Atom_group.P256.n)

let test_p256_compressed_generator () =
  (* Known compressed encoding of the generator: Gy is odd, so the prefix
     is 0x03 followed by Gx. *)
  let module P = Atom_group.P256 in
  let compressed =
    Atom_util.Hex.decode "036b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
  in
  (match P.of_bytes compressed with
  | Some pt -> Alcotest.(check bool) "decodes to G" true (P.equal pt P.generator)
  | None -> Alcotest.fail "generator failed to decode");
  Alcotest.(check string) "re-encodes identically" (Atom_util.Hex.encode compressed)
    (Atom_util.Hex.encode (P.to_bytes P.generator))

let test_zp_subgroup_validation () =
  let module G = (val Atom_group.Registry.zp_test ()) in
  let params = Atom_group.Zp.test_params () in
  let g_bytes = G.to_bytes G.generator in
  (match G.of_bytes g_bytes with
  | None -> Alcotest.fail "generator should decode"
  | Some _ -> ());
  Alcotest.(check bool) "zero rejected" true
    (G.of_bytes (String.make G.element_bytes '\000') = None);
  (* In the QR⁺ representation the canonical range is 1 ≤ v ≤ q: anything
     in (q, p) — e.g. p - g, the non-canonical mirror of the generator —
     must be rejected even though it is a valid residue-class encoding. *)
  let mirror =
    Nat.to_bytes_be ~length:G.element_bytes
      (Nat.sub params.Atom_group.Zp.p (Nat.of_bytes_be g_bytes))
  in
  Alcotest.(check bool) "non-canonical mirror rejected" true (G.of_bytes mirror = None);
  Alcotest.(check bool) "v = q accepted" true
    (G.of_bytes (Nat.to_bytes_be ~length:G.element_bytes params.Atom_group.Zp.q) <> None);
  Alcotest.(check bool) "v = q+1 rejected" true
    (G.of_bytes
       (Nat.to_bytes_be ~length:G.element_bytes (Nat.add params.Atom_group.Zp.q Nat.one))
    = None);
  Alcotest.(check bool) "v >= p rejected" true
    (G.of_bytes (Nat.to_bytes_be ~length:G.element_bytes params.Atom_group.Zp.p) = None)

(* [Scalar.random] draws the bytes, mask and rejection rule of
   [Nat.random_below] over the group order, its definition while scalars
   went through [Nat]: from twin generators every draw encodes alike, and
   the two streams are still in step after a few hundred draws. *)
let test_scalar_random_stream () =
  let check name (module G : Atom_group.Group_intf.GROUP) (q : Nat.t) =
    let len = String.length (G.Scalar.to_bytes G.Scalar.zero) in
    List.iter
      (fun seed ->
        let r1 = Atom_util.Rng.create seed and r2 = Atom_util.Rng.create seed in
        for i = 1 to 300 do
          let got = G.Scalar.to_bytes (G.Scalar.random r1) in
          let want = Nat.to_bytes_be ~length:len (Nat.random_below r2 q) in
          if got <> want then
            Alcotest.failf "%s seed %d draw %d: %s, want %s" name seed i
              (Atom_util.Hex.encode got) (Atom_util.Hex.encode want)
        done;
        Alcotest.(check string)
          (Printf.sprintf "%s seed %d streams in step" name seed)
          (Atom_util.Rng.bytes r2 16) (Atom_util.Rng.bytes r1 16))
      [ 1; 2; 0x5eed; 0xa70e ]
  in
  check "zp-test" (Atom_group.Registry.zp_test ()) (Atom_group.Zp.test_params ()).Atom_group.Zp.q;
  check "zp-medium" (Atom_group.Registry.zp_medium ())
    (Atom_group.Zp.medium_params ()).Atom_group.Zp.q;
  check "p256" (module Atom_group.P256) Atom_group.P256.n

(* Minor words per call of the operations every round runs per element:
   Zp's [mul] (whose canonical-range fold reads plain limbs, not a Nat)
   and the canonical encodings of elements and scalars. Averaged over 4096
   calls on 64 operands after a warm-up; every bound sits well under what
   the same call cost when these paths converted through [Nat]: Zp mul 46
   (zp-test) and 79 words (zp-medium), element encodings 29, 54 and 106
   (P-256), scalar encodings 29, 54 and 52. *)
let test_words_per_op () =
  let words_per_call name bound f =
    ignore (Sys.opaque_identity (f 0));
    let m0 = Gc.minor_words () in
    for i = 0 to 4095 do
      ignore (Sys.opaque_identity (f (i land 63)))
    done;
    let words = (Gc.minor_words () -. m0) /. 4096. in
    if words > bound then Alcotest.failf "%s: %.1f minor words per call, bound %.0f" name words bound
  in
  let backend name (module G : Atom_group.Group_intf.GROUP) ~mul ~encode ~scalar =
    let r = Atom_util.Rng.create 0xa110c in
    let xs = Array.init 64 (fun _ -> G.random r) and ks = Array.init 64 (fun _ -> G.Scalar.random r) in
    Option.iter
      (fun bound -> words_per_call (name ^ " mul") bound (fun i -> G.mul xs.(i) xs.((i + 1) land 63)))
      mul;
    words_per_call (name ^ " to_bytes") encode (fun i -> G.to_bytes xs.(i));
    words_per_call (name ^ " Scalar.to_bytes") scalar (fun i -> G.Scalar.to_bytes ks.(i))
  in
  (* Measured with the plain-limb paths: Zp mul 13 and 27 words, element
     encodings 8, 17 and 36, scalar encodings 8, 17 and 17. *)
  backend "zp-test" (Atom_group.Registry.zp_test ()) ~mul:(Some 20.) ~encode:12. ~scalar:12.;
  backend "zp-medium" (Atom_group.Registry.zp_medium ()) ~mul:(Some 40.) ~encode:24. ~scalar:24.;
  backend "p256" (module Atom_group.P256) ~mul:None ~encode:50. ~scalar:24.

let suite () =
  let module Zp_laws = Laws ((val Atom_group.Registry.zp_test ())) in
  let module Zp256_laws = Laws ((val Atom_group.Registry.zp_medium ())) in
  let module P256_laws = Laws (Atom_group.P256) in
  ( "group",
    Zp_laws.cases @ Zp256_laws.cases @ P256_laws.cases
    @ [
        Alcotest.test_case "p256 generator on curve" `Quick test_p256_generator_on_curve;
        Alcotest.test_case "p256 2G known answer" `Quick test_p256_double_g;
        Alcotest.test_case "p256 full-width known answers" `Quick test_p256_full_width_kats;
        Alcotest.test_case "p256 group order" `Quick test_p256_order;
        Alcotest.test_case "p256 pow = repeated addition" `Quick test_p256_pow_matches_additions;
        Alcotest.test_case "p256 parameters prime" `Slow test_p256_field_prime_is_prime;
        Alcotest.test_case "p256 compressed generator" `Quick test_p256_compressed_generator;
        Alcotest.test_case "zp subgroup validation" `Quick test_zp_subgroup_validation;
        Alcotest.test_case "scalar random stream unchanged" `Quick test_scalar_random_stream;
        Alcotest.test_case "words per group operation" `Quick test_words_per_op;
      ] )
