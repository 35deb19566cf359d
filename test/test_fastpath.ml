(* Fast-path agreement tests: the multi-exponentiation engine (comb tables,
   pow2/Straus, msm/Pippenger, batch normalization, per-base table caches)
   must agree with the naive composition of [pow] and [mul] on every
   backend, including the degenerate inputs the optimized ladders love to
   get wrong: zero scalars, the identity element / point at infinity,
   repeated bases, singleton and empty batches. *)

module Laws (G : Atom_group.Group_intf.GROUP) : sig
  val cases : unit Alcotest.test_case list
end = struct
  module S = G.Scalar

  let rng () = Atom_util.Rng.create (Atom_util.Rng.hash_string ("fastpath-" ^ G.name))

  let check msg expected got = Alcotest.(check bool) msg true (G.equal expected got)

  (* Reference implementations in terms of the independently-tested
     single-base [pow] and [mul]. *)
  let naive_pow2 a j b k = G.mul (G.pow a j) (G.pow b k)
  let naive_msm pairs = Array.fold_left (fun acc (x, k) -> G.mul acc (G.pow x k)) G.one pairs

  let test_pow_gen_agrees () =
    let r = rng () in
    (* Tiny scalars cross every nibble boundary of the comb. *)
    for k = 0 to 33 do
      check (Printf.sprintf "comb k=%d" k)
        (G.pow G.generator (S.of_int k))
        (G.pow_gen (S.of_int k))
    done;
    (* Order-adjacent scalars: top windows fully populated. *)
    let n1 = S.neg S.one in
    check "comb k=q-1" (G.pow G.generator n1) (G.pow_gen n1);
    for _ = 1 to 10 do
      let k = S.random r in
      check "comb random" (G.pow G.generator k) (G.pow_gen k)
    done;
    Alcotest.(check bool) "comb k=0" true (G.is_one (G.pow_gen S.zero))

  let test_pow_cached_base () =
    let r = rng () in
    let x = G.random r in
    let ks = Array.init 5 (fun _ -> S.random r) in
    (* Repeated same-base calls walk the cache's record/build/hit states;
       every call must agree with the first (naive) answer. *)
    Array.iter
      (fun k ->
        let expected = G.mul (G.pow x k) G.one in
        for pass = 1 to 3 do
          check (Printf.sprintf "cached pow pass %d" pass) expected (G.pow x k)
        done)
      ks

  let test_pow2_agrees () =
    let r = rng () in
    for _ = 1 to 10 do
      let a = G.random r and b = G.random r in
      let j = S.random r and k = S.random r in
      check "pow2 random" (naive_pow2 a j b k) (G.pow2 a j b k);
      check "pow2 j=0" (naive_pow2 a S.zero b k) (G.pow2 a S.zero b k);
      check "pow2 k=0" (naive_pow2 a j b S.zero) (G.pow2 a j b S.zero);
      check "pow2 both zero" G.one (G.pow2 a S.zero b S.zero);
      check "pow2 identity base" (G.pow b k) (G.pow2 G.one j b k);
      check "pow2 generator base" (naive_pow2 G.generator j b k) (G.pow2 G.generator j b k);
      check "pow2 same base" (G.pow a (S.add j k)) (G.pow2 a j a k)
    done

  let test_msm_agrees () =
    let r = rng () in
    let sizes = [ 0; 1; 2; 5; 17 ] in
    List.iter
      (fun n ->
        let pairs = Array.init n (fun _ -> (G.random r, S.random r)) in
        check (Printf.sprintf "msm n=%d" n) (naive_msm pairs) (G.msm pairs))
      sizes;
    (* Degenerate terms mixed into one product: zero scalars, the identity
       base, generator terms (folded onto the comb), a repeated base. *)
    let x = G.random r and y = G.random r in
    let j = S.random r and k = S.random r in
    let pairs =
      [|
        (G.generator, j);
        (x, S.zero);
        (G.one, k);
        (y, k);
        (G.generator, k);
        (y, S.one);
        (x, j);
      |]
    in
    check "msm degenerate mix" (naive_msm pairs) (G.msm pairs);
    check "msm all-zero scalars" G.one (G.msm [| (x, S.zero); (y, S.zero) |]);
    check "msm all-identity bases" G.one (G.msm [| (G.one, j); (G.one, k) |]);
    check "msm empty" G.one (G.msm [||]);
    (* Tiny scalars exercise the lazily-shortened window tables. *)
    let tiny = Array.init 8 (fun i -> (G.random r, S.of_int i)) in
    check "msm tiny scalars" (naive_msm tiny) (G.msm tiny)

  let test_msm_large () =
    (* Past the Pippenger cutover on the curve backend (n > 200). *)
    let r = rng () in
    let pairs = Array.init 220 (fun _ -> (G.random r, S.random r)) in
    check "msm n=220" (naive_msm pairs) (G.msm pairs)

  let test_pow_batch_agrees () =
    let r = rng () in
    let x = G.random r in
    let ks = Array.init 6 (fun i -> if i = 2 then S.zero else S.random r) in
    let expected = Array.map (G.pow x) ks in
    let got = G.pow_batch x ks in
    Alcotest.(check int) "pow_batch length" (Array.length expected) (Array.length got);
    Array.iteri (fun i e -> check (Printf.sprintf "pow_batch [%d]" i) e got.(i)) expected;
    (* Batch-normalization edge cases: every output infinite, a singleton
       batch, the empty batch. *)
    let all_inf = G.pow_batch G.one ks in
    Array.iteri
      (fun i e -> Alcotest.(check bool) (Printf.sprintf "identity batch [%d]" i) true (G.is_one e))
      all_inf;
    let single = G.pow_batch x [| ks.(0) |] in
    check "singleton batch" (G.pow x ks.(0)) single.(0);
    Alcotest.(check int) "empty batch" 0 (Array.length (G.pow_batch x [||]));
    let gen = G.pow_batch G.generator ks in
    Array.iteri
      (fun i k -> check (Printf.sprintf "generator batch vs pow [%d]" i) (G.pow_gen k) gen.(i))
      ks

  let test_pow_gen_batch_agrees () =
    let r = rng () in
    (* Zero scalars interleaved with random ones: the batch normalizer must
       skip the infinities without misaligning the rest. *)
    let ks = [| S.zero; S.random r; S.zero; S.random r; S.one; S.zero |] in
    let got = G.pow_gen_batch ks in
    Array.iteri (fun i k -> check (Printf.sprintf "pow_gen_batch [%d]" i) (G.pow_gen k) got.(i)) ks;
    let all_zero = G.pow_gen_batch [| S.zero; S.zero |] in
    Array.iter (fun e -> Alcotest.(check bool) "all-zero gen batch" true (G.is_one e)) all_zero;
    Alcotest.(check int) "empty gen batch" 0 (Array.length (G.pow_gen_batch [||]))

  (* Every lane [mul_batch] must treat exactly, mixed into one batch:
     identity operands on either side or both, a doubling (a = b), a
     product with the inverse (the identity), the generator, and a
     repeated operand. *)
  let test_mul_batch_agrees () =
    let r = rng () in
    let a = G.random r and b = G.random r and c = G.random r in
    let lanes =
      [|
        (a, b); (G.one, b); (a, G.one); (G.one, G.one); (a, a); (a, G.inv a); (G.inv b, b);
        (G.generator, c); (G.generator, G.generator); (c, a); (a, b); (b, a);
      |]
    in
    let xs = Array.map fst lanes and ys = Array.map snd lanes in
    let got = G.mul_batch xs ys in
    Alcotest.(check int) "mul_batch length" (Array.length lanes) (Array.length got);
    Array.iteri
      (fun i (x, y) -> check (Printf.sprintf "mul_batch [%d]" i) (G.mul x y) got.(i))
      lanes;
    Alcotest.(check bool) "a·a⁻¹ is the identity" true (G.is_one got.(5));
    Array.iteri
      (fun i (x, y) ->
        check (Printf.sprintf "singleton [%d]" i) (G.mul x y) (G.mul_batch [| x |] [| y |]).(0))
      lanes;
    let inverses = G.mul_batch [| a; b |] [| G.inv a; G.inv b |] in
    Alcotest.(check bool) "all-identity batch" true (Array.for_all G.is_one inverses);
    Alcotest.(check int) "empty" 0 (Array.length (G.mul_batch [||] [||]));
    Alcotest.(check bool) "length mismatch raises" true
      (match G.mul_batch [| a |] [||] with _ -> false | exception Invalid_argument _ -> true)

  (* Mixed arrays: the generator, a long-lived key, one-shot bases that
     repeat (across and within the two arrays), identities and zero,
     small and order-adjacent scalars; then empty arrays on either side. *)
  let test_pow_many_agrees () =
    let r = rng () in
    let key = G.random r and x = G.random r and y = G.random r in
    let scalars = [| S.random r; S.zero; S.one; S.of_int 7; S.of_int 8; S.neg S.one |] in
    let k i = scalars.(i mod Array.length scalars) in
    let keyed =
      Array.init 14 (fun i ->
          ((match i mod 4 with 0 -> G.generator | 1 | 2 -> key | _ -> G.one), k (i + 1)))
    in
    let fresh =
      Array.init 11 (fun i ->
          ((match i mod 5 with 0 | 3 -> x | 1 -> y | 2 -> G.one | _ -> G.random r), k i))
    in
    let agree what pairs got =
      Alcotest.(check int) (what ^ " length") (Array.length pairs) (Array.length got);
      Array.iteri
        (fun i (b, e) -> check (Printf.sprintf "pow_many %s [%d]" what i) (G.pow b e) got.(i))
        pairs
    in
    let gk, gf = G.pow_many ~fresh keyed in
    agree "keyed" keyed gk;
    agree "fresh" fresh gf;
    let only_keyed, none = G.pow_many ~fresh:[||] keyed in
    agree "keyed alone" keyed only_keyed;
    Alcotest.(check int) "no fresh" 0 (Array.length none);
    let none, only_fresh = G.pow_many ~fresh [||] in
    agree "fresh alone" fresh only_fresh;
    Alcotest.(check int) "no keyed" 0 (Array.length none);
    let a, b = G.pow_many ~fresh:[||] [||] in
    Alcotest.(check (pair int int)) "empty" (0, 0) (Array.length a, Array.length b)

  (* The pooled batch entry points give the same bytes with no pool, a
     1-domain pool and a 2-domain pool. *)
  let test_batches_pool_independent () =
    let r = rng () in
    let bases = Array.init 9 (fun i -> if i = 4 then G.one else G.random r) in
    let k = S.random r in
    let ks = Array.init 9 (fun i -> if i = 2 then S.zero else S.random r) in
    let run pool =
      List.map
        (fun els -> Array.map G.to_bytes els)
        (let keyed, fresh =
           G.pow_many ?pool
             ~fresh:(Array.map (fun b -> (b, k)) bases)
             (Array.mapi (fun i k -> ((if i mod 2 = 0 then bases.(1) else G.generator), k)) ks)
         in
         [ keyed; fresh; G.pow_batch ?pool bases.(0) ks; G.pow_gen_batch ?pool ks ])
    in
    let reference = run None in
    List.iter
      (fun domains ->
        let pool = Atom_exec.Pool.create ~domains () in
        let got =
          Fun.protect
            ~finally:(fun () -> Atom_exec.Pool.shutdown pool)
            (fun () -> run (Some pool))
        in
        Alcotest.(check (list (array string)))
          (Printf.sprintf "%d-domain pool" domains)
          reference got)
      [ 1; 2 ]

  (* [inv_batch] is [map inv], identities and the generator included, on
     the caller and from inside the jobs of a 1- and a 2-domain pool (each
     domain inverting its own batch on its own working state). *)
  let test_inv_batch_agrees () =
    let r = rng () in
    let xs =
      Array.init 70 (fun i ->
          if i mod 17 = 0 then G.one else if i = 5 then G.generator else G.random r)
    in
    let want = Array.map (fun x -> G.to_bytes (G.inv x)) xs in
    let run () = Array.map G.to_bytes (G.inv_batch xs) in
    Alcotest.(check (array string)) "no pool" want (run ());
    List.iter
      (fun domains ->
        let pool = Atom_exec.Pool.create ~domains () in
        let got =
          Fun.protect
            ~finally:(fun () -> Atom_exec.Pool.shutdown pool)
            (fun () -> Atom_exec.Pool.tabulate ~pool 4 (fun _ -> run ()))
        in
        Array.iter
          (Alcotest.(check (array string)) (Printf.sprintf "%d-domain pool" domains) want)
          got)
      [ 1; 2 ];
    check "singleton identity" G.one (G.inv_batch [| G.one |]).(0);
    Alcotest.(check int) "empty" 0 (Array.length (G.inv_batch [||]))

  let cases =
    [
      Alcotest.test_case (G.name ^ " comb pow_gen = pow g") `Quick test_pow_gen_agrees;
      Alcotest.test_case (G.name ^ " cached-base pow stable") `Quick test_pow_cached_base;
      Alcotest.test_case (G.name ^ " pow2 = pow·pow") `Quick test_pow2_agrees;
      Alcotest.test_case (G.name ^ " msm = fold pow") `Quick test_msm_agrees;
      Alcotest.test_case (G.name ^ " msm large (Pippenger)") `Slow test_msm_large;
      Alcotest.test_case (G.name ^ " pow_batch = map pow") `Quick test_pow_batch_agrees;
      Alcotest.test_case (G.name ^ " pow_gen_batch edge cases") `Quick test_pow_gen_batch_agrees;
      Alcotest.test_case (G.name ^ " mul_batch = map2 mul") `Quick test_mul_batch_agrees;
      Alcotest.test_case (G.name ^ " pow_many = map pow") `Quick test_pow_many_agrees;
      Alcotest.test_case (G.name ^ " inv_batch = map inv") `Quick test_inv_batch_agrees;
      Alcotest.test_case (G.name ^ " batches pool-independent") `Quick
        test_batches_pool_independent;
    ]
end

(* The P-256 table tiers. A base is a miss on its first scalar, has a
   window table from its second and a comb from its sixteenth; every
   entry point must agree with a double-and-add over [mul], which reads
   no table at all, in each of those states. *)
module P256_tiers = struct
  module P = Atom_group.P256
  module S = P.Scalar

  let check msg expected got = Alcotest.(check bool) msg true (P.equal expected got)

  let ref_pow x k =
    let acc = ref P.one in
    String.iter
      (fun c ->
        for i = 7 downto 0 do
          acc := P.mul !acc !acc;
          if (Char.code c lsr i) land 1 = 1 then acc := P.mul !acc x
        done)
      (S.to_bytes k);
    !acc

  let builds () = (P.window_builds (), P.comb_builds ())

  let test_cache_states () =
    let r = Atom_util.Rng.create 0x71e5 in
    let x = P.random r in
    let j = S.random r and k = S.random r in
    let xj = ref_pow x j and xk = ref_pow x k and gk = ref_pow P.generator k in
    (* pow, pow_batch, pow2 and a small msm, each checked in [state]. The
       msm mixes [x], the generator, a fresh one-shot base and zero
       scalars; each round adds 1 + 3 + 1 + 1 = 6 scalars to x's count. *)
    let agree state =
      check (state ^ " pow") xj (P.pow x j);
      let batch = P.pow_batch x [| j; S.zero; k |] in
      check (state ^ " pow_batch[0]") xj batch.(0);
      Alcotest.(check bool) (state ^ " pow_batch zero") true (P.is_one batch.(1));
      check (state ^ " pow_batch[2]") xk batch.(2);
      check (state ^ " pow2 with generator") (P.mul xj gk) (P.pow2 x j P.generator k);
      let y = P.random r and z = P.random r in
      check (state ^ " pow2 with one-shot") (P.mul (ref_pow y k) xj) (P.pow2 y k x j);
      let pairs = [| (x, j); (P.generator, k); (P.random r, S.zero); (z, k); (x, S.zero) |] in
      check (state ^ " msm") (P.mul (P.mul xj gk) (ref_pow z k)) (P.msm pairs)
    in
    let w0, c0 = builds () in
    check "miss pow" xj (P.pow x j);
    Alcotest.(check (pair int int)) "a miss builds nothing" (w0, c0) (builds ());
    agree "window";
    Alcotest.(check (pair int int)) "one window table, no comb" (w0 + 1, c0) (builds ());
    agree "window again";
    Alcotest.(check (pair int int)) "window table reused" (w0 + 1, c0) (builds ());
    (* 13 scalars so far: the sixteenth promotes x. *)
    for i = 14 to 16 do
      check (Printf.sprintf "pow #%d" i) xk (P.pow x k)
    done;
    Alcotest.(check (pair int int)) "promoted to one comb" (w0 + 1, c0 + 1) (builds ());
    agree "comb";
    agree "comb again";
    Alcotest.(check (pair int int)) "comb reused" (w0 + 1, c0 + 1) (builds ())

  (* One-shot bases pass through the window tier only: 64 of them cannot
     evict a promoted key's comb, and build no table themselves. *)
  let test_comb_survives_oneshots () =
    let r = Atom_util.Rng.create 0xe71c in
    let key = P.random r in
    let k = S.random r in
    let w0, c0 = builds () in
    ignore (P.pow_batch key (Array.init 16 (fun _ -> S.random r)));
    Alcotest.(check (pair int int)) "a 16-scalar batch promotes at once" (w0, c0 + 1) (builds ());
    for _ = 1 to 64 do
      ignore (P.pow (P.random r) k)
    done;
    check "key pow after the flood" (ref_pow key k) (P.pow key k);
    Alcotest.(check (pair int int)) "nothing rebuilt" (w0, c0 + 1) (builds ())

  (* pow_many's fresh pairs read no tier and feed none: a base raised
     through them 32 times, beside a keyed generator, builds no table, and
     a later plain [pow] of it is still a first sighting. *)
  let test_pow_many_fresh_skips_tiers () =
    let r = Atom_util.Rng.create 0xba5e in
    let y = P.random r in
    let k = S.random r in
    let w0, c0 = builds () in
    for _ = 1 to 2 do
      let g, ds = P.pow_many ~fresh:(Array.make 16 (y, k)) [| (P.generator, k) |] in
      check "keyed generator" (ref_pow P.generator k) g.(0);
      Array.iter (fun d -> check "strip" (ref_pow y k) d) ds
    done;
    Alcotest.(check (pair int int)) "no table built" (w0, c0) (builds ());
    check "pow after the batches" (ref_pow y k) (P.pow y k);
    Alcotest.(check (pair int int)) "still a miss" (w0, c0) (builds ())

  let cases =
    [
      Alcotest.test_case "p256 miss -> window -> comb agree" `Quick test_cache_states;
      Alcotest.test_case "p256 pow_many fresh pairs skip tiers" `Quick
        test_pow_many_fresh_skips_tiers;
      Alcotest.test_case "p256 comb survives one-shot bases" `Quick test_comb_survives_oneshots;
    ]
end

let suite () =
  let module Zp_laws = Laws ((val Atom_group.Registry.zp_test ())) in
  let module Zp256_laws = Laws ((val Atom_group.Registry.zp_medium ())) in
  let module P256_laws = Laws (Atom_group.P256) in
  ("fastpath", Zp_laws.cases @ Zp256_laws.cases @ P256_laws.cases @ P256_tiers.cases)
