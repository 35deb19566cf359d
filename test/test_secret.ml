(* Tests for atom_secret: Shamir, Feldman VSS, dealerless DKG, buddy-group
   re-sharing, and the integration with threshold ElGamal decryption that
   Atom's many-trust groups rely on (§4.5). *)

module G = (val Atom_group.Registry.zp_test ())
module Sh = Atom_secret.Shamir.Make (G)
module Dkg = Atom_secret.Dkg.Make (G)
module El = Atom_elgamal.Elgamal.Make (G)
module S = G.Scalar

let rng () = Atom_util.Rng.create 0x5ec4e7

let scalar_eq =
  Alcotest.testable (fun fmt s -> Format.pp_print_string fmt (Atom_util.Hex.encode (S.to_bytes s))) S.equal

let test_split_reconstruct () =
  let r = rng () in
  let secret = S.random r in
  let shares, _ = Sh.split r ~threshold:3 ~n:5 secret in
  (* Any 3 shares reconstruct. *)
  let combos = [ [ 0; 1; 2 ]; [ 0; 2; 4 ]; [ 2; 3; 4 ]; [ 0; 1; 4 ] ] in
  List.iter
    (fun combo ->
      let subset = List.map (fun i -> shares.(i)) combo in
      Alcotest.check scalar_eq "reconstruct" secret (Sh.reconstruct subset))
    combos;
  (* All 5 also reconstruct. *)
  Alcotest.check scalar_eq "all shares" secret (Sh.reconstruct (Array.to_list shares))

let test_below_threshold_useless () =
  let r = rng () in
  let secret = S.random r in
  let shares, _ = Sh.split r ~threshold:3 ~n:5 secret in
  (* 2 shares interpolate to something else (w.h.p. over a 96-bit field). *)
  let wrong = Sh.reconstruct [ shares.(0); shares.(1) ] in
  Alcotest.(check bool) "2 shares do not reconstruct" false (S.equal wrong secret)

let test_threshold_one () =
  let r = rng () in
  let secret = S.random r in
  let shares, _ = Sh.split r ~threshold:1 ~n:4 secret in
  (* Degree-0 polynomial: every share is the secret itself. *)
  Array.iter (fun (s : Sh.share) -> Alcotest.check scalar_eq "constant poly" secret s.Sh.value) shares

let test_duplicate_shares_rejected () =
  let r = rng () in
  let shares, _ = Sh.split r ~threshold:2 ~n:3 (S.random r) in
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Shamir.reconstruct: duplicate share indices") (fun () ->
      ignore (Sh.reconstruct [ shares.(0); shares.(0) ]))

let test_invalid_params () =
  let r = rng () in
  Alcotest.check_raises "threshold 0" (Invalid_argument "Shamir.split: need 1 <= threshold <= n")
    (fun () -> ignore (Sh.split r ~threshold:0 ~n:3 S.one));
  Alcotest.check_raises "threshold > n" (Invalid_argument "Shamir.split: need 1 <= threshold <= n")
    (fun () -> ignore (Sh.split r ~threshold:4 ~n:3 S.one))

let test_feldman () =
  let r = rng () in
  let secret = S.random r in
  let shares, coeffs = Sh.split r ~threshold:3 ~n:5 secret in
  let comms = Sh.commit coeffs in
  Array.iter
    (fun s -> Alcotest.(check bool) "share verifies" true (Sh.verify_share comms s))
    shares;
  (* Corrupted share fails. *)
  let bad = { shares.(2) with Sh.value = S.add shares.(2).Sh.value S.one } in
  Alcotest.(check bool) "bad share rejected" false (Sh.verify_share comms bad);
  (* Wrong index fails. *)
  let misattributed = { shares.(2) with Sh.idx = 4 } in
  Alcotest.(check bool) "wrong index rejected" false (Sh.verify_share comms misattributed);
  (* secret_pk = g^secret *)
  Alcotest.(check bool) "secret pk" true (G.equal (Sh.secret_pk comms) (G.pow_gen secret))

let test_dkg_basic () =
  let r = rng () in
  let res = Dkg.run r ~k:5 ~threshold:3 () in
  Alcotest.(check (list int)) "no disqualifications" [] res.Dkg.disqualified;
  (* Reconstructing from any 3 shares gives a secret matching the group pk. *)
  let subset = [ res.Dkg.shares.(0); res.Dkg.shares.(2); res.Dkg.shares.(4) ] in
  let sk = Sh.reconstruct subset in
  Alcotest.(check bool) "group pk consistent" true (G.equal res.Dkg.group_pk (G.pow_gen sk));
  (* Every member's share matches its public commitment. *)
  for j = 1 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "share_pk %d" j)
      true
      (G.equal (Dkg.share_pk res j) (G.pow_gen res.Dkg.shares.(j - 1).Sh.value))
  done

let test_dkg_malicious_dealer () =
  let r = rng () in
  let res = Dkg.run r ~k:5 ~threshold:3 ~malicious_dealers:[ 2 ] () in
  Alcotest.(check (list int)) "dealer 2 disqualified" [ 2 ] res.Dkg.disqualified;
  (* The remaining protocol is still consistent. *)
  let sk = Sh.reconstruct [ res.Dkg.shares.(1); res.Dkg.shares.(2); res.Dkg.shares.(3) ] in
  Alcotest.(check bool) "group pk consistent" true (G.equal res.Dkg.group_pk (G.pow_gen sk))

(* Threshold decryption through the reenc path: exactly how a many-trust
   group of k = 5 with h = 3 honest servers operates with only
   k − (h−1) = 3 participants. *)
let test_threshold_elgamal_via_reenc () =
  let r = rng () in
  let k = 5 and h = 3 in
  let threshold = k - (h - 1) in
  let res = Dkg.run r ~k ~threshold () in
  let m = G.random r in
  let ct, _ = El.enc r res.Dkg.group_pk m in
  (* Any [threshold]-subset decrypts by Lagrange-weighted stripping. *)
  List.iter
    (fun participating ->
      let ct' =
        List.fold_left
          (fun ct idx ->
            let coeff = Sh.lagrange_at_zero ~xs:participating ~i:idx in
            fst
              (El.reenc r ~share:res.Dkg.shares.(idx - 1).Sh.value ~coeff ~next_pk:None ct))
          ct participating
      in
      Alcotest.(check bool) "threshold decrypt" true (G.equal m (El.plaintext_of_exit ct')))
    [ [ 1; 2; 3 ]; [ 1; 3; 5 ]; [ 2; 4; 5 ]; [ 3; 4; 5 ] ];
  (* A subset below the threshold fails. *)
  let too_few = [ 1; 2 ] in
  let ct' =
    List.fold_left
      (fun ct idx ->
        let coeff = Sh.lagrange_at_zero ~xs:too_few ~i:idx in
        fst (El.reenc r ~share:res.Dkg.shares.(idx - 1).Sh.value ~coeff ~next_pk:None ct))
      ct too_few
  in
  Alcotest.(check bool) "below threshold fails" false (G.equal m (El.plaintext_of_exit ct'))

(* Threshold re-encryption toward a next group: the full many-trust mixing
   step with a failed server. *)
let test_threshold_reenc_with_failure () =
  let r = rng () in
  let k = 4 and h = 2 in
  let threshold = k - (h - 1) in
  let res = Dkg.run r ~k ~threshold () in
  let next = El.keygen r in
  let m = G.random r in
  let ct, _ = El.enc r res.Dkg.group_pk m in
  (* Server 3 fails: the other three (= threshold) route the message. *)
  let participating = [ 1; 2; 4 ] in
  let ct' =
    List.fold_left
      (fun ct idx ->
        let coeff = Sh.lagrange_at_zero ~xs:participating ~i:idx in
        fst
          (El.reenc r ~share:res.Dkg.shares.(idx - 1).Sh.value ~coeff
             ~next_pk:(Some next.El.pk) ct))
      ct participating
  in
  let ct' = El.clear_y ct' in
  Alcotest.(check bool) "reencrypted for next group" true
    (G.equal m (Option.get (El.dec next.El.sk ct')))

let test_reshare_recover () =
  let r = rng () in
  let res = Dkg.run r ~k:4 ~threshold:3 () in
  let lost = res.Dkg.shares.(1) in
  (* Member 2 re-shares its share to a 5-member buddy group, threshold 3. *)
  let rs = Dkg.reshare r ~threshold':3 ~buddies:5 lost in
  (* Buddy sub-shares verify against the re-sharing commitments. *)
  Array.iter
    (fun s -> Alcotest.(check bool) "sub-share verifies" true (Sh.verify_share rs.Dkg.sub_comms s))
    rs.Dkg.sub_shares;
  (* A replacement server recovers the lost share from any 3 buddies. *)
  let recovered = Dkg.recover rs ~from:[ 1; 3; 5 ] in
  Alcotest.(check int) "index preserved" lost.Sh.idx recovered.Sh.idx;
  Alcotest.check scalar_eq "value recovered" lost.Sh.value recovered.Sh.value;
  (* Group keeps functioning with the recovered share. *)
  let m = G.random r in
  let ct, _ = El.enc r res.Dkg.group_pk m in
  let participating = [ 1; 2; 3 ] in
  let shares = [ res.Dkg.shares.(0); recovered; res.Dkg.shares.(2) ] in
  let ct' =
    List.fold_left2
      (fun ct idx share ->
        let coeff = Sh.lagrange_at_zero ~xs:participating ~i:idx in
        fst (El.reenc r ~share:share.Sh.value ~coeff ~next_pk:None ct))
      ct participating shares
  in
  Alcotest.(check bool) "decrypt with recovered share" true (G.equal m (El.plaintext_of_exit ct'))

let test_exponentiation_count () =
  (* Sanity on the cost model the simulator charges for group setup. *)
  Alcotest.(check bool) "monotone in k" true
    (Dkg.exponentiation_count ~k:8 ~threshold:4 > Dkg.exponentiation_count ~k:4 ~threshold:4);
  Alcotest.(check bool) "monotone in threshold" true
    (Dkg.exponentiation_count ~k:8 ~threshold:8 > Dkg.exponentiation_count ~k:8 ~threshold:4)

let prop_reconstruct =
  QCheck2.Test.make ~name:"shamir reconstruct on random subsets" ~count:50
    QCheck2.Gen.(pair (int_range 1 6) (int_range 0 1000))
    (fun (threshold, seed) ->
      let r = Atom_util.Rng.create seed in
      let n = threshold + Atom_util.Rng.int_below r 4 in
      let secret = S.random r in
      let shares, _ = Sh.split r ~threshold ~n secret in
      (* pick a random subset of exactly [threshold] shares *)
      let order = Atom_util.Rng.permutation r n in
      let subset = List.init threshold (fun i -> shares.(order.(i))) in
      S.equal secret (Sh.reconstruct subset))

let suite =
  let q t = QCheck_alcotest.to_alcotest t in
  ( "secret",
    [
      Alcotest.test_case "split/reconstruct" `Quick test_split_reconstruct;
      Alcotest.test_case "below threshold useless" `Quick test_below_threshold_useless;
      Alcotest.test_case "threshold one" `Quick test_threshold_one;
      Alcotest.test_case "duplicate shares rejected" `Quick test_duplicate_shares_rejected;
      Alcotest.test_case "invalid params" `Quick test_invalid_params;
      Alcotest.test_case "feldman vss" `Quick test_feldman;
      Alcotest.test_case "dkg basic" `Quick test_dkg_basic;
      Alcotest.test_case "dkg malicious dealer" `Quick test_dkg_malicious_dealer;
      Alcotest.test_case "threshold elgamal via reenc" `Quick test_threshold_elgamal_via_reenc;
      Alcotest.test_case "threshold reenc with failure" `Quick test_threshold_reenc_with_failure;
      Alcotest.test_case "buddy reshare/recover" `Quick test_reshare_recover;
      Alcotest.test_case "dkg cost model" `Quick test_exponentiation_count;
      q prop_reconstruct;
    ] )
