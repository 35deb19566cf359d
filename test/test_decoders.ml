(* Every binary decoder of untrusted bytes, table-driven.

   Under the anytrust model any server may be malicious, so every proof,
   ciphertext, envelope and submission a node decodes comes from a
   possible adversary. One table covers them all, on both backends; each
   row is a seeded encoding and its decoder (returning the re-encoding of
   what it accepted). For every row:

   - decoding then re-encoding gives back the same bytes;
   - every strict prefix is rejected;
   - one extra trailing byte is rejected;
   - the seeded encoding's SHA-256 matches the pinned digest, so any
     drift of a byte layout fails here before it reaches a peer.

   A separate test forges count prefixes that claim far more items than
   the bytes present and checks that decoding rejects them without
   allocating for the claim. *)

type row = { name : string; bytes : string; decode : string -> string option }

(* SHA-256 of each seeded encoding, keyed by backend and row name. *)
let pinned : ((string * string) * string) list =
  [
    (("zp-96", "cipher"), "4df10a1e89746e440e94195492e138a390ffffe7363853d7c32bdbf4cb0bea6c");
    (("zp-96", "cipher+y"), "3358fd2a0029c5b280c875bfe9de7250b753bd92e3a949804da3a46a77267255");
    (("zp-96", "kem"), "6e04cd7d2c4fcb2d72a88b8ad969f3f57444c6eafbc5b76c3c9d496d4ef122cd");
    (("zp-96", "enc-proof"), "c9e16bf9e8b8d7590dc183531320e01445d860c0fa9d281411d9376c4e9d63aa");
    (("zp-96", "dleq"), "0dadadf1e8e798c4a8af648ebab41bdfc3e25c46119080dfe7f7cd69c4dfa290");
    (("zp-96", "reenc-proof"), "4db87258a46fbaeb799d100e7663d6147b872f3937d9e052b607efb4298eccd9");
    (("zp-96", "reenc-proof-exit"), "1d4883209384d110eacdfaa33d5fd24a3d3569f9eb1fb4c73e7d4d0d23c0a3d6");
    (("zp-96", "shuffle-proof"), "f47821fa151fdc811b431653d8ef058170ddf1ce864d671a948eaf5f1b01fe45");
    (("zp-96", "reenc-blob"), "8ff31ac82f2123f5eaf8cbd25ba454e70bf47685f1117eacb750b8e3a3d3e596");
    (("zp-96", "submission-basic"), "3d81094772d04ceb0ec62389d459305a7abc34eb97e125695e04a8ef572b240c");
    (("zp-96", "submission-nizk"), "640c9e249deb6c87d8ad43f1058e79839ff8ae5ce82ec62c643e9254450b045f");
    (("zp-96", "submission-trap"), "e747baa119434a3d012187e1fe57c34bb43b60f27fa969b6850baddad536f6c3");
    (("zp-96", "signature"), "8b95a19285d3f9a650a2be9da8ff0d4c110d12596692f044fa99e501db6b77f5");
    (("p256", "cipher"), "2618e79304e03fd802c002a255ebb38fba2aa1e82adcfdb9075d1f6b5df0f5a9");
    (("p256", "cipher+y"), "ae596e0b95efc99374b84711e02b4ca0538be79f7c578175277443b96c69de18");
    (("p256", "kem"), "4afbee28b46cb9583a610b5769b1b7db5b4755e03cfd549befb1d1d255bd7bb6");
    (("p256", "enc-proof"), "043bd8196f0348d4f402cea95418e3a5a61884ac6b0d2aeca118ab03d486eff1");
    (("p256", "dleq"), "efa81972c75e2d25bbec45a5b4cce4c576f1d0d1c5b9149f8b965ef51127167b");
    (("p256", "reenc-proof"), "56719301bc6fbde62c5376318f3957ba8bb19dfd6b7c533ad7794de8db2593d3");
    (("p256", "reenc-proof-exit"), "7da0f41db5ecfbdc361476e531ba516c96e122a771ba5045465e3f132027f87e");
    (("p256", "shuffle-proof"), "fe3509bc18b30708d6508fad7d195ba8b9ab0e089616851a70d7030c5d4a0a86");
    (("p256", "reenc-blob"), "a6e3c2144f66a69e4175bd144b384e3c2e176bc4131ca15bf613c3e12ac08e6f");
    (("p256", "submission-basic"), "c6bd275d555b5b6f66c8d069d62675ae2c8d38b52c8e36b3cf9a95259965e98e");
    (("p256", "submission-nizk"), "ffa33fa8519280af881ee420734737d95c62fdc09fa5c13326a856e708f03a9b");
    (("p256", "submission-trap"), "394ac70ab45d2f9994b1eedf56823c411c2fc59a6cca5a4601939578a9695bad");
    (("p256", "signature"), "ac48edceeddd6da704d3dc58a2f408056988160b72647427aef792829b8012d2");
  ]

module Rows (G : Atom_group.Group_intf.GROUP) = struct
  module Ns = Atom_rpc.Node_shared.Make (G)
  module Pr = Ns.Pr
  module El = Pr.El
  module P = Pr.P
  module Shuf = Pr.Shuf
  module Signer = Atom_core.Bulletin.Signer (G)

  let rng name = Atom_util.Rng.create (Atom_util.Rng.hash_string ("decoders/" ^ name))

  let row name bytes decode = { name; bytes; decode }
  let via of_bytes to_bytes s = Option.map to_bytes (of_bytes s)

  let cipher r pk = fst (El.enc r pk (G.random r))

  let unit_ct r pk ~proofs : Pr.unit_ct =
    let vec, randomness = El.enc_vec r pk [| G.random r; G.random r |] in
    let proofs =
      let prove i ct = P.Enc_proof.prove r ~pk ~context:"decoders" ct ~randomness:randomness.(i) in
      if proofs then Array.mapi prove vec else [||]
    in
    { Pr.vec; proofs }

  let submission name ~units ~proofs ~commitment =
    let r = rng name in
    let pk = (El.keygen r).El.pk in
    let units = Array.init units (fun _ -> unit_ct r pk ~proofs) in
    let commitment = if commitment then Some (Atom_util.Rng.bytes r 32) else None in
    let s = { Pr.user = 7; entry_gid = 3; units; commitment } in
    row name (Pr.Wire.submission_to_bytes s)
      (via Pr.Wire.submission_of_bytes Pr.Wire.submission_to_bytes)

  let reenc_proof name ~exit =
    let r = rng name in
    let kp = El.keygen r and next = El.keygen r in
    let next_pk = if exit then None else Some next.El.pk in
    let _, pi =
      P.Reenc_proof.reenc_with_proof r ~share:kp.El.sk ~next_pk ~context:"decoders"
        (cipher r kp.El.pk)
    in
    row name (P.Reenc_proof.to_bytes pi) (via P.Reenc_proof.of_bytes P.Reenc_proof.to_bytes)

  let rows () : row list =
    [
      (let r = rng "cipher" in
       let ct = cipher r (El.keygen r).El.pk in
       row "cipher" (El.cipher_to_bytes ct) (via El.cipher_of_bytes El.cipher_to_bytes));
      (let r = rng "cipher+y" in
       let kp = El.keygen r in
       let ct, _ =
         El.reenc r ~share:kp.El.sk ~next_pk:(Some (El.keygen r).El.pk) (cipher r kp.El.pk)
       in
       row "cipher+y" (El.cipher_to_bytes ct) (via El.cipher_of_bytes El.cipher_to_bytes));
      (let r = rng "kem" in
       let sealed = El.Kem.enc r (El.keygen r).El.pk "decoders kem payload" in
       row "kem" (El.Kem.to_bytes sealed) (via El.Kem.of_bytes El.Kem.to_bytes));
      (let r = rng "enc-proof" in
       let kp = El.keygen r in
       let ct, randomness = El.enc r kp.El.pk (G.random r) in
       let pi = P.Enc_proof.prove r ~pk:kp.El.pk ~context:"decoders" ct ~randomness in
       row "enc-proof" (P.Enc_proof.to_bytes pi) (via P.Enc_proof.of_bytes P.Enc_proof.to_bytes));
      (let r = rng "dleq" in
       let x = G.Scalar.random r and g2 = G.random r in
       let pi =
         P.Dleq.prove r ~context:"decoders" ~g1:G.generator ~h1:(G.pow_gen x) ~g2
           ~h2:(G.pow g2 x) ~x
       in
       row "dleq" (P.Dleq.to_bytes pi) (via P.Dleq.of_bytes P.Dleq.to_bytes));
      reenc_proof "reenc-proof" ~exit:false;
      reenc_proof "reenc-proof-exit" ~exit:true;
      (let r = rng "shuffle-proof" in
       let pk = (El.keygen r).El.pk in
       let input = Array.init 3 (fun _ -> fst (El.enc_vec r pk [| G.random r; G.random r |])) in
       let output, witness = Option.get (El.shuffle_vec r pk input) in
       let pi = Shuf.prove r ~pk ~context:"decoders" ~input ~output ~witness in
       row "shuffle-proof" (Shuf.to_bytes pi) (via Shuf.of_bytes Shuf.to_bytes));
      (let r = rng "reenc-blob" in
       let kp = El.keygen r in
       let v = fst (El.enc_vec r kp.El.pk [| G.random r; G.random r |]) in
       let _, pis =
         P.Reenc_proof.reenc_vec_with_proof r ~share:kp.El.sk ~next_pk:(Some (El.keygen r).El.pk)
           ~context:"decoders" v
       in
       row "reenc-blob" (Ns.reenc_proofs_to_blob pis)
         (via Ns.reenc_proofs_of_blob Ns.reenc_proofs_to_blob));
      submission "submission-basic" ~units:1 ~proofs:false ~commitment:false;
      submission "submission-nizk" ~units:1 ~proofs:true ~commitment:false;
      submission "submission-trap" ~units:2 ~proofs:true ~commitment:true;
      (let sk, pk = Signer.keypair ~seed:11 in
       let msg = Atom_hash.Sha256.digest "decoders bulletin" in
       row "signature" (Signer.sign ~sk msg) (fun s ->
           if Signer.verify ~pk ~msg s then Some s else None));
    ]

  let test_table () =
    let drift = ref [] in
    List.iter
      (fun { name; bytes; decode } ->
        (match decode bytes with
        | None -> Alcotest.failf "%s: seeded encoding rejected" name
        | Some back -> if back <> bytes then Alcotest.failf "%s: re-encoding differs" name);
        for i = 0 to String.length bytes - 1 do
          if decode (String.sub bytes 0 i) <> None then
            Alcotest.failf "%s: strict prefix of %d bytes accepted" name i
        done;
        if decode (bytes ^ "\000") <> None then Alcotest.failf "%s: trailing byte accepted" name;
        let digest = Atom_hash.Sha256.hex bytes in
        if List.assoc_opt (G.name, name) pinned <> Some digest then
          drift := Printf.sprintf "((%S, %S), %S)" G.name name digest :: !drift)
      (rows ());
    if !drift <> [] then
      Alcotest.failf "encodings drifted from the pinned digests:\n%s"
        (String.concat ";\n" (List.rev !drift))

  (* Forged count prefixes: a [Submissions] body claiming 65,535 blobs in
     12 bytes, and a shuffle-proof header claiming n = 1,000,000 and
     width = 4,096 followed by a single element. Both must be rejected
     without allocating for what they claim. *)
  let test_forged_counts () =
    let be32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) in
    let submissions =
      Atom_wire.Frame.encode ~kind:Atom_wire.Frame.kind_submissions
        (be32 1 ^ be32 65535 ^ be32 0)
    in
    let shuffle = be32 1_000_000 ^ be32 4096 ^ G.to_bytes G.generator in
    let allocated (decode : unit -> bool) =
      let before = Gc.allocated_bytes () in
      let rejected = decode () in
      (rejected, Gc.allocated_bytes () -. before)
    in
    let results =
      [
        ("submissions", allocated (fun () -> Pr.Wire.submissions_of_frame submissions = None));
        ("shuffle proof", allocated (fun () -> Shuf.of_bytes shuffle = None));
      ]
    in
    let bad =
      List.filter_map
        (fun (name, (rejected, grown)) ->
          if rejected && grown < 65536. then None
          else Some (Printf.sprintf "%s: rejected %b after allocating %.0f bytes" name rejected grown))
        results
    in
    if bad <> [] then Alcotest.fail (String.concat "; " bad)

  let cases =
    [
      Alcotest.test_case (G.name ^ " totality table") `Quick test_table;
      Alcotest.test_case (G.name ^ " forged counts") `Quick test_forged_counts;
    ]
end

let suite () =
  let module G_zp = (val Atom_group.Registry.zp_test ()) in
  let module Zp = Rows (G_zp) in
  let module P256 = Rows (Atom_group.P256) in
  ("decoders", Zp.cases @ P256.cases)
