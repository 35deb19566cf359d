(* Remaining corners: Fiat–Shamir transcript disambiguation, wire-level
   tamper-at-entry, DP dummy clamping, controller edge cases, sizing math
   edges, and deterministic proof generation. *)

module G = (val Atom_group.Registry.zp_test ())
module Pr = Atom_core.Protocol.Make (G)
module El = Pr.El
module P = Pr.P
open Atom_core

(* Length-prefixed transcripts: ["ab"; "c"] and ["a"; "bc"] concatenate to
   the same bytes but must yield different challenges — the classic
   ambiguity attack the framing prevents. *)
let test_transcript_disambiguation () =
  let digest parts =
    let tr = Atom_zkp.Transcript.create ~domain:"d" in
    Atom_zkp.Transcript.add_list tr parts;
    Atom_zkp.Transcript.digest tr
  in
  Alcotest.(check bool) "split points matter" false (digest [ "ab"; "c" ] = digest [ "a"; "bc" ]);
  Alcotest.(check bool) "empty part matters" false (digest [ "ab" ] = digest [ "ab"; "" ]);
  Alcotest.(check string) "deterministic" (digest [ "x"; "y" ]) (digest [ "x"; "y" ]);
  (* Domains separate streams. *)
  let tr1 = Atom_zkp.Transcript.create ~domain:"one" in
  let tr2 = Atom_zkp.Transcript.create ~domain:"two" in
  Atom_zkp.Transcript.add tr1 "same";
  Atom_zkp.Transcript.add tr2 "same";
  Alcotest.(check bool) "domain separation" false
    (Atom_zkp.Transcript.digest tr1 = Atom_zkp.Transcript.digest tr2);
  (* digest_n produces distinct, deterministic challenges. *)
  let tr = Atom_zkp.Transcript.create ~domain:"n" in
  Atom_zkp.Transcript.add tr "seed";
  let a = Atom_zkp.Transcript.digest_n tr 4 in
  Alcotest.(check int) "four challenges" 4 (Array.length a);
  Alcotest.(check int) "all distinct" 4
    (List.length (List.sort_uniq compare (Array.to_list a)))

(* A submission tampered in transit (post-serialization) either fails to
   decode or is rejected by the entry group's proof check — never accepted. *)
let test_wire_tamper_rejected_at_entry () =
  let r = Atom_util.Rng.create 0x3141 in
  let config = Config.tiny ~variant:Config.Basic ~seed:101 () in
  let net = Pr.setup r config () in
  let s = Pr.submit r net ~user:0 ~entry_gid:1 "tamper target" in
  let bytes = Pr.Wire.submission_to_bytes s in
  let seen () = Hashtbl.create 4 in
  let flips = 30 in
  let rr = Atom_util.Rng.create 0x5926 in
  for _ = 1 to flips do
    let i = Atom_util.Rng.int_below rr (String.length bytes) in
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Atom_util.Rng.int_below rr 8)));
    match Pr.Wire.submission_of_bytes (Bytes.to_string b) with
    | None -> () (* malformed: dropped *)
    | Some s' ->
        (* Decoded: either metadata changed (user/gid — harmless routing
           fields the user signs nothing over) or the crypto check fails. *)
        if s'.Pr.user = s.Pr.user && s'.Pr.entry_gid = s.Pr.entry_gid then
          Alcotest.(check bool) "mutated ciphertext/proof rejected" false
            (Pr.verify_submission net (seen ()) s')
  done;
  (* The untouched original still verifies. *)
  Alcotest.(check bool) "original accepted" true
    (Pr.verify_submission net (seen ()) (Option.get (Pr.Wire.submission_of_bytes bytes)))

let test_dummy_count_clamped () =
  (* With b >> mu the Laplace noise often drives the count negative; it must
     clamp to zero and never go below. *)
  let rng = Atom_util.Rng.create 6 in
  let zeros = ref 0 in
  for _ = 1 to 2000 do
    let n = Dialing.dummy_count rng ~mu:1. ~b:50. in
    Alcotest.(check bool) "non-negative" true (n >= 0);
    if n = 0 then incr zeros
  done;
  Alcotest.(check bool) "clamp actually bites" true (!zeros > 500)

let test_controller_basic_variant_inert () =
  let c = Controller.create ~variant:Config.Basic () in
  for _ = 1 to 5 do
    ignore (Controller.record c ~aborted:true ~blamed:[ 1 ])
  done;
  (* No policy for the basic variant: it never switches. *)
  Alcotest.(check bool) "stays basic" true (Controller.variant c = Config.Basic);
  Alcotest.(check (list int)) "still collects blame" [ 1 ] (Controller.blacklist c)

let test_log_sum_exp_edges () =
  let module Gs = Atom_topology.Group_sizing in
  Alcotest.(check (float 1e-12)) "empty" neg_infinity (Gs.log_sum_exp []);
  Alcotest.(check (float 1e-9)) "single" (-3.) (Gs.log_sum_exp [ -3. ]);
  (* log(e^a + e^a) = a + log 2 *)
  Alcotest.(check (float 1e-9)) "doubling" (-3. +. log 2.) (Gs.log_sum_exp [ -3.; -3. ]);
  (* Extreme magnitudes do not overflow. *)
  let v = Gs.log_sum_exp [ -1000.; -1001. ] in
  Alcotest.(check bool) "no underflow to -inf" true (Float.is_finite v && v < -999.);
  (* log_choose sanity: C(5,2) = 10. *)
  Alcotest.(check (float 1e-9)) "choose" (log 10.) (Gs.log_choose 5 2)

(* Proofs are deterministic in the RNG: identical streams produce identical
   proofs (reproducibility of experiments), and different streams produce
   different proofs for the same statement (blinding actually randomizes). *)
let test_proofs_deterministic_in_rng () =
  let make seed =
    let r = Atom_util.Rng.create seed in
    let kp = El.keygen r in
    let m = G.random r in
    let ct, randomness = El.enc r kp.El.pk m in
    (kp, ct, P.Enc_proof.prove r ~pk:kp.El.pk ~context:"det" ct ~randomness)
  in
  let _, _, p1 = make 42 and _, _, p2 = make 42 in
  Alcotest.(check string) "same stream, same proof" (P.Enc_proof.to_bytes p1)
    (P.Enc_proof.to_bytes p2);
  (* Same statement, different blinding. *)
  let r = Atom_util.Rng.create 42 in
  let kp = El.keygen r in
  let m = G.random r in
  let ct, randomness = El.enc r kp.El.pk m in
  let pa = P.Enc_proof.prove r ~pk:kp.El.pk ~context:"det" ct ~randomness in
  let pb = P.Enc_proof.prove r ~pk:kp.El.pk ~context:"det" ct ~randomness in
  Alcotest.(check bool) "fresh blinding" false (P.Enc_proof.to_bytes pa = P.Enc_proof.to_bytes pb);
  Alcotest.(check bool) "both verify" true
    (P.Enc_proof.verify ~pk:kp.El.pk ~context:"det" ct pa
    && P.Enc_proof.verify ~pk:kp.El.pk ~context:"det" ct pb)

(* The trustee group withholds keys when ANY group reports a violation —
   check the count-mismatch path specifically (drop without replacement). *)
let test_trap_drop_without_replacement_always_caught () =
  for seed = 1 to 5 do
    let r = Atom_util.Rng.create (9000 + seed) in
    let config = Config.tiny ~variant:Config.Trap ~seed () in
    let net = Pr.setup r config () in
    let msgs = List.init 5 (fun i -> Printf.sprintf "drop-%d" i) in
    let subs = List.mapi (fun i m -> Pr.submit r net ~user:i ~entry_gid:(i mod 4) m) msgs in
    let fired = ref false in
    let adversary =
      {
        Pr.no_adversary with
        Pr.tamper =
          (fun ~iter ~gid ~next_pk:_ batch ->
            if iter = 1 && gid = 0 && Array.length batch > 0 && not !fired then begin
              fired := true;
              Array.sub batch 0 (Array.length batch - 1) (* outright drop *)
            end
            else batch);
      }
    in
    let outcome = Pr.run r net ~adversary subs in
    Alcotest.(check bool) "dropped" true !fired;
    (* Unlike replacement (50% escape), an outright drop is ALWAYS caught:
       either a trap is missing or the trap/inner counts disagree. *)
    Alcotest.(check bool) "always aborts" true (outcome.Pr.aborted <> None)
  done

(* Cross-round replay: the proof context binds the round number, so a
   submission recorded in round 0 is rejected by round 1's entry group even
   though the group key sampling could, in principle, repeat. *)
let test_cross_round_replay_rejected () =
  let config = Config.tiny ~variant:Config.Basic ~seed:202 () in
  let r = Atom_util.Rng.create 77 in
  let net0 = Pr.setup r config ~round:0 () in
  let s = Pr.submit r net0 ~user:0 ~entry_gid:0 "replay me" in
  Alcotest.(check bool) "valid in round 0" true
    (Pr.verify_submission net0 (Hashtbl.create 4) s);
  let net1 = Pr.setup r config ~round:1 () in
  Alcotest.(check bool) "rejected in round 1" false
    (Pr.verify_submission net1 (Hashtbl.create 4) s)

let test_dkg_verify_dealing_direct () =
  let module Dkg = Pr.Dkg in
  let r = Atom_util.Rng.create 88 in
  let d = Dkg.deal r ~dealer:1 ~k:5 ~threshold:3 in
  for member = 1 to 5 do
    Alcotest.(check bool) (Printf.sprintf "member %d accepts" member) true
      (Dkg.verify_dealing d ~member)
  done;
  (* Corrupt one sub-share: exactly that member rejects. *)
  d.Dkg.shares.(2) <-
    { d.Dkg.shares.(2) with Pr.Sh.value = G.Scalar.add d.Dkg.shares.(2).Pr.Sh.value G.Scalar.one };
  Alcotest.(check bool) "victim rejects" false (Dkg.verify_dealing d ~member:3);
  Alcotest.(check bool) "others unaffected" true (Dkg.verify_dealing d ~member:1)

let test_points_per_msg () =
  (* Paper packing: 160-byte microblog = 5 points, 80-byte dialing = 3. *)
  let cfg = Config.paper_default in
  Alcotest.(check int) "microblog points" 5
    (Simulate.microblog cfg ~n_messages:1).Simulate.points_per_msg;
  Alcotest.(check int) "dialing points" 3
    (Simulate.dialing cfg ~n_messages:1).Simulate.points_per_msg;
  (* Dialing adds the trustees' dummies. *)
  Alcotest.(check int) "dialing dummies" (33 * 13_000)
    (Simulate.dialing cfg ~n_messages:1).Simulate.dummies

let prop_modarith_pow_homomorphism =
  QCheck2.Test.make ~name:"modarith pow is a homomorphism" ~count:50
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (x, y) ->
      let module M = Atom_nat.Modarith in
      let module N = Atom_nat.Nat in
      let ctx = M.create (N.of_int 1_000_003 (* prime *)) in
      let g = M.of_int ctx 2 in
      let e i = M.plain_of_nat ctx (N.of_int i) in
      M.equal (M.pow ctx g (e (x + y))) (M.mul ctx (M.pow ctx g (e x)) (M.pow ctx g (e y))))

let suite =
  ( "misc",
    [
      Alcotest.test_case "transcript disambiguation" `Quick test_transcript_disambiguation;
      Alcotest.test_case "wire tamper rejected at entry" `Quick test_wire_tamper_rejected_at_entry;
      Alcotest.test_case "dummy count clamped" `Quick test_dummy_count_clamped;
      Alcotest.test_case "controller inert for basic" `Quick test_controller_basic_variant_inert;
      Alcotest.test_case "log-space math edges" `Quick test_log_sum_exp_edges;
      Alcotest.test_case "proofs deterministic in rng" `Quick test_proofs_deterministic_in_rng;
      Alcotest.test_case "drop without replacement always caught" `Quick
        test_trap_drop_without_replacement_always_caught;
      Alcotest.test_case "cross-round replay rejected" `Quick test_cross_round_replay_rejected;
      Alcotest.test_case "dkg verify_dealing direct" `Quick test_dkg_verify_dealing_direct;
      Alcotest.test_case "paper message packing" `Quick test_points_per_msg;
      QCheck_alcotest.to_alcotest prop_modarith_pow_homomorphism;
    ] )
