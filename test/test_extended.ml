(* Extended coverage: the §4.6 fallback controller, §7 weighted load
   balancing, §4.7 pipelining, butterfly end-to-end, multi-round operation,
   the basic variant's (intentional) vulnerability, malformed-input fuzzing,
   and a P-256 end-to-end smoke test. *)

module G = (val Atom_group.Registry.zp_test ())
module Pr = Atom_core.Protocol.Make (G)
module El = Pr.El
module Msg = Pr.Msg
open Atom_core

let rng () = Atom_util.Rng.create 0xe47e

(* ---- Controller (§4.6 fallback policy) ---- *)

let test_controller_fallback () =
  let c = Controller.create () in
  Alcotest.(check bool) "starts trap" true (Controller.variant c = Config.Trap);
  (* Two aborts: still trap. *)
  ignore (Controller.record c ~aborted:true ~blamed:[ 9 ]);
  ignore (Controller.record c ~aborted:true ~blamed:[]);
  Alcotest.(check bool) "still trap" true (Controller.variant c = Config.Trap);
  (* Third consecutive abort: falls back to NIZK. *)
  let v = Controller.record c ~aborted:true ~blamed:[ 12 ] in
  Alcotest.(check bool) "fell back to nizk" true (v = Config.Nizk);
  (* Blamed users accumulated. *)
  Alcotest.(check (list int)) "blacklist" [ 9; 12 ] (Controller.blacklist c);
  Alcotest.(check bool) "is_blacklisted" true (Controller.is_blacklisted c 9);
  (* Two clean NIZK rounds: returns to trap. *)
  ignore (Controller.record c ~aborted:false ~blamed:[]);
  let v = Controller.record c ~aborted:false ~blamed:[] in
  Alcotest.(check bool) "recovered to trap" true (v = Config.Trap)

let test_controller_abort_streak_resets () =
  let c = Controller.create () in
  ignore (Controller.record c ~aborted:true ~blamed:[]);
  ignore (Controller.record c ~aborted:false ~blamed:[]);
  ignore (Controller.record c ~aborted:true ~blamed:[]);
  ignore (Controller.record c ~aborted:true ~blamed:[]);
  (* Streak was broken: 2 consecutive aborts only, still trap. *)
  Alcotest.(check bool) "streak reset" true (Controller.variant c = Config.Trap)

(* ---- Weighted load balancing (§7) ---- *)

let test_weighted_membership_skew () =
  let beacon = Beacon.create ~seed:12 in
  let n = 40 in
  (* Server 0 has 20x the weight of everyone else. *)
  let weights = Array.init n (fun i -> if i = 0 then 20. else 1.) in
  let counts = Array.make n 0 in
  for round = 0 to 49 do
    let f = Group_formation.form_weighted beacon ~round ~weights ~n_groups:8 ~group_size:5 () in
    Array.iter
      (fun (g : Group_formation.group) ->
        Array.iter (fun s -> counts.(s) <- counts.(s) + 1) g.Group_formation.members)
      f.Group_formation.groups
  done;
  let mean_rest =
    float_of_int (Array.fold_left ( + ) 0 counts - counts.(0)) /. float_of_int (n - 1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "heavy server in more groups (%d vs %.1f)" counts.(0) mean_rest)
    true
    (float_of_int counts.(0) > 2. *. mean_rest)

let test_weighted_formation_valid () =
  let beacon = Beacon.create ~seed:13 in
  let weights = Array.init 20 (fun i -> 1. +. float_of_int (i mod 5)) in
  let f = Group_formation.form_weighted beacon ~round:0 ~weights ~n_groups:6 ~group_size:4 () in
  Array.iter
    (fun (g : Group_formation.group) ->
      let members = Array.to_list g.Group_formation.members in
      Alcotest.(check int) "distinct members" 4 (List.length (List.sort_uniq compare members));
      List.iter
        (fun s -> Alcotest.(check bool) "in range" true (s >= 0 && s < 20))
        members)
    f.Group_formation.groups

let test_weighted_security_tradeoff () =
  (* If the adversary controls the heavy servers, skewed assignment makes
     an all-malicious group far more likely than uniform assignment. *)
  let n = 30 in
  let malicious s = s < 6 in
  (* 20% of servers *)
  let heavy_adversary = Array.init n (fun i -> if malicious i then 10. else 1.) in
  let uniform = Array.make n 1. in
  let beacon = Beacon.create ~seed:14 in
  let risk weights =
    Group_formation.estimate_all_malicious ~trials:300
      ~form:(fun ~round ->
        Group_formation.form_weighted beacon ~round ~weights ~n_groups:6 ~group_size:4 ())
      ~malicious
  in
  let skewed = risk heavy_adversary and flat = risk uniform in
  Alcotest.(check bool)
    (Printf.sprintf "skewed %.3f > uniform %.3f" skewed flat)
    true (skewed > flat)

(* ---- Pipelining (§4.7) ---- *)

let test_pipelining_throughput () =
  let cfg = { Config.paper_default with Config.n_servers = 256; Config.n_groups = 64 } in
  let p = Simulate.microblog cfg ~n_messages:50_000 in
  let r = Simulate.run_pipelined p ~rounds:5 in
  Alcotest.(check int) "rounds" 5 r.Simulate.pipelined_rounds;
  Alcotest.(check bool) "outputs ordered" true (r.Simulate.last_output > r.Simulate.first_output);
  (* The pipeline emits rounds much faster than one full traversal. *)
  Alcotest.(check bool)
    (Printf.sprintf "gap %.1fs << first %.1fs" r.Simulate.output_gap r.Simulate.first_output)
    true
    (r.Simulate.output_gap < r.Simulate.first_output /. 3.)

let test_pipelining_deterministic () =
  let cfg = { Config.paper_default with Config.n_servers = 128; Config.n_groups = 32 } in
  let p = Simulate.microblog cfg ~n_messages:10_000 in
  let a = Simulate.run_pipelined p ~rounds:3 and b = Simulate.run_pipelined p ~rounds:3 in
  Alcotest.(check (float 1e-9)) "deterministic" a.Simulate.last_output b.Simulate.last_output

(* ---- Butterfly topology, real crypto ---- *)

let test_butterfly_end_to_end () =
  let r = rng () in
  let config =
    { (Config.tiny ~variant:Config.Trap ()) with Config.topology = Config.Butterfly 2 }
  in
  let net = Pr.setup r config () in
  let msgs = List.init 6 (fun i -> Printf.sprintf "bfly-%d" i) in
  let subs = List.mapi (fun i m -> Pr.submit r net ~user:i ~entry_gid:(i mod 4) m) msgs in
  let outcome = Pr.run r net subs in
  Alcotest.(check bool) "no abort" true (outcome.Pr.aborted = None);
  Alcotest.(check (list string)) "delivered" (List.sort compare msgs)
    (List.sort compare outcome.Pr.delivered)

(* ---- Basic variant is vulnerable (motivation for §4.3/§4.4) ---- *)

let test_basic_variant_tamper_undetected () =
  let r = rng () in
  let config = Config.tiny ~variant:Config.Basic () in
  let net = Pr.setup r config () in
  let msgs = List.init 6 (fun i -> Printf.sprintf "basic-%d" i) in
  let subs = List.mapi (fun i m -> Pr.submit r net ~user:i ~entry_gid:(i mod 4) m) msgs in
  let fired = ref false in
  let adversary =
    {
      Pr.no_adversary with
      Pr.tamper =
        (fun ~iter ~gid ~next_pk batch ->
          if iter = 1 && gid = 0 && Array.length batch > 0 && not !fired then begin
            fired := true;
            let b = Array.copy batch in
            b.(0) <- Pr.garbage_unit r net ~next_pk;
            b
          end
          else batch);
    }
  in
  let outcome = Pr.run r net ~adversary subs in
  Alcotest.(check bool) "tampered" true !fired;
  (* No defence: the round completes, one original silently replaced by the
     adversary's forgery, nobody notices. *)
  Alcotest.(check bool) "no abort" true (outcome.Pr.aborted = None);
  let originals = List.filter (fun m -> List.mem m msgs) outcome.Pr.delivered in
  Alcotest.(check int) "one original lost" 5 (List.length originals)

(* ---- Multi-round operation with per-round groups ---- *)

let test_multi_round_fresh_groups () =
  let r = rng () in
  let config = Config.tiny ~variant:Config.Trap ~seed:33 () in
  let members round =
    let net = Pr.setup r config ~round () in
    Array.to_list (Array.map (fun g -> Array.to_list g.Pr.members) net.Pr.groups)
  in
  (* Fresh randomness each round: group compositions differ. *)
  Alcotest.(check bool) "groups change across rounds" true (members 0 <> members 1);
  (* And each round works end to end. *)
  List.iter
    (fun round ->
      let net = Pr.setup r config ~round () in
      let msgs = List.init 4 (fun i -> Printf.sprintf "r%d-m%d" round i) in
      let subs = List.mapi (fun i m -> Pr.submit r net ~user:i ~entry_gid:(i mod 4) m) msgs in
      let outcome = Pr.run r net subs in
      Alcotest.(check int) (Printf.sprintf "round %d delivers" round) 4
        (List.length outcome.Pr.delivered))
    [ 0; 1 ]

(* ---- NIZK variant + churn combined ---- *)

let test_nizk_with_churn () =
  let r = rng () in
  let config =
    {
      (Config.tiny ~variant:Config.Nizk ~seed:44 ()) with
      Config.n_servers = 16;
      Config.n_groups = 3;
      Config.group_size = 4;
      Config.h = 2;
    }
  in
  let net = Pr.setup r config () in
  Pr.fail_server net net.Pr.groups.(1).Pr.members.(0);
  let msgs = List.init 6 (fun i -> Printf.sprintf "nc-%d" i) in
  let subs = List.mapi (fun i m -> Pr.submit r net ~user:i ~entry_gid:(i mod 3) m) msgs in
  let outcome = Pr.run r net subs in
  Alcotest.(check bool) "no abort" true (outcome.Pr.aborted = None);
  Alcotest.(check int) "all delivered" 6 (List.length outcome.Pr.delivered)

(* ---- Intersection attack by servers (§7) ----

   A malicious entry server targets one user round after round, replacing
   one of the user's two submitted units (it cannot tell trap from inner
   ciphertext). Each attempt is caught with probability 1/2, so the attack
   survives only ~2 rounds in expectation — Atom limits intersection
   attacks rather than allowing them silently. *)

let test_intersection_attack_is_caught () =
  let caught_after = ref [] in
  for trial = 1 to 8 do
    let rec attack_round round =
      if round > 30 then Alcotest.fail "attack never caught (p = 2^-30)"
      else begin
        let config = Config.tiny ~variant:Config.Trap ~seed:(trial * 100 + round) () in
        let r = Atom_util.Rng.create (trial * 1000 + round) in
        let net = Pr.setup r config () in
        let msgs = List.init 6 (fun i -> Printf.sprintf "ia-%d" i) in
        (* The attacker replaces a unit in the target's entry group at the
           first iteration — the closest point to the user where units are
           already anonymous ciphertexts (it cannot tell the user's trap
           from the inner message, which is the whole point of §4.4). *)
        let fired = ref false in
        let adversary =
          {
            Pr.no_adversary with
            Pr.tamper =
              (fun ~iter ~gid ~next_pk batch ->
                if iter = 0 && gid = 0 && Array.length batch > 0 && not !fired then begin
                  fired := true;
                  let b = Array.copy batch in
                  b.(0) <- Pr.garbage_unit r net ~next_pk;
                  b
                end
                else batch);
          }
        in
        let honest_subs =
          List.mapi (fun i m -> Pr.submit r net ~user:i ~entry_gid:(i mod 4) m) msgs
        in
        let outcome = Pr.run r net ~adversary honest_subs in
        match outcome.Pr.aborted with
        | Some _ -> caught_after := round :: !caught_after
        | None -> attack_round (round + 1)
      end
    in
    attack_round 1
  done;
  let rounds = List.map float_of_int !caught_after in
  let mean = Atom_util.Stats.mean (Array.of_list rounds) in
  (* Geometric(1/2): mean 2; allow wide slack for 8 trials. *)
  Alcotest.(check bool)
    (Printf.sprintf "caught quickly (mean %.1f rounds)" mean)
    true
    (mean >= 1.0 && mean <= 5.0)

(* ---- Fuzzing malformed inputs ---- *)

let gen_bytes = QCheck2.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 200))

let prop_cipher_of_bytes_total =
  QCheck2.Test.make ~name:"cipher_of_bytes never raises" ~count:300 gen_bytes (fun s ->
      match El.cipher_of_bytes s with Some _ | None -> true)

let prop_kem_of_bytes_total =
  QCheck2.Test.make ~name:"Kem.of_bytes never raises" ~count:300 gen_bytes (fun s ->
      match El.Kem.of_bytes s with Some _ | None -> true)

let prop_group_of_bytes_total =
  QCheck2.Test.make ~name:"G.of_bytes never raises" ~count:300 gen_bytes (fun s ->
      match G.of_bytes s with Some _ | None -> true)

let prop_p256_of_bytes_total =
  QCheck2.Test.make ~name:"P256.of_bytes never raises" ~count:100 gen_bytes (fun s ->
      match Atom_group.P256.of_bytes s with Some _ | None -> true)

let prop_message_frame_roundtrip =
  QCheck2.Test.make ~name:"message framing roundtrip" ~count:200
    QCheck2.Gen.(pair (string_size (int_bound 60)) (int_range 0 3))
    (fun (payload, extra) ->
      let width = Msg.width_for ~payload_bytes:(String.length payload) + extra in
      let els = Msg.embed ~tag:'M' payload ~width in
      Msg.extract els = Some ('M', payload))

let prop_dialing_codec_roundtrip =
  QCheck2.Test.make ~name:"dialing codec roundtrip" ~count:200
    QCheck2.Gen.(pair (string_size (return 8)) (string_size (int_bound 80)))
    (fun (rid, payload) -> Dialing.decode (Dialing.encode ~recipient:rid ~payload) = Some (rid, payload))

let test_message_framing_errors () =
  Alcotest.check_raises "width too small" (Invalid_argument "Message.frame: width too small")
    (fun () -> ignore (Msg.frame ~tag:'M' (String.make 100 'x') ~width:1));
  Alcotest.(check bool) "garbage extract" true
    (Msg.unframe "" = None);
  (* Truncated length field. *)
  Alcotest.(check bool) "length overrun" true (Msg.unframe "M\xff\xff" = None)

(* ---- P-256 end-to-end smoke (the paper's actual curve) ---- *)

let test_p256_protocol_smoke () =
  let module Pr256 = Atom_core.Protocol.Make (Atom_group.P256) in
  let r = Atom_util.Rng.create 0x9256 in
  let config =
    {
      (Config.tiny ~variant:Config.Trap ~seed:66 ()) with
      Config.n_servers = 4;
      Config.n_groups = 2;
      Config.group_size = 2;
      Config.topology = Config.Square 2;
    }
  in
  let net = Pr256.setup r config () in
  let msgs = [ "p256 msg A"; "p256 msg B" ] in
  let subs = List.mapi (fun i m -> Pr256.submit r net ~user:i ~entry_gid:(i mod 2) m) msgs in
  let outcome = Pr256.run r net subs in
  Alcotest.(check bool) "no abort" true (outcome.Pr256.aborted = None);
  Alcotest.(check (list string)) "delivered" (List.sort compare msgs)
    (List.sort compare outcome.Pr256.delivered)

(* ---- Wide (multi-element) messages end to end ---- *)

let test_wide_messages_end_to_end () =
  let r = rng () in
  let config = { (Config.tiny ~variant:Config.Trap ~seed:88 ()) with Config.msg_bytes = 160 } in
  let net = Pr.setup r config () in
  Alcotest.(check bool) "wide units" true (net.Pr.width >= 10);
  let msgs =
    List.init 4 (fun i ->
        Printf.sprintf "a full tweet-length message (160 bytes max) number %d: %s" i
          (String.make 60 'x'))
  in
  let subs = List.mapi (fun i m -> Pr.submit r net ~user:i ~entry_gid:(i mod 4) m) msgs in
  let outcome = Pr.run r net subs in
  Alcotest.(check bool) "no abort" true (outcome.Pr.aborted = None);
  Alcotest.(check (list string)) "delivered intact" (List.sort compare msgs)
    (List.sort compare outcome.Pr.delivered)

(* ---- Cross-validation: real engine op counts vs the simulator's charge
   formula (the basis of Figures 5–11). For U routed units, quorum q and T
   iterations, the closed form is U·q·T unit-shuffles and U·q·T
   unit-reencrypts; entry verification touches every vector component of
   every unit once per group member... here per submission unit. *)

let test_op_counts_match_model () =
  let r = rng () in
  let config = Config.tiny ~variant:Config.Trap ~seed:55 () in
  let net = Pr.setup r config () in
  let users = 8 in
  let msgs = List.init users (fun i -> Printf.sprintf "oc-%d" i) in
  let subs = List.mapi (fun i m -> Pr.submit r net ~user:i ~entry_gid:(i mod 4) m) msgs in
  let outcome = Pr.run r net subs in
  Alcotest.(check bool) "clean round" true (outcome.Pr.aborted = None);
  let ops = Pr.op_counts () in
  let units = 2 * users (* trap doubles *) in
  let quorum = Config.quorum config in
  let t = Config.iterations config in
  Alcotest.(check int) "unit shuffles = U*q*T" (units * quorum * t) ops.Pr.unit_shuffles;
  Alcotest.(check int) "unit reencs = U*q*T" (units * quorum * t) ops.Pr.unit_reencs;
  (* Each submission has 2 units of [width] components verified once. *)
  Alcotest.(check int) "encproof verifies" (units * net.Pr.width) ops.Pr.encproof_verifies;
  Alcotest.(check int) "kem opens = messages" users ops.Pr.kem_opens

let suite =
  let q t = QCheck_alcotest.to_alcotest t in
  ( "extended",
    [
      Alcotest.test_case "controller fallback to nizk" `Quick test_controller_fallback;
      Alcotest.test_case "controller streak reset" `Quick test_controller_abort_streak_resets;
      Alcotest.test_case "weighted membership skew" `Quick test_weighted_membership_skew;
      Alcotest.test_case "weighted formation validity" `Quick test_weighted_formation_valid;
      Alcotest.test_case "weighted security tradeoff" `Quick test_weighted_security_tradeoff;
      Alcotest.test_case "pipelining throughput" `Quick test_pipelining_throughput;
      Alcotest.test_case "pipelining determinism" `Quick test_pipelining_deterministic;
      Alcotest.test_case "butterfly end-to-end" `Quick test_butterfly_end_to_end;
      Alcotest.test_case "basic variant vulnerable" `Quick test_basic_variant_tamper_undetected;
      Alcotest.test_case "multi-round fresh groups" `Quick test_multi_round_fresh_groups;
      Alcotest.test_case "nizk with churn" `Quick test_nizk_with_churn;
      Alcotest.test_case "intersection attack caught" `Slow test_intersection_attack_is_caught;
      Alcotest.test_case "op counts match simulator model" `Quick test_op_counts_match_model;
      Alcotest.test_case "wide messages end-to-end" `Quick test_wide_messages_end_to_end;
      Alcotest.test_case "message framing errors" `Quick test_message_framing_errors;
      Alcotest.test_case "p256 protocol smoke" `Slow test_p256_protocol_smoke;
      q prop_cipher_of_bytes_total;
      q prop_kem_of_bytes_total;
      q prop_group_of_bytes_total;
      q prop_p256_of_bytes_total;
      q prop_message_frame_roundtrip;
      q prop_dialing_codec_roundtrip;
    ] )
