(* The Atom protocol, executed with real cryptography (§4).

   This engine runs the full logical protocol — group formation with
   threshold DKG, client submission with EncProofs, T iterations of
   shuffle / divide / decrypt-and-reencrypt, the NIZK and trap defences,
   trustee key release, and the §4.6 blame procedure — over in-memory state.
   Timing fidelity is the job of the discrete-event simulator in
   [Simulate]; this engine is the cryptographic ground truth that the test
   suite drives end to end, including active attacks.

   Group member positions map to Shamir indices 1..k; any quorum of
   k−(h−1) live members routes a batch using Lagrange-weighted shares, which
   is how the protocol rides out fail-stop churn (§4.5). *)

module Make (G : Atom_group.Group_intf.GROUP) = struct
  module El = Atom_elgamal.Elgamal.Make (G)
  module P = Atom_zkp.Proofs.Make (G) (El)
  module Shuf = Atom_zkp.Shuffle_proof.Make (G) (El)
  module Msg = Message.Make (G)
  module Sh = Atom_secret.Shamir.Make (G)
  module Dkg = Atom_secret.Dkg.Make (G)

  (* ---- Network state ---- *)

  type group_state = {
    gid : int;
    members : int array; (* server ids, pipeline order *)
    keys : Dkg.result;
    (* Buddy re-sharings of each member's share, indexed by member position
       (§4.5): buddy groups can resurrect a dead group. *)
    reshares : Dkg.reshare array;
    buddies : int array;
  }

  type network = {
    config : Config.t;
    topo : Atom_topology.Topology.t;
    groups : group_state array;
    trustee_members : int array;
    trustee_keys : El.keypair array; (* additive anytrust shares *)
    trustee_pk : G.t;
    width : int; (* group elements per routed unit *)
    failed : bool array; (* server id -> fail-stop flag *)
    round : int;
  }

  let group_pk (net : network) (gid : int) : G.t = net.groups.(gid).keys.Dkg.group_pk

  (* Bytes of one serialized inner ciphertext for a [msg_bytes] plaintext. *)
  let inner_ct_bytes ~(msg_bytes : int) : int =
    G.element_bytes + 4 + msg_bytes + Atom_cipher.Aead.tag_len

  let unit_width (config : Config.t) : int =
    match config.Config.variant with
    | Basic | Nizk -> Msg.width_for ~payload_bytes:config.Config.msg_bytes
    | Trap ->
        (* Inner ciphertexts and traps share one width; the inner dominates. *)
        max
          (Msg.width_for ~payload_bytes:(inner_ct_bytes ~msg_bytes:config.Config.msg_bytes))
          (Msg.width_for ~payload_bytes:(4 + Msg.trap_nonce_bytes))

  let setup (rng : Atom_util.Rng.t) (config : Config.t) ?(round = 0) () : network =
    Config.validate config;
    let formation = Group_formation.of_config ~round config in
    let quorum = Config.quorum config in
    let groups =
      Array.map
        (fun (g : Group_formation.group) ->
          let keys = Dkg.run rng ~k:config.Config.group_size ~threshold:quorum () in
          let reshares =
            Array.map
              (fun share ->
                Dkg.reshare rng ~threshold':quorum ~buddies:config.Config.group_size share)
              keys.Dkg.shares
          in
          { gid = g.Group_formation.gid;
            members = g.Group_formation.members;
            keys;
            reshares;
            buddies = g.Group_formation.buddies })
        formation.Group_formation.groups
    in
    let trustee_members =
      Group_formation.form_trustees (Beacon.create ~seed:config.Config.seed) ~round
        ~n_servers:config.Config.n_servers
        ~group_size:(min config.Config.group_size config.Config.n_servers)
    in
    let trustee_keys = Array.map (fun _ -> El.keygen rng) trustee_members in
    let trustee_pk =
      El.combine_pks (Array.to_list (Array.map (fun kp -> kp.El.pk) trustee_keys))
    in
    {
      config;
      topo = Config.topology config;
      groups;
      trustee_members;
      trustee_keys;
      trustee_pk;
      width = unit_width config;
      failed = Array.make config.Config.n_servers false;
      round;
    }

  (* Operation counters: the real engine tallies every cryptographic
     operation a round performs, and the test suite checks the tallies
     against the closed-form counts the modeled simulator charges for —
     cross-validating the two engines. *)
  type op_counts = {
    mutable unit_shuffles : int; (* unit x member shuffle applications *)
    mutable unit_reencs : int; (* unit x member reencrypt applications *)
    mutable encproof_verifies : int; (* per component *)
    mutable kem_opens : int;
  }

  let ops = { unit_shuffles = 0; unit_reencs = 0; encproof_verifies = 0; kem_opens = 0 }

  let reset_ops () =
    ops.unit_shuffles <- 0;
    ops.unit_reencs <- 0;
    ops.encproof_verifies <- 0;
    ops.kem_opens <- 0

  let op_counts () = ops

  let fail_server (net : network) (sid : int) : unit = net.failed.(sid) <- true

  (* The quorum actually routing for a group: the first k−(h−1) live
     members (1-based Shamir positions). Returns None if the group has too
     many failures to operate. *)
  let live_quorum (net : network) (g : group_state) : int list option =
    let quorum = Config.quorum net.config in
    let live =
      List.filter_map
        (fun pos -> if net.failed.(g.members.(pos)) then None else Some (pos + 1))
        (List.init (Array.length g.members) Fun.id)
    in
    if List.length live < quorum then None
    else Some (List.filteri (fun i _ -> i < quorum) live)

  (* ---- Client submissions (§3 and §4.4) ---- *)

  type unit_ct = { vec : El.vec; proofs : P.Enc_proof.t array }

  type submission = {
    user : int;
    entry_gid : int;
    units : unit_ct array; (* 1 unit (basic/NIZK); 2 in random order (trap) *)
    commitment : string option; (* trap variant *)
  }

  let proof_context (net : network) (gid : int) : string =
    Printf.sprintf "atom:round=%d:gid=%d" net.round gid

  let encrypt_unit (rng : Atom_util.Rng.t) (net : network) ~(gid : int) ~(tag : char)
      (payload : string) : unit_ct =
    let elements = Msg.embed ~tag payload ~width:net.width in
    let vec, proofs =
      P.Enc_proof.enc_vec_with_proof rng ~pk:(group_pk net gid) ~context:(proof_context net gid)
        elements
    in
    { vec; proofs }

  (* An honest user's submission. *)
  let submit (rng : Atom_util.Rng.t) (net : network) ~(user : int) ~(entry_gid : int)
      (msg : string) : submission =
    let padded = Msg.pad_plaintext ~msg_bytes:net.config.Config.msg_bytes msg in
    match net.config.Config.variant with
    | Basic | Nizk ->
        { user;
          entry_gid;
          units = [| encrypt_unit rng net ~gid:entry_gid ~tag:Msg.tag_message padded |];
          commitment = None }
    | Trap ->
        let inner = El.Kem.to_bytes (El.Kem.enc rng net.trustee_pk padded) in
        let nonce = Atom_util.Rng.bytes rng Msg.trap_nonce_bytes in
        let trap = Msg.make_trap ~gid:entry_gid ~nonce in
        let unit_m = encrypt_unit rng net ~gid:entry_gid ~tag:Msg.tag_message inner in
        let unit_t = encrypt_unit rng net ~gid:entry_gid ~tag:Msg.tag_trap trap in
        let units = if Atom_util.Rng.bool rng then [| unit_m; unit_t |] else [| unit_t; unit_m |] in
        { user; entry_gid; units; commitment = Some (Msg.commit_trap ~width:net.width trap) }

  (* ---- Adversary hooks ---- *)

  (* A batch tamper runs where the paper's analysis places it: on the last
     (malicious) server of a group just before forwarding, when units are
     plain ciphertexts under the next hop's key. The callback may drop,
     duplicate, or replace units; [`garbage_unit`] builds a plausible
     replacement (fresh encryption of a junk payload under the correct
     key — indistinguishable from a real unit on the wire). *)
  type adversary = {
    tamper : iter:int -> gid:int -> next_pk:G.t option -> El.vec array -> El.vec array;
    cheat_shuffle : iter:int -> gid:int -> bool;
        (* NIZK variant: server swaps in an unproven batch — caught by
           ShufProof verification. *)
  }

  let no_adversary : adversary =
    { tamper = (fun ~iter:_ ~gid:_ ~next_pk:_ batch -> batch); cheat_shuffle = (fun ~iter:_ ~gid:_ -> false) }

  let garbage_unit (rng : Atom_util.Rng.t) (net : network) ~(next_pk : G.t option) : El.vec =
    let payload = Atom_util.Rng.bytes rng 8 in
    let elements = Msg.embed ~tag:Msg.tag_message payload ~width:net.width in
    match next_pk with
    | Some pk -> fst (El.enc_vec rng pk elements)
    | None -> Array.map (fun m -> { El.r = G.one; El.c = m; El.y = None }) elements

  (* ---- Round execution ---- *)

  type abort_reason =
    | Shuffle_proof_rejected of { gid : int; iter : int }
    | Reenc_proof_rejected of { gid : int; iter : int }
    | Trap_mismatch of { gid : int }
    | Duplicate_inner
    | Count_mismatch of { traps : int; inners : int }
    | Group_down of { gid : int }

  type outcome = {
    delivered : string list; (* plaintexts, unpadded, in exit order *)
    aborted : abort_reason option;
    rejected_submissions : int list; (* user ids with invalid proofs *)
    blamed : int list; (* user ids identified by the §4.6 procedure *)
  }

  (* The entry checks of §3 over a list of submissions, one verdict each,
     in order: the unit count fits the variant, every EncProof verifies,
     and no unit repeats a ciphertext already in [seen]. Units are recorded
     in [seen] in order, a unit of a submission that then fails included,
     and a submission's first failing unit ends its pass.

     Every proof of every well-shaped submission is first checked as one
     batch: one pooled weighted multi-exponentiation. If it holds, the
     duplicate pass runs with the proofs taken as valid; if not, each
     unit's proofs are checked on their own (one pooled job) and the same
     pass runs on those verdicts. Either way the verdicts and [seen] are
     those of checking each submission in turn. *)
  let verify_submissions ?pool (net : network) (seen : (string, int) Hashtbl.t)
      (subs : submission list) : bool list =
    let subs = Array.of_list subs in
    let shaped =
      Array.map
        (fun s ->
          match net.config.Config.variant with
          | Basic | Nizk -> Array.length s.units = 1 && s.commitment = None
          | Trap -> Array.length s.units = 2 && s.commitment <> None)
        subs
    in
    (* Each unit's claims; None on a proof-count mismatch. *)
    let claims =
      Array.mapi
        (fun i s ->
          if not shaped.(i) then [||]
          else
            let pk = group_pk net s.entry_gid and context = proof_context net s.entry_gid in
            Array.map
              (fun u ->
                if Array.length u.proofs <> Array.length u.vec then None
                else
                  Some
                    (Array.map2
                       (fun ct proof -> { P.Enc_proof.pk; context; ct; proof })
                       u.vec u.proofs))
              s.units)
        subs
    in
    let batch =
      Array.concat
        (List.concat_map (fun us -> List.filter_map Fun.id (Array.to_list us)) (Array.to_list claims))
    in
    let proofs_ok =
      if P.Enc_proof.verify_batch ?pool batch then Array.map (Array.map Option.is_some) claims
      else
        Atom_exec.Pool.map_nested ?pool
          (function Some cs -> P.Enc_proof.verify_batch cs | None -> false)
          claims
    in
    Array.to_list
      (Array.mapi
         (fun i s ->
           let rec pass j =
             j >= Array.length s.units
             ||
             let u = s.units.(j) in
             let bytes = El.vec_to_bytes u.vec in
             let fresh = not (Hashtbl.mem seen bytes) in
             if fresh then Hashtbl.add seen bytes s.user;
             ops.encproof_verifies <- ops.encproof_verifies + Array.length u.vec;
             fresh && proofs_ok.(i).(j) && pass (j + 1)
           in
           shaped.(i) && pass 0)
         subs)

  let verify_submission (net : network) (seen : (string, int) Hashtbl.t) (s : submission) : bool =
    List.hd (verify_submissions net seen [ s ])

  (* [verify_submissions]' verdicts as (accepted, rejected), each in order. *)
  let partition_submissions ?pool net seen (subs : submission list) :
      submission list * submission list =
    let verdicts = verify_submissions ?pool net seen subs in
    let accepted, rejected = List.partition snd (List.combine subs verdicts) in
    (List.map fst accepted, List.map fst rejected)

  (* One group's work for one iteration: collective shuffle, divide into β
     batches, decrypt-and-reencrypt toward each neighbor (Algorithm 1; with
     NIZK checks this is Algorithm 2). Returns per-neighbor batches, or the
     abort reason a NIZK check tripped on. *)
  let process_group (rng : Atom_util.Rng.t) (net : network) ~(adversary : adversary)
      ~(iter : int) (g : group_state) (units : El.vec array) :
      (int * El.vec array) list * abort_reason option =
    match live_quorum net g with
    | None -> ([], Some (Group_down { gid = g.gid }))
    | Some quorum_positions -> begin
        let pk = group_pk net g.gid in
        let ctx = Printf.sprintf "%s:iter=%d" (proof_context net g.gid) iter in
        let nizk = net.config.Config.variant = Nizk in
        (* Step 1: every quorum member shuffles in order. *)
        let abort = ref None in
        let current = ref units in
        List.iter
          (fun _pos ->
            if !abort = None && Array.length !current > 0 then begin
              match El.shuffle_vec rng pk !current with
              | None -> abort := Some (Shuffle_proof_rejected { gid = g.gid; iter })
              | Some (shuffled, witness) ->
                  ops.unit_shuffles <- ops.unit_shuffles + Array.length shuffled;
                  if nizk then begin
                    let cheated = adversary.cheat_shuffle ~iter ~gid:g.gid in
                    let published =
                      if cheated then begin
                        (* The cheater swaps one output for garbage after
                           proving. *)
                        let bad = Array.copy shuffled in
                        if Array.length bad > 0 then
                          bad.(0) <- fst (El.enc_vec rng pk (Array.map (fun _ -> G.one) bad.(0)));
                        bad
                      end
                      else shuffled
                    in
                    let pi =
                      Shuf.prove rng ~pk ~context:ctx ~input:!current ~output:shuffled ~witness
                    in
                    (* Every other member verifies (the honest one matters). *)
                    if Shuf.verify ~pk ~context:ctx ~input:!current ~output:published pi then
                      current := published
                    else abort := Some (Shuffle_proof_rejected { gid = g.gid; iter })
                  end
                  else current := shuffled
            end)
          quorum_positions;
        match !abort with
        | Some reason -> ([], Some reason)
        | None -> begin
            (* Step 2: divide into β batches, round-robin. *)
            let neighbors = net.topo.Atom_topology.Topology.neighbors ~iter ~group:g.gid in
            let beta = Array.length neighbors in
            let last_iter = iter = net.topo.Atom_topology.Topology.iterations - 1 in
            let batches = Array.make beta [] in
            Array.iteri (fun i u -> batches.(i mod beta) <- u :: batches.(i mod beta)) !current;
            let batches = Array.map (fun l -> Array.of_list (List.rev l)) batches in
            (* Step 3: decrypt-and-reencrypt chain through the quorum. *)
            let out = ref [] in
            Array.iteri
              (fun bi batch ->
                if !abort = None then begin
                  let next_pk = if last_iter then None else Some (group_pk net neighbors.(bi)) in
                  let current_batch = ref batch in
                  List.iter
                    (fun pos ->
                      if !abort = None then begin
                        let share = g.keys.Dkg.shares.(pos - 1).Sh.value in
                        let coeff = Sh.lagrange_at_zero ~xs:quorum_positions ~i:pos in
                        if nizk then begin
                          let eff_pk = G.pow (Dkg.share_pk g.keys pos) coeff in
                          let stepped =
                            Array.map
                              (fun v ->
                                let v', pis =
                                  P.Reenc_proof.reenc_vec_with_proof rng ~share ~coeff ~next_pk
                                    ~context:ctx v
                                in
                                let ok =
                                  P.Reenc_proof.verify_vec ~eff_pk ~next_pk ~context:ctx ~input:v
                                    ~output:v' pis
                                in
                                (v', ok))
                              !current_batch
                          in
                          if Array.for_all snd stepped then begin
                            ops.unit_reencs <- ops.unit_reencs + Array.length stepped;
                            current_batch := Array.map fst stepped
                          end
                          else abort := Some (Reenc_proof_rejected { gid = g.gid; iter })
                        end
                        else begin
                          ops.unit_reencs <- ops.unit_reencs + Array.length !current_batch;
                          current_batch :=
                            Array.map
                              (fun v -> fst (El.reenc_vec rng ~share ~coeff ~next_pk v))
                              !current_batch
                        end
                      end)
                    quorum_positions;
                  if !abort = None then begin
                    let finished =
                      if last_iter then !current_batch else Array.map El.clear_y_vec !current_batch
                    in
                    (* The (possibly malicious) last server forwards. In the
                       NIZK variant the receiving group also verifies the
                       last server's proofs (Algorithm 2, step 3b), so a
                       batch mutated after proving is rejected — modeled
                       here by comparing against the proven batch. *)
                    let forwarded = adversary.tamper ~iter ~gid:g.gid ~next_pk finished in
                    if
                      nizk
                      && not
                           (Array.length forwarded = Array.length finished
                           && Array.for_all2
                                (fun a b ->
                                  Array.length a = Array.length b && Array.for_all2 El.cipher_equal a b)
                                forwarded finished)
                    then abort := Some (Reenc_proof_rejected { gid = g.gid; iter })
                    else out := (neighbors.(bi), forwarded) :: !out
                  end
                end)
              batches;
            (List.rev !out, !abort)
          end
      end

  (* ---- Exit processing ---- *)

  type exit_unit = { exit_gid : int; tag : char; payload : string }

  let decode_exit (_net : network) (holdings : El.vec array array) : exit_unit list =
    let out = ref [] in
    Array.iteri
      (fun gid units ->
        Array.iter
          (fun v ->
            let plain = Array.map El.plaintext_of_exit v in
            match Msg.extract plain with
            | Some (tag, payload) -> out := { exit_gid = gid; tag; payload } :: !out
            | None -> () (* undecodable garbage: dropped, counted in checks *))
          units)
      holdings;
    List.rev !out

  (* Trap-variant exit checks (§4.4): every expected commitment must have a
     matching trap and vice versa, inner ciphertexts must be unique, and
     trap/inner counts must balance.

     The paper forwards each trap to the group named in its gid field and
     each inner ciphertext to a hash-selected group, which then run these
     checks locally and report bits to the trustees. This engine evaluates
     the same predicates over the same data globally — equivalent outcome
     (the union of the local checks); the per-hop forwarding costs are what
     [Simulate]'s exit phase charges for. *)
  let trap_checks (net : network) ~(commitments : (int, string list) Hashtbl.t)
      (exits : exit_unit list) : abort_reason option * string list =
    let traps, inners = List.partition (fun u -> u.tag = Msg.tag_trap) exits in
    (* Re-commit each received trap and sort it to its gid. *)
    let got : (int, string list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun u ->
        match Msg.parse_trap u.payload with
        | Some (gid, _) ->
            let c = Msg.commit_trap ~width:net.width u.payload in
            Hashtbl.replace got gid (c :: (Option.value ~default:[] (Hashtbl.find_opt got gid)))
        | None -> ())
      traps;
    let mismatch = ref None in
    Hashtbl.iter
      (fun gid expected ->
        let received = Option.value ~default:[] (Hashtbl.find_opt got gid) in
        if List.sort compare expected <> List.sort compare received then
          if !mismatch = None then mismatch := Some (Trap_mismatch { gid }))
      commitments;
    (* Also catch traps claiming a gid that expected none. *)
    Hashtbl.iter
      (fun gid received ->
        if Hashtbl.find_opt commitments gid = None && received <> [] then
          if !mismatch = None then mismatch := Some (Trap_mismatch { gid }))
      got;
    let inner_payloads = List.map (fun u -> u.payload) inners in
    let dedup = List.sort_uniq compare inner_payloads in
    let n_traps = List.length traps and n_inners = List.length inners in
    let reason =
      if !mismatch <> None then !mismatch
      else if List.length dedup <> List.length inner_payloads then Some Duplicate_inner
      else if n_traps <> n_inners then Some (Count_mismatch { traps = n_traps; inners = n_inners })
      else None
    in
    (reason, inner_payloads)

  (* Trustees release shares only on a clean round; then inner ciphertexts
     open, one envelope per pool index. [ops] is shared mutable state, so
     the opens are counted on the caller afterwards. *)
  let open_inners ?pool (net : network) (inner_payloads : string list) : string list =
    let opened =
      Atom_exec.Pool.map ?pool
        (fun bytes ->
          Option.map
            (fun sealed ->
              let partials =
                Array.to_list
                  (Array.map (fun kp -> El.Kem.partial kp.El.sk sealed) net.trustee_keys)
              in
              El.Kem.dec_with_partials partials sealed)
            (El.Kem.of_bytes bytes))
        (Array.of_list inner_payloads)
    in
    Array.iter (fun o -> if Option.is_some o then ops.kem_opens <- ops.kem_opens + 1) opened;
    List.filter_map Option.join (Array.to_list opened)

  (* §4.6: after a violation, entry groups reveal their keys and decrypt the
     original submissions to identify disruptive users. *)
  let blame (net : network) (submissions : submission list) : int list =
    let decrypt_unit (s : submission) (u : unit_ct) : (char * string) option =
      let g = net.groups.(s.entry_gid) in
      (* Reconstruct the group secret from a quorum of shares (the "reveal
         private keys" step). *)
      let quorum = Config.quorum net.config in
      let shares = Array.to_list (Array.sub g.keys.Dkg.shares 0 quorum) in
      let sk = Sh.reconstruct shares in
      match El.dec_vec sk u.vec with Some els -> Msg.extract els | None -> None
    in
    let seen_inner : (string, int) Hashtbl.t = Hashtbl.create 64 in
    List.filter_map
      (fun s ->
        let decoded = Array.map (decrypt_unit s) s.units in
        let traps =
          Array.to_list decoded
          |> List.filter_map (function Some (t, p) when t = Msg.tag_trap -> Some p | _ -> None)
        in
        let inners =
          Array.to_list decoded
          |> List.filter_map (function Some (t, p) when t = Msg.tag_message -> Some p | _ -> None)
        in
        let trap_ok =
          match (traps, s.commitment) with
          | [ trap ], Some c ->
              Msg.commit_trap ~width:net.width trap = c
              && (match Msg.parse_trap trap with
                 | Some (gid, _) -> gid = s.entry_gid
                 | None -> false)
          | _ -> false
        in
        let duplicate =
          List.exists
            (fun inner ->
              match Hashtbl.find_opt seen_inner inner with
              | Some other when other <> s.user -> true
              | _ ->
                  Hashtbl.replace seen_inner inner s.user;
                  false)
            inners
        in
        if (not trap_ok) || List.length inners <> 1 || duplicate then Some s.user else None)
      submissions

  (* Execute one full round. *)
  let run (rng : Atom_util.Rng.t) (net : network) ?(adversary = no_adversary)
      (submissions : submission list) : outcome =
    reset_ops ();
    (* Entry: verify proofs, register commitments. *)
    let seen = Hashtbl.create 256 in
    let accepted, rejected = partition_submissions net seen submissions in
    let rejected_submissions = List.map (fun s -> s.user) rejected in
    let commitments : (int, string list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun s ->
        match s.commitment with
        | Some c ->
            Hashtbl.replace commitments s.entry_gid
              (c :: Option.value ~default:[] (Hashtbl.find_opt commitments s.entry_gid))
        | None -> ())
      accepted;
    (* Initial holdings per group. *)
    let holdings = Array.make net.config.Config.n_groups [] in
    List.iter
      (fun s ->
        Array.iter (fun u -> holdings.(s.entry_gid) <- u.vec :: holdings.(s.entry_gid)) s.units)
      accepted;
    let holdings = ref (Array.map (fun l -> Array.of_list (List.rev l)) holdings) in
    (* Mixing iterations. *)
    let aborted = ref None in
    let iters = net.topo.Atom_topology.Topology.iterations in
    for iter = 0 to iters - 1 do
      if !aborted = None then begin
        let incoming = Array.make net.config.Config.n_groups [] in
        Array.iter
          (fun g ->
            if !aborted = None then begin
              let batches, abort =
                process_group rng net ~adversary ~iter g (!holdings).(g.gid)
              in
              (match abort with Some r -> aborted := Some r | None -> ());
              if iter = iters - 1 then
                (* Exit layer: units stay at this group. *)
                List.iter
                  (fun (_, batch) -> incoming.(g.gid) <- batch :: incoming.(g.gid))
                  batches
              else
                List.iter
                  (fun (dst, batch) -> incoming.(dst) <- batch :: incoming.(dst))
                  batches
            end)
          net.groups;
        if !aborted = None then
          holdings :=
            Array.map (fun parts -> Array.concat (List.rev parts)) incoming
      end
    done;
    match !aborted with
    | Some reason -> { delivered = []; aborted = Some reason; rejected_submissions; blamed = [] }
    | None -> begin
        let exits = decode_exit net !holdings in
        match net.config.Config.variant with
        | Basic | Nizk ->
            let delivered =
              List.filter_map
                (fun u -> if u.tag = Msg.tag_message then Some (Msg.unpad_plaintext u.payload) else None)
                exits
            in
            { delivered; aborted = None; rejected_submissions; blamed = [] }
        | Trap -> begin
            let reason, inner_payloads = trap_checks net ~commitments exits in
            match reason with
            | Some r ->
                (* Trustees refuse to release; §4.6 blame runs. *)
                let blamed = blame net accepted in
                { delivered = []; aborted = Some r; rejected_submissions; blamed }
            | None ->
                let delivered = List.map Msg.unpad_plaintext (open_inners net inner_payloads) in
                { delivered; aborted = None; rejected_submissions; blamed = [] }
          end
      end

  (* ---- Buddy-group recovery (§4.5) ----

     When a group has more than h−1 failures, its live peers in the buddy
     group hand the re-shared sub-shares to replacement servers, which
     reconstruct the dead members' shares; the group then operates with the
     recovered key material. Here we recover the shares in place
     (replacement servers adopt the dead members' Shamir indices). *)
  let recover_group (net : network) (gid : int) : bool =
    let g = net.groups.(gid) in
    let quorum = Config.quorum net.config in
    let dead =
      List.filter (fun pos -> net.failed.(g.members.(pos - 1)))
        (List.init (Array.length g.members) (fun i -> i + 1))
    in
    let live = Array.length g.members - List.length dead in
    if live >= quorum then true (* nothing to do *)
    else begin
      (* Buddies are whole groups; their members act as recovery peers. All
         sub-shares exist (created at setup), so recovery succeeds whenever
         at least [quorum] sub-shares per dead member survive — with whole
         buddy groups alive this always holds. *)
      List.iter
        (fun pos ->
          (* The replacement server takes over the dead member's Shamir
             index. *)
          g.keys.Dkg.shares.(pos - 1) <-
            Dkg.recover g.reshares.(pos - 1) ~from:(List.init quorum (fun i -> i + 1));
          net.failed.(g.members.(pos - 1)) <- false)
        dead;
      true
    end

  (* ---- Wire format ----

     Byte encodings for client submissions, so deployments can move them
     over real sockets. Layout (big-endian u32 lengths):
       u32 user | u32 entry_gid | u8 n_units
       per unit: u32 vec_len | vec bytes | u32 n_proofs | per proof: u32 len | bytes
       u8 has_commitment | 32-byte commitment?
     Decoding validates every group element (via the backend codecs). *)
  module Wire = struct
    let submission_to_bytes (s : submission) : string =
      let open Atom_util.Bin in
      let b = Buffer.create 1024 in
      W.u32 b s.user;
      W.u32 b s.entry_gid;
      W.u8 b (Array.length s.units);
      Array.iter
        (fun u ->
          W.str32 b (El.vec_to_bytes u.vec);
          W.u32 b (Array.length u.proofs);
          Array.iter (fun pi -> W.str32 b (P.Enc_proof.to_bytes pi)) u.proofs)
        s.units;
      (match s.commitment with
      | None -> W.u8 b 0
      | Some c ->
          W.u8 b 1;
          Buffer.add_string b c);
      Buffer.contents b

    let submission_of_bytes (b : string) : submission option =
      let open Atom_util.Bin in
      (* One Y = ⊥ cipher is (2·element_bytes + 1) bytes; ciphers are read
         in place, so [vec_len] must be a whole number of them. *)
      let cipher_bytes = (2 * G.element_bytes) + 1 in
      let read_unit r =
        let vec_len = R.count r ~max:(1 lsl 20) in
        if vec_len mod cipher_bytes <> 0 then R.fail ();
        let vec =
          Array.init (vec_len / cipher_bytes) (fun _ ->
              match El.read_cipher r with { El.y = None; _ } as ct -> ct | _ -> R.fail ())
        in
        let proofs =
          Array.init (R.count r ~max:4096) (fun _ ->
              match P.Enc_proof.of_bytes (R.str32 ~max:4096 r) with
              | Some pi -> pi
              | None -> R.fail ())
        in
        { vec; proofs }
      in
      R.decode b (fun r ->
          let user = R.u32 r in
          let entry_gid = R.u32 r in
          let n_units = R.u8 r in
          if n_units > 2 then R.fail ();
          let units = Array.init n_units (fun _ -> read_unit r) in
          let commitment =
            match R.u8 r with 0 -> None | 1 -> Some (R.bytes r 32) | _ -> R.fail ()
          in
          { user; entry_gid; units; commitment })

    (* Atom_wire framing: one entry group's submissions as a checksummed
       [Control.Submissions] frame — what a coordinator ships to the
       group's head over a real transport. The decoder is all-or-nothing;
       receivers that want per-submission rejection decode the blobs
       individually with [submission_of_bytes]. *)
    let submissions_to_frame ~(gid : int) (subs : submission list) : string =
      Atom_wire.Control.encode
        (Atom_wire.Control.Submissions
           { gid; blobs = Array.of_list (List.map submission_to_bytes subs) })

    let submissions_of_frame (frame : string) : (int * submission list) option =
      match Atom_wire.Control.decode frame with
      | Some (Atom_wire.Control.Submissions { gid; blobs }) ->
          let subs =
            Array.fold_right
              (fun b acc ->
                match (acc, submission_of_bytes b) with
                | Some acc, Some s -> Some (s :: acc)
                | _ -> None)
              blobs (Some [])
          in
          Option.map (fun subs -> (gid, subs)) subs
      | _ -> None
  end

  (* ---- Session: multi-round operation (4.6 policy) ----

     Drives consecutive rounds with fresh group formation per round, filters
     blacklisted users, and lets a [Controller.t] decide the variant after
     disruptions. *)
  module Session = struct
    type t = {
      base_config : Config.t;
      controller : Controller.t;
      mutable round : int;
      board : Bulletin.t;
    }

    let create ?(controller = Controller.create ()) (config : Config.t) : t =
      { base_config = config; controller; round = 0; board = Bulletin.create () }

    type round_report = {
      round : int;
      variant_used : Config.variant;
      outcome : outcome;
      skipped_users : int list; (* blacklisted before submission *)
    }

    (* [submit_fn rng net user msg] builds the submission (exposed so tests
       can inject malicious users). *)
    let run_round (t : t) (rng : Atom_util.Rng.t)
        ?(submit_fn = fun rng net ~user ~entry_gid msg -> submit rng net ~user ~entry_gid msg)
        (messages : (int * string) list) : round_report =
      let variant_used = Controller.variant t.controller in
      let config = { t.base_config with Config.variant = variant_used } in
      let net = setup rng config ~round:t.round () in
      let keep, skipped =
        List.partition (fun (user, _) -> not (Controller.is_blacklisted t.controller user)) messages
      in
      let submissions =
        List.map
          (fun (user, msg) ->
            submit_fn rng net ~user ~entry_gid:(user mod config.Config.n_groups) msg)
          keep
      in
      let outcome = run rng net submissions in
      (match outcome.aborted with
      | None -> Bulletin.publish_round t.board ~round:t.round outcome.delivered
      | Some _ -> ());
      ignore
        (Controller.record t.controller
           ~aborted:(outcome.aborted <> None)
           ~blamed:outcome.blamed);
      let report =
        {
          round = t.round;
          variant_used;
          outcome;
          skipped_users = List.map fst skipped;
        }
      in
      t.round <- t.round + 1;
      report

    let board (t : t) : Bulletin.t = t.board
    let rounds_run (t : t) : int = t.round
  end

end
