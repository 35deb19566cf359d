(* The server side of the node runtime: one process's event loop, its
   pipeline steps, its §4.5 role adoption and its client submission plane.
   Every quorum position — the head included, as position 1 — runs the
   same two step functions, [shuffle_at] and [reenc_at]; the handlers
   verify the previous position's step and call them. *)

open Atom_core

module Make (G : Atom_group.Group_intf.GROUP) (T : Transport.S) = struct
  open Node_shared.Make (G)

  (* ---- the node ---- *)

  module Intake = Atom_ingest.Intake
  module Admission = Atom_ingest.Admission

  (* Client submission plane state, present when the node runs with an
     admission policy. Clients are *not* fleet members: their ids live
     above the server range and they never appear in routing or failure
     tracking — only in this table, for acks and bulletin fan-out. *)
  type ingest_state = {
    intake : Intake.t;
    register_client : client:int -> port:int -> unit;
    (* verified onion units accumulating per (gid, epoch) while collecting *)
    ingest_pending : (int * int, Pr.El.vec list ref) Hashtbl.t;
    ingest_clients : (int, unit) Hashtbl.t; (* submitters, for bulletin fan-out *)
    bulletin_pk : BSign.pk;
  }

  type head_input = { mutable parts : Pr.El.vec array list; mutable got : int }

  type node = {
    t : T.t;
    net : Pr.network;
    pool : Atom_exec.Pool.t option; (* crypto fan-out; None = sequential *)
    node_id : int;
    coord : int;
    (* quorum positions this server holds, per group: (gid, pos) —
       grows when §4.5 adoption hands this node a dead server's role *)
    mutable roles : (int * int) list;
    (* head-only: accumulating inputs keyed (gid, iter) *)
    inputs : (int * int, head_input) Hashtbl.t;
    (* (gid, epoch) -> verified units (legacy single-round flow is epoch 0) *)
    entry_units : (int * int, Pr.El.vec array) Hashtbl.t;
    entry_started : (int * int, unit) Hashtbl.t;
    ingest : ingest_state option;
    now : unit -> float; (* caller clock; constant 0.0 when unbound *)
    charge : Node_shared.step_cost -> units:int -> unit; (* virtual-time compute cost hook *)
    seen : (string, int) Hashtbl.t; (* duplicate-submission check, per head *)
    failed : bool array; (* server id -> presumed dead (routing input) *)
    outbox : Outbox.t; (* retained sent frames, for Retransmit *)
    handled : (string, unit) Hashtbl.t; (* semantic dedup of pipeline steps *)
    adopted : (int * int, unit) Hashtbl.t; (* (gid, pos) ceremonies done *)
    mutable sealed : int; (* epochs whose Barrier arrived: 0..sealed-1 *)
    mutable stop : bool;
    obs : Atom_obs.Ctx.t;
    (* Exclusive wall-clock phase tracker for the event loop (tid 0). The
       loop is single-threaded, so switching phases at each state change
       makes the phase spans tile the node's round wall-time by
       construction — the property the merged cluster trace asserts. *)
    ph : Trace.Phase.tracker;
    m_verify_failures : Atom_obs.Metrics.counter;
    m_steps : Atom_obs.Metrics.counter;
    m_bad_frames : Atom_obs.Metrics.counter;
    m_dups_dropped : Atom_obs.Metrics.counter;
    m_recoveries : Atom_obs.Metrics.counter;
    m_resends : Atom_obs.Metrics.counter;
    m_flight : Atom_obs.Metrics.histogram; (* step-frame send → receive, s *)
  }

  let roles_of (net : Pr.network) (node_id : int) : (int * int) list =
    let quorum = Config.quorum net.Pr.config in
    let out = ref [] in
    Array.iter
      (fun g ->
        Array.iteri
          (fun i sid -> if sid = node_id && i < quorum then out := (g.Pr.gid, i + 1) :: !out)
          g.Pr.members)
      net.Pr.groups;
    List.rev !out

  let abort (n : node) ~(code : int) (detail : string) : unit =
    Atom_obs.Metrics.incr n.m_verify_failures;
    Atom_obs.Log.warn "node %d: abort (%s)" n.node_id detail;
    ignore (T.send n.t ~dst:n.coord (Ctrl.encode (Ctrl.Abort { code; detail })));
    n.stop <- true

  (* A frame that fails strict decoding is dropped and counted, never
     fatal: under chaos (bit-flips, truncations, CRC-valid garbage) a
     corrupted frame must cost the round nothing. Semantic failures — a
     proof that verifies false, an assignment mismatch — still abort
     (§4.4): those are evidence of misbehaviour, not line noise. *)
  let bad_frame (n : node) (what : string) : unit =
    Atom_obs.Metrics.incr n.m_bad_frames;
    Atom_obs.Log.warn "node %d: dropped bad frame (%s)" n.node_id what

  let phase (n : node) (name : string) : unit = Trace.Phase.switch n.ph name

  (* Send timestamp for step frames, µs on the caller's clock; 0 means
     unclocked (the deterministic sim harness) and receivers skip it. *)
  let now_us (n : node) : int = int_of_float (n.now () *. 1e6)

  (* Receive-side flight time. Only meaningful when both ends are clocked;
     cross-process the clocks are per-process zeroed, so this is a skew-
     bounded estimate — groundwork for the roadmap's lane-alignment item,
     never a protocol input. *)
  let observe_flight (n : node) (sent_at : int) : unit =
    if sent_at > 0 then begin
      let now = now_us n in
      if now > 0 then
        Atom_obs.Metrics.observe n.m_flight (float_of_int (now - sent_at) /. 1e6)
    end

  (* Step-granularity detail spans: each (gid, iter, step) pipeline hop as
     a span on the group's own track (tid 1+gid, cat "step"), tagged with
     the executing node so it stays attributable after lane merging; [argf]
     adds the hop's own args. Args are built lazily so the disabled path
     allocates nothing. A step with a [cost] is charged for it (over its
     input's unit count) before it computes, so over the simulator its
     frames leave after the charged virtual time. *)
  let step_spanned (n : node) (name : string) ?cost ~(gid : int) ~(iter : int)
      ~(argf : unit -> (string * Trace.arg) list) (f : unit -> 'a) : 'a =
    let tr = Atom_obs.Ctx.tracer n.obs in
    let f () =
      Option.iter (fun (c, units) -> n.charge c ~units) cost;
      f ()
    in
    if Trace.enabled tr then
      Trace.with_span tr ~cat:"step" ~tid:(1 + gid) name f
        ~args:(("node", Trace.I n.node_id) :: ("gid", Trace.I gid) :: ("iter", Trace.I iter)
               :: argf ())
    else f ()

  let route (n : node) (dst : int) : int =
    if dst = n.coord then dst else resolve n.net n.failed dst

  (* §4.5 adoption: for every dead server whose replacement this node now
     is, run the buddy recovery ceremony once per (gid, pos) the dead
     server held — reconstruct the position's share from the retained
     buddy re-sharing and check it against the derived key material. In a
     deployment the sub-shares would arrive from the buddy servers; the
     derivation stands in for that transfer (as for the DKG itself), and
     the equality check pins the reconstruction to the real data path. *)
  let adopt_roles (n : node) : unit =
    phase n "recovery";
    let quorum = Config.quorum n.net.Pr.config in
    Array.iteri
      (fun sid dead ->
        if dead && resolve n.net n.failed sid = n.node_id then
          List.iter
            (fun (gid, pos) ->
              if not (Hashtbl.mem n.adopted (gid, pos)) then begin
                Hashtbl.add n.adopted (gid, pos) ();
                let g = n.net.Pr.groups.(gid) in
                let recovered =
                  Pr.Dkg.recover g.Pr.reshares.(pos - 1)
                    ~from:(List.init quorum (fun i -> i + 1))
                in
                if
                  G.Scalar.equal recovered.Pr.Sh.value
                    g.Pr.keys.Pr.Dkg.shares.(pos - 1).Pr.Sh.value
                then begin
                  Atom_obs.Metrics.incr n.m_recoveries;
                  (* The role is ours now: position-addressed step frames
                     already route here, but role-driven actions (starting
                     an entry group on Barrier) consult [n.roles]. *)
                  n.roles <- n.roles @ [ (gid, pos) ];
                  Trace.thread_name (Atom_obs.Ctx.tracer n.obs) ~tid:(1 + gid)
                    (Printf.sprintf "group %d" gid);
                  Atom_obs.Log.warn "node %d: recovered share gid=%d pos=%d for dead node %d"
                    n.node_id gid pos sid
                end
                else
                  abort n ~code:Ctrl.abort_internal
                    (Printf.sprintf "buddy recovery mismatch gid=%d pos=%d" gid pos)
              end)
            (roles_of n.net sid))
      n.failed

  let mark_failed (n : node) (sid : int) : unit =
    if sid >= 0 && sid < Array.length n.failed && sid <> n.node_id && not n.failed.(sid)
    then begin
      n.failed.(sid) <- true;
      Atom_obs.Log.warn "node %d: peer %d marked failed; replacement %d" n.node_id sid
        (resolve n.net n.failed sid);
      adopt_roles n
    end

  (* Physical send with rerouting: a typed send error marks the peer dead,
     notifies the coordinator, and retries toward the replacement. Each
     retry marks one more server, so the recursion is bounded by fleet
     size. A coordinator failure is unrecoverable — it *is* the round. *)
  let rec send_raw (n : node) ~(dst : int) (frame : string) : unit =
    if not n.stop then begin
      phase n "send";
      let target = route n dst in
      match T.send n.t ~dst:target frame with
      | Ok () -> ()
      | Error Transport.Closed -> n.stop <- true (* this process is dead *)
      | Error e ->
          if target = n.coord then begin
            Atom_obs.Log.warn "node %d: coordinator unreachable: %s" n.node_id
              (Transport.error_to_string e);
            n.stop <- true
          end
          else begin
            Atom_obs.Log.warn "node %d: peer %d unreachable (%s), rerouting" n.node_id
              target (Transport.error_to_string e);
            mark_failed n target;
            ignore
              (T.send n.t ~dst:n.coord (Ctrl.encode (Ctrl.Failed { sids = [| target |] })));
            if route n dst <> target then send_raw n ~dst frame
          end
    end

  (* All pipeline traffic is retained (coordinator-bound included: an
     Exit_batch lost to a partition is recovered the same way) and sent
     through the routing layer. *)
  let send_to (n : node) ~(dst : int) (frame : string) : unit =
    Outbox.note n.outbox ~dst frame;
    send_raw n ~dst frame

  (* Retransmission and duplicate delivery make every message potentially
     multi-delivered; each pipeline step executes exactly once, keyed by
     its position in the round, and later copies are dropped — whether
     byte-identical resends or a re-execution by a replacement server
     (which differs in randomness but not in meaning). *)
  let fresh (n : node) (key : string) : bool =
    if Hashtbl.mem n.handled key then begin
      Atom_obs.Metrics.incr n.m_dups_dropped;
      false
    end
    else begin
      Hashtbl.add n.handled key ();
      true
    end

  let nizk (n : node) : bool = n.net.Pr.config.Config.variant = Config.Nizk

  (* Randomness for pipeline-step execution is keyed to the *step*, not
     the node: a §4.5 replacement re-executing a dead member's step must
     reproduce the original's bytes exactly, or first-arrival dedup
     downstream could stitch together two different shuffles of the same
     layer (duplicating one message and losing another). [tag] encodes
     the position within the (gid, iter) pipeline: shuffle position s is
     tag s; re-encryption position s of batch b is tag 1000 + 64b + s. *)
  let step_rng (n : node) ~(gid : int) ~(iter : int) ~(tag : int) : Atom_util.Rng.t =
    Atom_util.Rng.create
      (n.net.Pr.config.Config.seed
      lxor (0x51ab5 * (gid + 1))
      lxor (0x9e377 * (iter + 1))
      lxor (0x85eb1 * (tag + 1)))

  (* Tail hand-off: forward the proven batch to the next layer's head, or
     to the coordinator at the exit layer. The receiver re-verifies the
     proofs before accepting (Algorithm 2, step 3b). *)
  let finish_batch (n : node) (gid : int) (iter : int) (batch_idx : int)
      ~(input : Pr.El.vec array) ~(output : Pr.El.vec array) (* pre-clear_y *)
      ~(proofs : string array) : unit =
    let net = n.net in
    if last_layer net iter then
      send_to n ~dst:n.coord
        (C.encode (C.Exit_batch { gid; iter; batch_idx; input; output; proofs }))
    else begin
      let dst_gid = (neighbors net ~iter ~gid).(batch_idx) in
      send_to n
        ~dst:(member_at net dst_gid 1)
        (C.encode
           (C.Batch
              { gid = dst_gid; iter = iter + 1; src_gid = gid; sent_at = now_us n;
                input; output; proofs }))
    end

  (* Decrypt-and-reencrypt step [step] of batch [batch_idx] of (gid, iter)
     over [batch], proven under NIZK, then on to the next position — or,
     at the tail, the hand-off. *)
  let reenc_at (n : node) ~(gid : int) ~(iter : int) ~(batch_idx : int) ~(step : int)
      (batch : Pr.El.vec array) : unit =
    let net = n.net in
    let ctx = iter_ctx net gid iter in
    let next_pk = next_pk net ~gid ~iter ~batch_idx in
    let share, coeff = share_and_coeff net gid step in
    let rng = step_rng n ~gid ~iter ~tag:(1000 + (batch_idx * 64) + step) in
    let output, proofs =
      if nizk n then begin
        let stepped =
          Array.map
            (fun v ->
              Pr.P.Reenc_proof.reenc_vec_with_proof rng ~share ~coeff ~next_pk ~context:ctx v)
            batch
        in
        (Array.map fst stepped, Array.map (fun (_, pis) -> reenc_proofs_to_blob pis) stepped)
      end
      else
        ( Array.map (fun v -> fst (Pr.El.reenc_vec rng ~share ~coeff ~next_pk v)) batch,
          Array.map (fun _ -> "") batch )
    in
    Atom_obs.Metrics.incr n.m_steps;
    if step < Config.quorum net.Pr.config then
      send_to n
        ~dst:(member_at net gid (step + 1))
        (C.encode
           (C.Reenc_step
              { gid; iter; batch_idx; step = step + 1; sent_at = now_us n; input = batch;
                output; proofs }))
    else finish_batch n gid iter batch_idx ~input:batch ~output ~proofs

  (* Steps 2+3 of the group iteration, run by the head once the collective
     shuffle is done: divide into β batches and start each decrypt-and-
     reencrypt chain as its position 1. *)
  let divide_and_reenc (n : node) (gid : int) (iter : int) (units : Pr.El.vec array) : unit =
    let beta = Array.length (neighbors n.net ~iter ~gid) in
    let batches = Array.make beta [] in
    Array.iteri (fun i u -> batches.(i mod beta) <- u :: batches.(i mod beta)) units;
    Array.iteri
      (fun bi batch ->
        if not n.stop then begin
          let batch = Array.of_list (List.rev batch) in
          phase n "reenc";
          step_spanned n "head_reenc" ~cost:(Node_shared.Reenc, Array.length batch) ~gid ~iter
            ~argf:(fun () -> [ ("batch", Trace.I bi) ])
            (fun () -> reenc_at n ~gid ~iter ~batch_idx:bi ~step:1 batch)
        end)
      batches

  (* Shuffle step [step] of (gid, iter) over [units], proven under NIZK and
     sent to the next position; the tail's goes back to the head (as step
     q+1). A single-member quorum's head is its own tail and divides at
     once: nobody downstream checks a proof it would send itself. *)
  let shuffle_at (n : node) ~(gid : int) ~(iter : int) ~(step : int) (units : Pr.El.vec array) :
      unit =
    let net = n.net in
    let quorum = Config.quorum net.Pr.config in
    let pk = Pr.group_pk net gid in
    let rng = step_rng n ~gid ~iter ~tag:step in
    match Pr.El.shuffle_vec ?pool:n.pool rng pk units with
    | None -> abort n ~code:Ctrl.abort_internal (Printf.sprintf "shuffle failed gid=%d" gid)
    | Some (shuffled, witness) ->
        Atom_obs.Metrics.incr n.m_steps;
        if quorum = 1 then divide_and_reenc n gid iter shuffled
        else begin
          let proof =
            if nizk n then
              Pr.Shuf.to_bytes
                (Pr.Shuf.prove ?pool:n.pool rng ~pk ~context:(iter_ctx net gid iter)
                   ~input:units ~output:shuffled ~witness)
            else ""
          in
          send_to n
            ~dst:(member_at net gid (if step = quorum then 1 else step + 1))
            (C.encode
               (C.Shuffle_step
                  { gid; iter; step = step + 1; sent_at = now_us n; input = units;
                    output = shuffled; proof }))
        end

  (* Head: start the collective shuffle for (gid, iter) over [units] as its
     position 1. *)
  let begin_iter (n : node) (gid : int) (iter : int) (units : Pr.El.vec array) : unit =
    if Array.length units = 0 then
      (* Nothing to mix: skip the shuffle pass, keep the (empty) batch flow
         so downstream in-degree counting stays uniform. *)
      divide_and_reenc n gid iter units
    else begin
      phase n "shuffle";
      step_spanned n "shuffle_head" ~cost:(Node_shared.Shuffle, Array.length units) ~gid ~iter
        ~argf:(fun () -> [ ("step", Trace.I 1) ])
        (fun () -> shuffle_at n ~gid ~iter ~step:1 units)
    end

  (* Head: record one input batch for (gid, iter); fire when complete. *)
  let accept_input (n : node) (gid : int) (iter : int) (units : Pr.El.vec array) : unit =
    let key = (gid, iter) in
    let st =
      match Hashtbl.find_opt n.inputs key with
      | Some st -> st
      | None ->
          let st = { parts = []; got = 0 } in
          Hashtbl.add n.inputs key st;
          st
    in
    st.parts <- units :: st.parts;
    st.got <- st.got + 1;
    if st.got = in_degree n.net gid iter then begin
      Hashtbl.remove n.inputs key;
      begin_iter n gid iter (Array.concat (List.rev st.parts))
    end

  (* Start entry mixing for a sealed (gid, epoch) exactly once. A round's
     head waits for the coordinator's Submissions frame (under chaos drops
     the Barrier can overtake it); ingest flow has already sealed the
     epoch's units locally, so an absent entry means an empty epoch and
     the (empty) batch flow still runs to keep downstream in-degree
     counting uniform. *)
  let maybe_start_entry (n : node) (gid : int) ~(epoch : int) : unit =
    if epoch < n.sealed && not (Hashtbl.mem n.entry_started (gid, epoch)) then begin
      let units =
        match Hashtbl.find_opt n.entry_units (gid, epoch) with
        | Some units -> Some units
        | None -> if n.ingest <> None then Some [||] else None
      in
      match units with
      | Some units ->
          Hashtbl.add n.entry_started (gid, epoch) ();
          Hashtbl.remove n.entry_units (gid, epoch);
          begin_iter n gid (epoch * iterations n.net) units
      | None -> ()
    end

  (* ---- message handlers ---- *)

  let on_submissions (n : node) (gid : int) (blobs : string array) : unit =
    (* Entry charge: decode each submission, verify its EncProofs and the
       duplicate-ciphertext check, keep accepted units in arrival order.
       (The single-process engine shares one duplicate table across entry
       groups; per-head tables are equivalent for well-formed traffic
       since a submission targets exactly one entry group.) *)
    phase n "verify";
    let units = ref [] in
    Array.iter
      (fun blob ->
        match Pr.Wire.submission_of_bytes blob with
        | None -> Atom_obs.Metrics.incr n.m_verify_failures
        | Some s ->
            if s.Pr.entry_gid = gid && Pr.verify_submission n.net n.seen s then
              Array.iter (fun u -> units := u.Pr.vec :: !units) s.Pr.units
            else Atom_obs.Metrics.incr n.m_verify_failures)
      blobs;
    let units = Array.of_list (List.rev !units) in
    n.charge Node_shared.Verify ~units:(Array.length units);
    Hashtbl.replace n.entry_units (gid, 0) units;
    maybe_start_entry n gid ~epoch:0

  let on_shuffle_step (n : node) ~(gid : int) ~(iter : int) ~(step : int)
      ~(input : Pr.El.vec array) ~(output : Pr.El.vec array) (proof : string) : unit =
    let net = n.net in
    let verified =
      (not (nizk n))
      || Array.length input = 0
      ||
      match Pr.Shuf.of_bytes proof with
      | None -> false
      | Some pi ->
          Pr.Shuf.verify ?pool:n.pool ~pk:(Pr.group_pk net gid) ~context:(iter_ctx net gid iter)
            ~input ~output pi
    in
    if not verified then
      abort n ~code:Ctrl.abort_proof_rejected
        (Printf.sprintf "shuffle proof rejected gid=%d iter=%d step=%d" gid iter step)
    else if step > Config.quorum net.Pr.config then
      (* Back at the head: the whole quorum has shuffled. *)
      divide_and_reenc n gid iter output
    else begin
      phase n "shuffle";
      shuffle_at n ~gid ~iter ~step output
    end

  let on_reenc_step (n : node) ~(gid : int) ~(iter : int) ~(batch_idx : int) ~(step : int)
      ~(input : Pr.El.vec array) ~(output : Pr.El.vec array) (proofs : string array) : unit =
    if
      not
        (verify_reenc ?pool:n.pool n.net ~gid ~iter ~pos:(step - 1)
           ~next_pk:(next_pk n.net ~gid ~iter ~batch_idx) ~input ~output proofs)
    then
      abort n ~code:Ctrl.abort_proof_rejected
        (Printf.sprintf "reenc proofs rejected gid=%d iter=%d step=%d" gid iter (step - 1))
    else begin
      phase n "reenc";
      reenc_at n ~gid ~iter ~batch_idx ~step output
    end

  let on_batch (n : node) ~(gid : int) ~(iter : int) ~(src_gid : int)
      ~(input : Pr.El.vec array) ~(output : Pr.El.vec array) (proofs : string array) : unit =
    (* Next-layer head verifies the sending tail's final ReEnc step, then
       strips the carried Y components before mixing. *)
    let net = n.net in
    if
      not
        (verify_reenc ?pool:n.pool net ~gid:src_gid ~iter:(iter - 1)
           ~pos:(Config.quorum net.Pr.config) ~next_pk:(Some (Pr.group_pk net gid)) ~input
           ~output proofs)
    then
      abort n ~code:Ctrl.abort_proof_rejected
        (Printf.sprintf "batch from gid=%d rejected at gid=%d iter=%d" src_gid gid iter)
    else accept_input n gid iter (Array.map Pr.El.clear_y_vec output)


  (* ---- client submission plane ---- *)

  let heads_gid (n : node) (gid : int) : bool =
    List.exists (fun (g, pos) -> g = gid && pos = 1) n.roles

  (* One client submission: register the return path, run admission, and
     ack with an explicit verdict. Acks go straight to the client id —
     clients are outside the server range, so none of the routing /
     failure-marking machinery applies to them. *)
  let on_submit (n : node) (ing : ingest_state) ~(client : int) ~(port : int)
      ~(token : int) ~(gid : int) ~(blob : string) ~(pow : string) : unit =
    phase n "ingest";
    ing.register_client ~client ~port;
    Hashtbl.replace ing.ingest_clients client ();
    let reply msg = ignore (T.send n.t ~dst:client (Ctrl.encode msg)) in
    if String.length blob = 0 then begin
      (* Empty blob is an epoch query, not a submission. *)
      let p = Intake.policy ing.intake in
      reply
        (Ctrl.Epoch_info
           { epoch = Intake.epoch ing.intake; pow_bits = p.Admission.pow_bits;
             queue_cap = p.Admission.queue_cap; queue_len = Intake.queue_len ing.intake })
    end
    else if not (is_group n.net gid && heads_gid n gid) then
      reply
        (Ctrl.Submit_ack
           { token; status = Ctrl.submit_rejected; epoch = 0; retry_ms = 0; queue_len = 0 })
    else begin
      (* Decode, verify (EncProofs + duplicate-ciphertext) and stash in one
         pass; the intake dedups retries *before* this runs, so a lost ack
         never trips the replay check. *)
      let validate ~epoch blob =
        match Pr.Wire.submission_of_bytes blob with
        | None -> false
        | Some s ->
            if s.Pr.entry_gid = gid && Pr.verify_submission n.net n.seen s then begin
              let key = (gid, epoch) in
              let l =
                match Hashtbl.find_opt ing.ingest_pending key with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.add ing.ingest_pending key l;
                    l
              in
              Array.iter (fun u -> l := u.Pr.vec :: !l) s.Pr.units;
              true
            end
            else false
      in
      match Intake.submit ing.intake ~now:(n.now ()) ~client ~blob ~pow ~validate with
      | Intake.Accepted { epoch; queue_len } ->
          reply
            (Ctrl.Submit_ack
               { token; status = Ctrl.submit_accepted; epoch; retry_ms = 0; queue_len })
      | Intake.Backpressure { retry_ms; queue_len } ->
          reply
            (Ctrl.Submit_ack
               { token; status = Ctrl.submit_retry; epoch = Intake.epoch ing.intake;
                 retry_ms; queue_len })
      | Intake.Rejected { reason = _; queue_len } ->
          reply
            (Ctrl.Submit_ack
               { token; status = Ctrl.submit_rejected; epoch = Intake.epoch ing.intake;
                 retry_ms = 0; queue_len })
    end

  (* Sealing hands an epoch's verified units to the entry head. *)
  let take_pending (n : node) (ing : ingest_state) ~(gid : int) ~(epoch : int) : unit =
    match Hashtbl.find_opt ing.ingest_pending (gid, epoch) with
    | Some l ->
        Hashtbl.replace n.entry_units (gid, epoch) (Array.of_list (List.rev !l));
        Hashtbl.remove ing.ingest_pending (gid, epoch)
    | None -> ()

  let handle_control (n : node) ~(src : int) (msg : Ctrl.t) : unit =
    match msg with
    | Ctrl.Peers _ | Ctrl.Hello _ | Ctrl.Join _ | Ctrl.Ack _ | Ctrl.Published _
    | Ctrl.Trap_commitments _ | Ctrl.Stats_reply _ ->
        () (* peers are registered by the caller's [on_peers]; rest is informational *)
    | Ctrl.Stats_request { token } ->
        (* Live stats service: snapshot the registry + trace buffer and send
           it back to whoever asked (normally the coordinator merging the
           cluster trace). Served at any point in the round — the open-span
           summary says what this node is doing right now. *)
        let snap =
          Atom_obs.Snapshot.of_ctx ~node_id:n.node_id ~include_trace:true n.obs
        in
        ignore
          (T.send n.t ~dst:src
             (Ctrl.encode
                (Ctrl.Stats_reply
                   { token; node_id = n.node_id; snapshot = Atom_obs.Snapshot.to_json snap })))
    | Ctrl.Group_assign { gid; members } ->
        (* Cross-check the coordinator's view against our own derivation:
           any divergence means the deterministic setup drifted. *)
        if not (is_group n.net gid) || n.net.Pr.groups.(gid).Pr.members <> members then
          abort n ~code:Ctrl.abort_bad_assignment
            (Printf.sprintf "group %d assignment mismatch" gid)
    | Ctrl.Barrier { iter = epoch } ->
        (* Barrier e seals epoch e and starts its entry mixing; idempotent
           under barrier retransmission. With ingest on, collection moves
           on to e+1 (that's the pipelining: e mixes while e+1 collects)
           and e's verified units become the entry batch. *)
        n.sealed <- max n.sealed (epoch + 1);
        Option.iter
          (fun ing ->
            phase n "ingest";
            ignore (Intake.seal ing.intake ~epoch))
          n.ingest;
        List.iter
          (fun (gid, pos) ->
            if pos = 1 then begin
              Option.iter (fun ing -> take_pending n ing ~gid ~epoch) n.ingest;
              maybe_start_entry n gid ~epoch
            end)
          n.roles
    | Ctrl.Submit { client; port; token; gid; epoch = _; blob; pow } -> (
        match n.ingest with
        | None -> bad_frame n "submit without ingest enabled"
        | Some ing -> on_submit n ing ~client ~port ~token ~gid ~blob ~pow)
    | Ctrl.Submit_ack _ | Ctrl.Epoch_info _ -> () (* client-side traffic *)
    | Ctrl.Bulletin_announce { epoch; digest; signature; posts } -> (
        match n.ingest with
        | None -> ()
        | Some ing ->
            let s = { Bulletin.epoch; posts; digest } in
            if not (BSign.verify_sealed ~pk:ing.bulletin_pk s ~signature) then
              bad_frame n "bulletin announce signature rejected"
            else if fresh n (Printf.sprintf "A%d" epoch) then begin
              (* Fan the signed bulletin out to every client that submitted
                 here; client-side verification closes the loop. *)
              let frame = Ctrl.encode msg in
              Hashtbl.iter
                (fun c () -> ignore (T.send n.t ~dst:c frame))
                ing.ingest_clients
            end)
    | Ctrl.Submissions { gid; blobs } ->
        (* Dedup is load-bearing here: reprocessing would trip the
           duplicate-ciphertext check against the first pass's [seen]
           entries and replace the verified units with an empty set. *)
        if not (is_group n.net gid) then bad_frame n "submissions for an unknown group"
        else if fresh n (Printf.sprintf "U%d" gid) then on_submissions n gid blobs
    | Ctrl.Failed { sids } ->
        phase n "recovery";
        Array.iter (mark_failed n) sids;
        (* Adoption may have handed this node an entry-head role whose
           submissions were rerouted here before the death was known —
           idempotent thanks to the entry_started guard. Every sealed epoch
           is revisited (in ingest mode the replacement starts an empty
           entry; units accepted only by the dead head are the documented
           loss bound, which the harness avoids by killing non-heads). *)
        List.iter
          (fun (gid, pos) ->
            if pos = 1 then
              for epoch = 0 to n.sealed - 1 do
                maybe_start_entry n gid ~epoch
              done)
          n.roles
    | Ctrl.Retransmit ->
        (* Recovery nudge: re-send every retained frame toward its current
           route; receiver-side dedup makes this idempotent. *)
        phase n "recovery";
        Outbox.iter n.outbox (fun ~dst frame ->
            Atom_obs.Metrics.incr n.m_resends;
            send_raw n ~dst frame)
    | Ctrl.Abort { detail; _ } ->
        Atom_obs.Log.warn "node %d: abort relayed: %s" n.node_id detail;
        n.stop <- true
    | Ctrl.Shutdown -> n.stop <- true

  (* A received pipeline frame runs once, keyed by [key]. It enters
     "verify" (its handler's first work) before its span opens, so a
     charged step is never booked as recv-wait. *)
  let received (n : node) ~(sent_at : int) (key : string) (name : string) ?cost ~gid ~iter
      ~argf (f : unit -> unit) : unit =
    observe_flight n sent_at;
    if fresh n key then begin
      phase n "verify";
      step_spanned n name ?cost ~gid ~iter ~argf f
    end

  let handle_codec (n : node) (msg : C.msg) : unit =
    match msg with
    | C.Group_key { gid; pk } ->
        if not (is_group n.net gid && G.equal pk (Pr.group_pk n.net gid)) then
          abort n ~code:Ctrl.abort_bad_assignment (Printf.sprintf "group %d key mismatch" gid)
    | C.Shuffle_step { gid; iter; step; sent_at; input; output; proof } ->
        received n ~sent_at (Printf.sprintf "S%d.%d.%d" gid iter step) "shuffle_step"
          ~cost:(Node_shared.Shuffle, Array.length input) ~gid ~iter
          ~argf:(fun () -> [ ("step", Trace.I step) ])
          (fun () -> on_shuffle_step n ~gid ~iter ~step ~input ~output proof)
    | C.Reenc_step { gid; iter; batch_idx; step; sent_at; input; output; proofs } ->
        received n ~sent_at (Printf.sprintf "R%d.%d.%d.%d" gid iter batch_idx step) "reenc_step"
          ~cost:(Node_shared.Reenc, Array.length input) ~gid ~iter
          ~argf:(fun () -> [ ("batch", Trace.I batch_idx); ("step", Trace.I step) ])
          (fun () -> on_reenc_step n ~gid ~iter ~batch_idx ~step ~input ~output proofs)
    | C.Batch { gid; iter; src_gid; sent_at; input; output; proofs } ->
        (* One batch per (src, dst) pair per layer: the square topology
           never fans a group out twice to the same neighbor in a layer,
           so this key distinguishes every legitimate batch (iter is
           absolute, so the key is also epoch-unique). *)
        received n ~sent_at (Printf.sprintf "B%d.%d.%d" gid iter src_gid) "batch_verify" ~gid
          ~iter
          ~argf:(fun () -> [ ("src_gid", Trace.I src_gid) ])
          (fun () -> on_batch n ~gid ~iter ~src_gid ~input ~output proofs)
    | C.Exit_batch _ -> () (* coordinator-only traffic *)

  let handle_frame (n : node) ~(src : int) (frame : string) : unit =
    match Frame.kind_of frame with
    | Some k when k >= Frame.kind_group_key && k <= Frame.kind_exit_batch -> (
        (* Data-plane hot path: one structural parse (zero-copy element
           views), then one batched membership discharge over the whole
           frame — no per-element validation work. Decoding deferred and
           discharging explicitly (rather than [~policy:Batched]) keeps
           the non-member index for the abort detail. *)
        let handle msg =
          if in_range n.net msg then handle_codec n msg
          else bad_frame n (Printf.sprintf "%s index out of range" (Frame.kind_name k))
        in
        match C.decode ~policy:Atom_wire.Validation.Deferred frame with
        | Some (C.Unchecked d) -> (
            match C.discharge ?pool:n.pool d with
            | Ok msg -> handle msg
            | Error i ->
                bad_frame n
                  (Printf.sprintf "non-member element %d in %s" i (Frame.kind_name k)))
        | Some (C.Msg msg) -> handle msg
        | None -> bad_frame n (Printf.sprintf "bad %s body" (Frame.kind_name k)))
    | Some k -> (
        match Ctrl.decode frame with
        | Some msg -> handle_control n ~src msg
        | None -> bad_frame n (Printf.sprintf "bad %s body" (Frame.kind_name k)))
    | None -> bad_frame n "unparseable frame"

  (* Run one server's event loop until Shutdown / abort / idle expiry.
     [on_peers] lets the transport register discovered peers (TCP needs
     host:port; the simulator transport knows everyone already). [charge]
     is told each pipeline step's cost kind and input size before the
     step computes; the simulated fleet prices it in virtual time. *)
  let run_node ?(obs = Atom_obs.Ctx.noop) ?clock ?pool
      ?(charge = fun (_ : Node_shared.step_cost) ~units:(_ : int) -> ()) (t : T.t)
      ~(config : Config.t) ~(node_id : int) ~(coord : int) ?(recv_timeout = 0.5) ?(max_idle = 240)
      ?(on_peers = fun (_ : (int * int) array) -> ())
      ?(ingest : Admission.policy option)
      ?(register_client = fun ~client:(_ : int) ~port:(_ : int) -> ()) () : unit =
    (* [clock] binds the tracer's timebase (a wall clock for real
       deployments). Left unbound, the simulator-transport tests keep their
       deterministic zero clock. *)
    (match clock with Some c -> Atom_obs.Ctx.bind_clock obs c | None -> ());
    let reg = Atom_obs.Ctx.metrics obs in
    let tr = Atom_obs.Ctx.tracer obs in
    let net = Pr.setup (Atom_util.Rng.create config.Config.seed) config () in
    Trace.thread_name tr ~tid:0 "event loop";
    let now = match clock with Some c -> c | None -> fun () -> 0. in
    let ingest =
      Option.map
        (fun policy ->
          let _, bulletin_pk = bulletin_keypair config in
          {
            intake = Intake.create ~obs ~policy ();
            register_client;
            ingest_pending = Hashtbl.create 16;
            ingest_clients = Hashtbl.create 64;
            bulletin_pk;
          })
        ingest
    in
    let n =
      {
        t;
        net;
        pool;
        node_id;
        coord;
        roles = roles_of net node_id;
        inputs = Hashtbl.create 16;
        entry_units = Hashtbl.create 8;
        entry_started = Hashtbl.create 8;
        seen = Hashtbl.create 64;
        ingest;
        now;
        charge;
        failed = Array.make config.Config.n_servers false;
        outbox = Outbox.create ();
        handled = Hashtbl.create 64;
        adopted = Hashtbl.create 8;
        sealed = 0;
        stop = false;
        obs;
        ph = Trace.Phase.start tr ~tid:0 "barrier";
        m_verify_failures = Atom_obs.Metrics.counter reg "node.verify_failures";
        m_steps = Atom_obs.Metrics.counter reg "node.steps";
        m_bad_frames = Atom_obs.Metrics.counter reg "node.bad_frames";
        m_dups_dropped = Atom_obs.Metrics.counter reg "node.dups_dropped";
        m_recoveries = Atom_obs.Metrics.counter reg "node.recoveries";
        m_resends = Atom_obs.Metrics.counter reg "node.resends";
        m_flight =
          Atom_obs.Metrics.histogram reg ~buckets:20 ~lo:0. ~hi:2. "node.step_flight_s";
      }
    in
    List.iter
      (fun (gid, _) -> Trace.thread_name tr ~tid:(1 + gid) (Printf.sprintf "group %d" gid))
      n.roles;
    let idle = ref 0 in
    while (not n.stop) && !idle < max_idle do
      (* Between frames the node is either waiting out the bring-up
         ("barrier") or blocked on upstream pipeline traffic ("recv-wait");
         handlers switch to their own phase on arrival, so the tid-0 phase
         spans tile the whole loop lifetime. *)
      phase n (if n.sealed > 0 then "recv-wait" else "barrier");
      match T.recv t ~timeout:recv_timeout with
      | Error Transport.Closed -> n.stop <- true
      | Error _ -> incr idle
      | Ok (src, frame) ->
          idle := 0;
          (match Ctrl.decode frame with
          | Some (Ctrl.Peers { peers }) ->
              (* Register the fleet, then tell the coordinator we can route:
                 no data-plane traffic flows until every node has acked. *)
              on_peers peers;
              ignore (T.send t ~dst:coord (Ctrl.encode (Ctrl.Ack { token = node_id })))
          | _ -> ());
          handle_frame n ~src frame
    done;
    Trace.Phase.stop n.ph
end
