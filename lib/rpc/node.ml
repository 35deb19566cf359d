(* The multi-process node runtime: Atom's per-group pipeline, split across
   real processes and driven by wire messages.

   [Protocol.process_group] executes a group's iteration as one in-memory
   loop over the quorum. Here the same choreography runs as messages
   between the actual member processes, carrying all per-step state in the
   message (members are stateless between messages; only the group head
   accumulates):

     head (pos 1)        shuffles, sends Shuffle_step to pos 2
     pos p               verifies pos p-1's ShufProof, shuffles, forwards
     tail (pos q)        sends its step back to the head (step = q+1)
     head                verifies the tail, divides into β batches,
                         runs its ReEnc step, sends Reenc_step to pos 2
     pos p               verifies pos p-1's ReEnc proofs, steps, forwards
     tail                sends Batch to the next-layer head — which
                         verifies the tail's proofs (Algorithm 2 step 3b)
                         — or Exit_batch to the coordinator at the last
                         layer

   In the single-process engine every member verifies every proof; here
   each proof is checked by its successor in the pipeline (and the final
   step by the receiving group / coordinator), which preserves the
   anytrust argument as long as some honest member sits downstream of
   every dishonest one — the h ≥ 1 honest member per group is somewhere in
   the chain, and an abort anywhere stops the round.

   Every process — the N nodes and the coordinator — derives identical key
   material by running [Protocol.setup] over the same seeded RNG, so no
   secret ever crosses the wire and cross-process runs are comparable to
   the single-process reference round. A production deployment would run
   the interactive DKG here; the deterministic derivation stands in for it
   so the harness can check end-to-end correctness (EXPERIMENTS.md recipe:
   published plaintexts must equal the single-process run's, as sets). *)

open Atom_core

(* The compute a pipeline step is charged for, per unit of its input:
   entry verification of the submissions' EncProofs, a shuffle step, a
   ReEnc step. Over the simulator each is priced in virtual time; over
   TCP the charge does nothing. *)
type step_cost = Verify | Shuffle | Reenc

module Make (G : Atom_group.Group_intf.GROUP) (T : Transport.S) = struct
  module Pr = Protocol.Make (G)
  module C = Atom_wire.Codec.Make (G) (Pr.El)
  module Ctrl = Atom_wire.Control
  module Frame = Atom_wire.Frame
  module Trace = Atom_obs.Trace

  (* ---- shared derivations ---- *)

  let quorum_positions (net : Pr.network) : int list =
    List.init (Config.quorum net.Pr.config) (fun i -> i + 1)

  let iter_ctx (net : Pr.network) (gid : int) (iter : int) : string =
    Printf.sprintf "%s:iter=%d" (Pr.proof_context net gid) iter

  (* Effective public key of the member at Shamir position [pos]: its share
     commitment raised to the Lagrange coefficient for the no-churn quorum. *)
  let eff_pk (net : Pr.network) (gid : int) (pos : int) : G.t =
    let g = net.Pr.groups.(gid) in
    let coeff = Pr.Sh.lagrange_at_zero ~xs:(quorum_positions net) ~i:pos in
    G.pow (Pr.Dkg.share_pk g.Pr.keys pos) coeff

  let share_and_coeff (net : Pr.network) (gid : int) (pos : int) :
      G.Scalar.t * G.Scalar.t =
    let g = net.Pr.groups.(gid) in
    ( g.Pr.keys.Pr.Dkg.shares.(pos - 1).Pr.Sh.value,
      Pr.Sh.lagrange_at_zero ~xs:(quorum_positions net) ~i:pos )

  (* Member server id at quorum position [pos] (1-based). *)
  let member_at (net : Pr.network) (gid : int) (pos : int) : int =
    net.Pr.groups.(gid).Pr.members.(pos - 1)

  let iterations (net : Pr.network) : int =
    net.Pr.topo.Atom_topology.Topology.iterations

  (* Iterations are *absolute* across pipelined epochs: epoch e's layer l
     runs as iter = e·T + l (T = topology iterations). Everything keyed by
     iter — dedup keys, proof contexts, step RNG — is epoch-unique for
     free; only the topology itself is per-layer, so lookups normalize. *)
  let neighbors (net : Pr.network) ~(iter : int) ~(gid : int) : int array =
    net.Pr.topo.Atom_topology.Topology.neighbors ~iter:(iter mod iterations net)
      ~group:gid

  let last_layer (net : Pr.network) (iter : int) : bool =
    iter mod iterations net = iterations net - 1

  (* Batches arriving at [gid]'s layer [iter]: the fan-out of layer iter−1
     toward it. Derived from the topology so any wiring works, not just
     the square's all-to-all. *)
  let in_degree (net : Pr.network) (gid : int) (iter : int) : int =
    let n = ref 0 in
    for src = 0 to net.Pr.config.Config.n_groups - 1 do
      Array.iter (fun d -> if d = gid then incr n) (neighbors net ~iter:(iter - 1) ~gid:src)
    done;
    !n

  let expected_exits (net : Pr.network) : int =
    let last = iterations net - 1 in
    let n = ref 0 in
    for gid = 0 to net.Pr.config.Config.n_groups - 1 do
      n := !n + Array.length (neighbors net ~iter:last ~gid)
    done;
    !n

  (* Per-unit ReEnc proof vectors travel as one opaque blob per unit. *)
  let reenc_proofs_to_blob (pis : Pr.P.Reenc_proof.t array) : string =
    let b = Buffer.create 256 in
    Frame.W.u16 b (Array.length pis);
    Array.iter (fun pi -> Frame.W.str32 b (Pr.P.Reenc_proof.to_bytes pi)) pis;
    Buffer.contents b

  let reenc_proofs_of_blob (s : string) : Pr.P.Reenc_proof.t array option =
    Frame.R.decode s (fun r ->
        let n = Frame.R.u16 r in
        Array.init n (fun _ ->
            match Pr.P.Reenc_proof.of_bytes (Frame.R.str32 ~max:65536 r) with
            | Some pi -> pi
            | None -> Frame.R.fail ()))

  (* Verify one proof-carrying hop: [proofs] has one blob per unit proving
     input.(u) → output.(u) under [eff_pk]/[next_pk]. Units are independent,
     so the checks fan out across the pool (the sequential path kept its
     first-failure short-circuit; the pooled one checks every unit — same
     verdict either way). *)
  let verify_hop ?pool ~(eff_pk : G.t) ~(next_pk : G.t option) ~(context : string)
      ~(input : Pr.El.vec array) ~(output : Pr.El.vec array) (proofs : string array) : bool =
    Array.length input = Array.length output
    && Array.length input = Array.length proofs
    && begin
         let oks =
           Atom_exec.Pool.tabulate ?pool (Array.length proofs) (fun u ->
               match reenc_proofs_of_blob proofs.(u) with
               | None -> false
               | Some pis ->
                   Pr.P.Reenc_proof.verify_vec ~eff_pk ~next_pk ~context
                     ~input:input.(u) ~output:output.(u) pis)
         in
         Array.for_all Fun.id oks
       end

  (* ---- §4.5 failure routing ----

     The single-process reference recovers a dead group in place (buddy
     sub-shares → [Pr.recover_group]); the message-passing runtime
     realises the same mechanism as deterministic *role replacement*:
     every process computes the same replacement for a dead server from
     the shared network state, so routing re-converges without
     coordination. The replacement is drawn from the dead server's buddy
     group first (§4.5: the buddies hold the re-sharing of its share),
     falling back to any live server. The replacement can execute the dead
     member's pipeline steps because handlers take (gid, pos) from the
     message, not from local identity — and it proves it holds the
     position's share by running the buddy recovery ceremony
     ([Pr.Dkg.recover] over the retained re-sharing) before adopting the
     role. *)

  let candidates (net : Pr.network) (sid : int) : int list =
    let buddy =
      match
        Array.find_opt (fun g -> Array.exists (( = ) sid) g.Pr.members) net.Pr.groups
      with
      | Some g -> Array.to_list g.Pr.buddies
      | None -> []
    in
    let everyone = List.init net.Pr.config.Config.n_servers Fun.id in
    let seen = Hashtbl.create 8 in
    List.filter
      (fun c -> c <> sid && not (Hashtbl.mem seen c) && (Hashtbl.add seen c (); true))
      (buddy @ everyone)

  (* First live candidate; pure in (net, failed), so every process that has
     heard the same failure set routes identically. *)
  let resolve (net : Pr.network) (failed : bool array) (sid : int) : int =
    if sid < 0 || sid >= Array.length failed || not failed.(sid) then sid
    else
      match List.find_opt (fun c -> not failed.(c)) (candidates net sid) with
      | Some c -> c
      | None -> sid

  (* Bounded per-peer ring of recently sent frames, keyed by the *logical*
     destination (pre-rerouting) so a retained frame follows routing when
     the failure set changes. Recovery is retransmission: the round's
     in-flight state lives collectively in these rings, so a replacement
     server can be fed the dead member's inputs and the pipeline resumes
     from the furthest point it actually reached. The cap bounds memory —
     a frame that ages out before a recovery that needed it stalls the
     round into the coordinator's timeout, which is the graceful-
     degradation contract (never OOM). *)
  module Outbox = struct
    type t = { cap : int; tbl : (int, string Queue.t) Hashtbl.t }

    let create ?(cap = 32) () : t = { cap; tbl = Hashtbl.create 8 }

    let note (t : t) ~(dst : int) (frame : string) : unit =
      let q =
        match Hashtbl.find_opt t.tbl dst with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.add t.tbl dst q;
            q
      in
      Queue.add frame q;
      if Queue.length q > t.cap then ignore (Queue.pop q)

    let iter (t : t) (f : dst:int -> string -> unit) : unit =
      Hashtbl.iter (fun dst q -> Queue.iter (fun fr -> f ~dst fr) q) t.tbl

    let iter_dst (t : t) ~(dst : int) (f : string -> unit) : unit =
      match Hashtbl.find_opt t.tbl dst with Some q -> Queue.iter f q | None -> ()
  end

  (* ---- the node ---- *)

  module Intake = Atom_ingest.Intake
  module Admission = Atom_ingest.Admission
  module BSign = Bulletin.Signer (G)

  (* Seed-derived bulletin signing key: every process recomputes the same
     keypair from the shared config seed, mirroring the stand-in DKG. *)
  let bulletin_keypair (config : Config.t) : BSign.sk * BSign.pk =
    BSign.keypair ~seed:config.Config.seed

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
    charge : step_cost -> units:int -> unit; (* virtual-time compute cost hook *)
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
     the executing node so it stays attributable after lane merging. Args
     are built lazily so the disabled path allocates nothing. A step with
     a [cost] is charged for it (over its input's unit count) before it
     computes, so over the simulator its frames leave after the charged
     virtual time. *)
  let step_spanned (n : node) (name : string) ?cost ~(tid : int)
      ~(argf : unit -> (string * Trace.arg) list) (f : unit -> 'a) : 'a =
    let tr = Atom_obs.Ctx.tracer n.obs in
    let f () =
      Option.iter (fun (c, units) -> n.charge c ~units) cost;
      f ()
    in
    if Trace.enabled tr then Trace.with_span tr ~cat:"step" ~args:(argf ()) ~tid name f
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

  (* Step 2+3 of the group iteration, run by the head once the collective
     shuffle is done: divide into β batches and launch each decrypt-and-
     reencrypt chain with this head's own step. *)
  let rec divide_and_reenc (n : node) (gid : int) (iter : int) (units : Pr.El.vec array) : unit =
    let net = n.net in
    let quorum = Config.quorum net.Pr.config in
    let nbrs = neighbors net ~iter ~gid in
    let beta = Array.length nbrs in
    let last_iter = last_layer net iter in
    let ctx = iter_ctx net gid iter in
    let share, coeff = share_and_coeff net gid 1 in
    let batches = Array.make beta [] in
    Array.iteri (fun i u -> batches.(i mod beta) <- u :: batches.(i mod beta)) units;
    let batches = Array.map (fun l -> Array.of_list (List.rev l)) batches in
    Array.iteri
      (fun bi batch ->
        if not n.stop then begin
          phase n "reenc";
          step_spanned n "head_reenc" ~cost:(Reenc, Array.length batch) ~tid:(1 + gid)
            ~argf:(fun () ->
              [ ("node", Trace.I n.node_id); ("gid", Trace.I gid);
                ("iter", Trace.I iter); ("batch", Trace.I bi) ])
          @@ fun () ->
          let rng = step_rng n ~gid ~iter ~tag:(1000 + (bi * 64) + 1) in
          let next_pk = if last_iter then None else Some (Pr.group_pk net nbrs.(bi)) in
          let output, proofs =
            if nizk n then begin
              let stepped =
                Array.map
                  (fun v ->
                    Pr.P.Reenc_proof.reenc_vec_with_proof rng ~share ~coeff ~next_pk
                      ~context:ctx v)
                  batch
              in
              (Array.map fst stepped, Array.map (fun (_, pis) -> reenc_proofs_to_blob pis) stepped)
            end
            else
              ( Array.map (fun v -> fst (Pr.El.reenc_vec rng ~share ~coeff ~next_pk v)) batch,
                Array.map (fun _ -> "") batch )
          in
          Atom_obs.Metrics.incr n.m_steps;
          if quorum > 1 then
            send_to n
              ~dst:(member_at n.net gid 2)
              (C.encode
                 (C.Reenc_step
                    { gid; iter; batch_idx = bi; step = 2; sent_at = now_us n;
                      input = batch; output; proofs }))
          else
            (* Single-member quorum: the head is also the tail. *)
            finish_batch n gid iter bi ~input:batch ~output ~proofs
        end)
      batches

  (* Tail hand-off: forward the proven batch to the next layer's head, or
     to the coordinator at the exit layer. The receiver re-verifies the
     proofs before accepting (Algorithm 2, step 3b). *)
  and finish_batch (n : node) (gid : int) (iter : int) (batch_idx : int)
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

  (* Head: start the collective shuffle for (gid, iter) over [units]. *)
  let begin_iter (n : node) (gid : int) (iter : int) (units : Pr.El.vec array) : unit =
    let net = n.net in
    let quorum = Config.quorum net.Pr.config in
    if Array.length units = 0 then
      (* Nothing to mix: skip the shuffle pass, keep the (empty) batch flow
         so downstream in-degree counting stays uniform. *)
      divide_and_reenc n gid iter units
    else begin
      phase n "shuffle";
      step_spanned n "shuffle_head" ~cost:(Shuffle, Array.length units) ~tid:(1 + gid)
        ~argf:(fun () ->
          [ ("node", Trace.I n.node_id); ("gid", Trace.I gid);
            ("iter", Trace.I iter); ("step", Trace.I 1) ])
      @@ fun () ->
      let rng = step_rng n ~gid ~iter ~tag:1 in
      match Pr.El.shuffle_vec ?pool:n.pool rng (Pr.group_pk net gid) units with
      | None -> abort n ~code:Ctrl.abort_internal (Printf.sprintf "shuffle failed gid=%d" gid)
      | Some (shuffled, witness) ->
          Atom_obs.Metrics.incr n.m_steps;
          if quorum = 1 then divide_and_reenc n gid iter shuffled
          else begin
            let proof =
              if nizk n then
                Pr.Shuf.to_bytes
                  (Pr.Shuf.prove ?pool:n.pool rng ~pk:(Pr.group_pk net gid)
                     ~context:(iter_ctx net gid iter) ~input:units ~output:shuffled ~witness)
              else ""
            in
            send_to n
              ~dst:(member_at net gid 2)
              (C.encode
                 (C.Shuffle_step
                    { gid; iter; step = 2; sent_at = now_us n; input = units;
                      output = shuffled; proof }))
          end
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
    n.charge Verify ~units:(Array.length units);
    Hashtbl.replace n.entry_units (gid, 0) units;
    maybe_start_entry n gid ~epoch:0

  let on_shuffle_step (n : node) ~(gid : int) ~(iter : int) ~(step : int)
      ~(input : Pr.El.vec array) ~(output : Pr.El.vec array) (proof : string) : unit =
    let net = n.net in
    let quorum = Config.quorum net.Pr.config in
    let pk = Pr.group_pk net gid in
    let ctx = iter_ctx net gid iter in
    let verified =
      (not (nizk n))
      || Array.length input = 0
      ||
      match Pr.Shuf.of_bytes proof with
      | None -> false
      | Some pi -> Pr.Shuf.verify ?pool:n.pool ~pk ~context:ctx ~input ~output pi
    in
    if not verified then
      abort n ~code:Ctrl.abort_proof_rejected
        (Printf.sprintf "shuffle proof rejected gid=%d iter=%d step=%d" gid iter step)
    else if step > quorum then
      (* Back at the head: the whole quorum has shuffled. *)
      divide_and_reenc n gid iter output
    else begin
      phase n "shuffle";
      let rng = step_rng n ~gid ~iter ~tag:step in
      match Pr.El.shuffle_vec ?pool:n.pool rng pk output with
      | None -> abort n ~code:Ctrl.abort_internal (Printf.sprintf "shuffle failed gid=%d" gid)
      | Some (shuffled, witness) ->
          Atom_obs.Metrics.incr n.m_steps;
          let proof' =
            if nizk n then
              Pr.Shuf.to_bytes
                (Pr.Shuf.prove ?pool:n.pool rng ~pk ~context:ctx ~input:output
                   ~output:shuffled ~witness)
            else ""
          in
          let next_pos = if step = quorum then 1 else step + 1 in
          send_to n
            ~dst:(member_at net gid next_pos)
            (C.encode
               (C.Shuffle_step
                  { gid; iter; step = step + 1; sent_at = now_us n; input = output;
                    output = shuffled; proof = proof' }))
    end

  let on_reenc_step (n : node) ~(gid : int) ~(iter : int) ~(batch_idx : int) ~(step : int)
      ~(input : Pr.El.vec array) ~(output : Pr.El.vec array) (proofs : string array) : unit =
    let net = n.net in
    let quorum = Config.quorum net.Pr.config in
    let ctx = iter_ctx net gid iter in
    let next_pk =
      if last_layer net iter then None
      else Some (Pr.group_pk net (neighbors net ~iter ~gid).(batch_idx))
    in
    let prev_ok =
      (not (nizk n))
      || verify_hop ?pool:n.pool ~eff_pk:(eff_pk net gid (step - 1)) ~next_pk ~context:ctx ~input
           ~output proofs
    in
    if not prev_ok then
      abort n ~code:Ctrl.abort_proof_rejected
        (Printf.sprintf "reenc proofs rejected gid=%d iter=%d step=%d" gid iter (step - 1))
    else begin
      phase n "reenc";
      let share, coeff = share_and_coeff net gid step in
      let rng = step_rng n ~gid ~iter ~tag:(1000 + (batch_idx * 64) + step) in
      let output', proofs' =
        if nizk n then begin
          let stepped =
            Array.map
              (fun v ->
                Pr.P.Reenc_proof.reenc_vec_with_proof rng ~share ~coeff ~next_pk ~context:ctx v)
              output
          in
          (Array.map fst stepped, Array.map (fun (_, pis) -> reenc_proofs_to_blob pis) stepped)
        end
        else
          ( Array.map (fun v -> fst (Pr.El.reenc_vec rng ~share ~coeff ~next_pk v)) output,
            Array.map (fun _ -> "") output )
      in
      Atom_obs.Metrics.incr n.m_steps;
      if step < quorum then
        send_to n
          ~dst:(member_at net gid (step + 1))
          (C.encode
             (C.Reenc_step
                { gid; iter; batch_idx; step = step + 1; sent_at = now_us n;
                  input = output; output = output'; proofs = proofs' }))
      else finish_batch n gid iter batch_idx ~input:output ~output:output' ~proofs:proofs'
    end

  let on_batch (n : node) ~(gid : int) ~(iter : int) ~(src_gid : int)
      ~(input : Pr.El.vec array) ~(output : Pr.El.vec array) (proofs : string array) : unit =
    (* Next-layer head verifies the sending tail's final ReEnc step, then
       strips the carried Y components before mixing. *)
    let net = n.net in
    let quorum = Config.quorum net.Pr.config in
    let ok =
      (not (nizk n))
      || verify_hop ?pool:n.pool
           ~eff_pk:(eff_pk net src_gid quorum)
           ~next_pk:(Some (Pr.group_pk net gid))
           ~context:(iter_ctx net src_gid (iter - 1))
           ~input ~output proofs
    in
    if not ok then
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
    else if gid < 0 || gid >= Array.length n.net.Pr.groups || not (heads_gid n gid) then
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
        if
          gid < 0
          || gid >= Array.length n.net.Pr.groups
          || n.net.Pr.groups.(gid).Pr.members <> members
        then abort n ~code:Ctrl.abort_bad_assignment (Printf.sprintf "group %d assignment mismatch" gid)
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
        if gid < 0 || gid >= Array.length n.net.Pr.groups then
          bad_frame n "submissions for an unknown group"
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

  (* The indices the senders above produce: a gid names a group, a step a
     pipeline position (shuffle 2..q+1, ReEnc 2..q), a batch index the
     fan-out of its (gid, iter), and a Batch an edge of the topology.
     Anything else would index past the key material or the topology, so
     it is dropped like any other malformed frame. *)
  let in_range (n : node) (msg : C.msg) : bool =
    let net = n.net in
    let group g = g >= 0 && g < Array.length net.Pr.groups in
    let quorum = Config.quorum net.Pr.config in
    match msg with
    | C.Group_key _ | C.Exit_batch _ -> true
    | C.Shuffle_step { gid; iter; step; _ } ->
        group gid && iter >= 0 && step >= 2 && step <= quorum + 1
    | C.Reenc_step { gid; iter; batch_idx; step; _ } ->
        group gid && iter >= 0 && step >= 2 && step <= quorum && batch_idx >= 0
        && batch_idx < Array.length (neighbors net ~iter ~gid)
    | C.Batch { gid; iter; src_gid; _ } ->
        group gid && group src_gid && iter >= 1
        && Array.mem gid (neighbors net ~iter:(iter - 1) ~gid:src_gid)

  (* A fresh pipeline step enters "verify" (its handler's first work)
     before its span opens, so a charged step is never booked as
     recv-wait. *)
  let handle_codec (n : node) (msg : C.msg) : unit =
    match msg with
    | C.Group_key { gid; pk } ->
        if gid < 0 || gid >= Array.length n.net.Pr.groups
           || not (G.equal pk (Pr.group_pk n.net gid))
        then abort n ~code:Ctrl.abort_bad_assignment (Printf.sprintf "group %d key mismatch" gid)
    | C.Shuffle_step { gid; iter; step; sent_at; input; output; proof } ->
        observe_flight n sent_at;
        if fresh n (Printf.sprintf "S%d.%d.%d" gid iter step) then begin
          phase n "verify";
          step_spanned n "shuffle_step" ~cost:(Shuffle, Array.length input) ~tid:(1 + gid)
            ~argf:(fun () ->
              [ ("node", Trace.I n.node_id); ("gid", Trace.I gid);
                ("iter", Trace.I iter); ("step", Trace.I step) ])
            (fun () -> on_shuffle_step n ~gid ~iter ~step ~input ~output proof)
        end
    | C.Reenc_step { gid; iter; batch_idx; step; sent_at; input; output; proofs } ->
        observe_flight n sent_at;
        if fresh n (Printf.sprintf "R%d.%d.%d.%d" gid iter batch_idx step) then begin
          phase n "verify";
          step_spanned n "reenc_step" ~cost:(Reenc, Array.length input) ~tid:(1 + gid)
            ~argf:(fun () ->
              [ ("node", Trace.I n.node_id); ("gid", Trace.I gid);
                ("iter", Trace.I iter); ("batch", Trace.I batch_idx);
                ("step", Trace.I step) ])
            (fun () -> on_reenc_step n ~gid ~iter ~batch_idx ~step ~input ~output proofs)
        end
    | C.Batch { gid; iter; src_gid; sent_at; input; output; proofs } ->
        (* One batch per (src, dst) pair per layer: the square topology
           never fans a group out twice to the same neighbor in a layer,
           so this key distinguishes every legitimate batch (iter is
           absolute, so the key is also epoch-unique). *)
        observe_flight n sent_at;
        if fresh n (Printf.sprintf "B%d.%d.%d" gid iter src_gid) then begin
          phase n "verify";
          step_spanned n "batch_verify" ~tid:(1 + gid)
            ~argf:(fun () ->
              [ ("node", Trace.I n.node_id); ("gid", Trace.I gid);
                ("iter", Trace.I iter); ("src_gid", Trace.I src_gid) ])
            (fun () -> on_batch n ~gid ~iter ~src_gid ~input ~output proofs)
        end
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
          if in_range n msg then handle_codec n msg
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
      ?(charge = fun (_ : step_cost) ~units:(_ : int) -> ()) (t : T.t) ~(config : Config.t)
      ~(node_id : int) ~(coord : int) ?(recv_timeout = 0.5) ?(max_idle = 240)
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


  (* ---- coordinator ---- *)

  type cluster_outcome = {
    delivered : string list; (* from the cluster, exit order *)
    reference : string list; (* single-process run, same seed *)
    matched : bool; (* sorted multiset equality *)
    cluster_abort : string option;
    rejected_submissions : int list;
    recovery_rounds : int; (* stall-triggered §4.5 recovery sweeps *)
    failed_nodes : int list; (* servers presumed dead by round end *)
    recovery_seconds : float list;
        (* per-sweep repair time on the coordinator's clock: sweep start →
           next exit-batch arrival (pipeline resumption), chronological.
           Empty when no sweep ran or no clock was bound. *)
    node_snapshots : (int * string) list;
        (* (node_id, atom-metrics/1 JSON) collected over Stats_request just
           before shutdown; [] unless [collect_stats] was set. *)
  }

  type epoch_outcome = {
    ep_epoch : int;
    ep_sealed : Bulletin.sealed;
    ep_signature : string;
    ep_mixed : int; (* onion units mixed through the pipeline this epoch *)
    ep_latency_s : float; (* barrier (seal broadcast) → signed bulletin *)
  }

  type ingest_outcome = {
    ing_epochs : epoch_outcome list; (* ascending epoch order *)
    ing_abort : string option;
    ing_recovery_rounds : int;
    ing_failed_nodes : int list;
    ing_board : Bulletin.t; (* all sealed epochs, published under round = epoch *)
  }

  (* One coordinator loop for both flows (paper §4, Algorithm 2). It seals
     epochs with [Barrier {iter = e}], collects and verifies each sealed
     epoch's exit batches, and hands a complete epoch to the caller's
     endgame. A single round is a run whose one epoch is sealed at once;
     an ingest run seals one every [epoch_s] while clients keep submitting,
     so epoch e mixes while e+1 collects. Exit batches carry their
     absolute iteration, which keys them back to an epoch (iter / T).

     Failure detection is timeout-driven, per §4.5: [stall_strikes]
     consecutive empty receives trigger a recovery sweep — probe every
     presumed-live server with a cheap control send (a typed transport
     error is the death certificate), broadcast the updated failure set,
     re-send the coordinator's retained frames toward the replacements,
     and nudge the fleet to do the same ([Retransmit]). A partitioned
     server yields no send error; for that case the sweep's retransmission
     alone completes the run once the partition heals. Sweeps are bounded
     by [max_recovery_rounds] and the whole wait by [max_idle]. *)
  module Coord = struct
    let outbox_cap = 128 (* retained frames per logical destination *)
    let max_recovery_rounds = 32
    let max_epochs = 64 (* bounds a [keep_collecting] that never yields *)

    type schedule =
      | Once (* seal epoch 0 at once, then only collect *)
      | Every of { epoch_s : float; min_epochs : int; keep_collecting : unit -> bool }
          (* seal every [epoch_s]: at least [min_epochs], then one flush
             epoch once [keep_collecting] turns false — the caller stops
             its clients before flipping it, so the flush epoch drains
             anything admitted after the previous barrier *)

    (* The exit batches of one sealed epoch. *)
    type accum = {
      holdings : Pr.El.vec list array; (* per exit group, newest first *)
      seen : (int * int, unit) Hashtbl.t; (* (gid, batch_idx) *)
      mutable got : int;
      sealed_at : float;
    }

    type t = {
      t : T.t;
      net : Pr.network;
      pool : Atom_exec.Pool.t option;
      now : unit -> float;
      ph : Trace.Phase.tracker;
      failed : bool array; (* routing input; grows on send errors and sweeps *)
      outbox : Outbox.t;
      mutable newly_failed : int list; (* not yet announced with Failed *)
      mutable recoveries : int;
      (* Sweep start times awaiting a resumption mark: each is closed out
         by the next accepted exit batch, the first proof the pipeline is
         moving again. That delta is the §4.5 repair time the error budget
         histograms. *)
      mutable pending_sweeps : float list;
      mutable recovery_seconds : float list; (* newest first *)
      mutable abort : string option;
      m_recovery_rounds : Atom_obs.Metrics.counter;
      m_failed_nodes : Atom_obs.Metrics.counter;
      m_exit_dups : Atom_obs.Metrics.counter;
      m_recovery_s : Atom_obs.Metrics.histogram;
    }

    let create ~obs ?clock ?pool (t : T.t) (net : Pr.network) : t =
      (match clock with Some c -> Atom_obs.Ctx.bind_clock obs c | None -> ());
      let tr = Atom_obs.Ctx.tracer obs in
      let reg = Atom_obs.Ctx.metrics obs in
      Trace.thread_name tr ~tid:0 "event loop";
      {
        t;
        net;
        pool;
        (* Pacing and repair times ride on the caller's clock. Unbound,
           they read the tracer's, which the deterministic round harness
           leaves constant, so its repair times come out zero. *)
        now = (match clock with Some c -> c | None -> fun () -> Trace.now tr);
        ph = Trace.Phase.start tr ~tid:0 "send";
        failed = Array.make net.Pr.config.Config.n_servers false;
        outbox = Outbox.create ~cap:outbox_cap ();
        newly_failed = [];
        recoveries = 0;
        pending_sweeps = [];
        recovery_seconds = [];
        abort = None;
        m_recovery_rounds = Atom_obs.Metrics.counter reg "coord.recovery_rounds";
        m_failed_nodes = Atom_obs.Metrics.counter reg "coord.failed_nodes";
        m_exit_dups = Atom_obs.Metrics.counter reg "coord.exit_dups";
        m_recovery_s =
          Atom_obs.Metrics.histogram reg ~buckets:24 ~lo:0. ~hi:60. "coord.recovery_seconds";
      }

    let phase (c : t) (name : string) : unit = Trace.Phase.switch c.ph name

    let mark (c : t) (sid : int) : unit =
      if sid >= 0 && sid < Array.length c.failed && not c.failed.(sid) then begin
        c.failed.(sid) <- true;
        Atom_obs.Metrics.incr c.m_failed_nodes;
        c.newly_failed <- sid :: c.newly_failed;
        Atom_obs.Log.warn "coordinator: node %d presumed dead" sid
      end

    (* Routed send: a typed send error marks the target dead and retries
       toward its replacement (bounded by fleet size, as on the nodes). *)
    let rec send_raw (c : t) ~(dst : int) (frame : string) : unit =
      let target = resolve c.net c.failed dst in
      match T.send c.t ~dst:target frame with
      | Ok () -> ()
      | Error _ ->
          mark c target;
          if resolve c.net c.failed dst <> target then send_raw c ~dst frame

    (* Routed and retained, so a sweep can replay it to a replacement. *)
    let send (c : t) ~(dst : int) (frame : string) : unit =
      Outbox.note c.outbox ~dst frame;
      send_raw c ~dst frame

    let broadcast (c : t) (frame : string) : unit =
      Array.iteri (fun sid _ -> send c ~dst:sid frame) c.failed

    (* Neither routed nor retained: best effort to every presumed-live
       server. Dead peers are skipped rather than paid for — each send to
       one would burn the full bounded reconnect budget. *)
    let tell_live (c : t) (frame : string) : unit =
      Array.iteri (fun sid dead -> if not dead then ignore (T.send c.t ~dst:sid frame)) c.failed

    (* One recovery sweep: probe, publish deaths, retransmit. *)
    let sweep (c : t) : unit =
      phase c "recovery";
      c.recoveries <- c.recoveries + 1;
      c.pending_sweeps <- c.now () :: c.pending_sweeps;
      Atom_obs.Metrics.incr c.m_recovery_rounds;
      let probe = Ctrl.encode (Ctrl.Ack { token = 0xbeef }) in
      Array.iteri
        (fun sid dead ->
          if not dead then
            match T.send c.t ~dst:sid probe with Ok () -> () | Error _ -> mark c sid)
        c.failed;
      if c.newly_failed <> [] then begin
        let sids = Array.of_list c.newly_failed in
        c.newly_failed <- [];
        tell_live c (Ctrl.encode (Ctrl.Failed { sids }));
        (* Feed each replacement the frames its dead predecessor was sent. *)
        Array.iter (fun dead -> Outbox.iter_dst c.outbox ~dst:dead (send_raw c ~dst:dead)) sids
      end;
      tell_live c (Ctrl.encode Ctrl.Retransmit)

    let resumed (c : t) : unit =
      if c.pending_sweeps <> [] then begin
        let now = c.now () in
        List.iter
          (fun t0 ->
            let d = now -. t0 in
            c.recovery_seconds <- d :: c.recovery_seconds;
            Atom_obs.Metrics.observe c.m_recovery_s d)
          (List.rev c.pending_sweeps);
        c.pending_sweeps <- []
      end

    (* Ship the bring-up frames — the group assignment and key cross-checks
       to every member, then [entry gid]'s frames to the entry head — and
       drive epochs until every sealed epoch has been handed to [on_epoch]
       (with its exit holdings per group, in arrival order), the run
       aborts, or [max_idle] empty receives pass in a row. *)
    let drive (c : t) ~(recv_timeout : float) ~(max_idle : int) ~(stall_strikes : int)
        ~(entry : int -> string list) ~(schedule : schedule)
        ~(on_epoch : int -> sealed_at:float -> Pr.El.vec array array -> unit) : unit =
      let net = c.net in
      let n_groups = net.Pr.config.Config.n_groups in
      for gid = 0 to n_groups - 1 do
        let g = net.Pr.groups.(gid) in
        Array.iter
          (fun sid ->
            send c ~dst:sid (Ctrl.encode (Ctrl.Group_assign { gid; members = g.Pr.members }));
            send c ~dst:sid (C.encode (C.Group_key { gid; pk = Pr.group_pk net gid })))
          g.Pr.members;
        List.iter (send c ~dst:g.Pr.members.(0)) (entry gid)
      done;
      let quorum = Config.quorum net.Pr.config in
      let want = expected_exits net in
      let accums : (int, accum) Hashtbl.t = Hashtbl.create 8 in
      let sealed = ref 0 (* barriers broadcast: epochs 0..sealed-1 *) in
      let completed = ref 0 in
      let last_epoch = ref None in
      let t0 = c.now () in
      let due e =
        match schedule with
        | Once -> t0
        | Every { epoch_s; _ } -> t0 +. (float_of_int (e + 1) *. epoch_s)
      in
      let done_sealing () = match !last_epoch with Some e -> !sealed > e | None -> false in
      let seal now =
        phase c "send";
        let e = !sealed in
        Hashtbl.replace accums e
          { holdings = Array.make n_groups []; seen = Hashtbl.create 16; got = 0; sealed_at = now };
        broadcast c (Ctrl.encode (Ctrl.Barrier { iter = e }));
        sealed := e + 1;
        if !last_epoch = None then
          match schedule with
          | Once -> last_epoch := Some e
          | Every { min_epochs; keep_collecting; _ } ->
              if e + 1 >= max_epochs then last_epoch := Some e
              else if e + 1 >= min_epochs && not (keep_collecting ()) then
                last_epoch := Some (e + 1)
      in
      (* Bounds first: an exit batch is held only for a sealed epoch, from
         a real exit group on the last layer, at a real fan-out index, and
         once. Anything else counts as a duplicate and changes nothing. *)
      let on_exit ~gid ~iter ~batch_idx ~input ~output ~proofs =
        let epoch = iter / iterations net in
        let accum =
          if
            gid < 0 || gid >= n_groups || iter < 0
            || (not (last_layer net iter))
            || batch_idx < 0
            || batch_idx >= Array.length (neighbors net ~iter ~gid)
          then None
          else Hashtbl.find_opt accums epoch
        in
        match accum with
        | Some a when not (Hashtbl.mem a.seen (gid, batch_idx)) ->
            phase c "verify";
            resumed c;
            let ok =
              net.Pr.config.Config.variant <> Config.Nizk
              || verify_hop ?pool:c.pool ~eff_pk:(eff_pk net gid quorum) ~next_pk:None
                   ~context:(iter_ctx net gid iter) ~input ~output proofs
            in
            if not ok then
              c.abort <- Some (Printf.sprintf "exit proofs rejected gid=%d epoch=%d" gid epoch)
            else begin
              Hashtbl.add a.seen (gid, batch_idx) ();
              Array.iter (fun v -> a.holdings.(gid) <- v :: a.holdings.(gid)) output;
              a.got <- a.got + 1;
              if a.got = want then begin
                phase c "decrypt";
                incr completed;
                let holdings = Array.map (fun l -> Array.of_list (List.rev l)) a.holdings in
                (* The seen table stays, so stragglers keep counting as
                   duplicates; the units are the caller's now. *)
                Array.fill a.holdings 0 n_groups [];
                on_epoch epoch ~sealed_at:a.sealed_at holdings
              end
            end
        | _ -> Atom_obs.Metrics.incr c.m_exit_dups
      in
      let finished () = done_sealing () && !completed >= !sealed in
      let idle = ref 0 in
      let strikes = ref 0 in
      while (not (finished ())) && c.abort = None && !idle < max_idle do
        let now = c.now () in
        if (not (done_sealing ())) && now >= due !sealed then seal now
        else begin
          phase c "recv-wait";
          let timeout =
            if done_sealing () then recv_timeout
            else Float.min recv_timeout (Float.max 0.01 (due !sealed -. now))
          in
          match T.recv c.t ~timeout with
          | Error Transport.Closed -> c.abort <- Some "coordinator transport closed"
          | Error _ ->
              incr idle;
              incr strikes;
              if !strikes >= stall_strikes && c.recoveries < max_recovery_rounds then begin
                strikes := 0;
                sweep c
              end
          | Ok (_src, frame) -> (
              idle := 0;
              strikes := 0;
              match C.decode ?pool:c.pool ~policy:Atom_wire.Validation.Batched frame with
              | Some (C.Msg (C.Exit_batch { gid; iter; batch_idx; input; output; proofs })) ->
                  on_exit ~gid ~iter ~batch_idx ~input ~output ~proofs
              | Some _ -> ()
              | None -> (
                  match Ctrl.decode frame with
                  | Some (Ctrl.Abort { detail; _ }) -> c.abort <- Some detail
                  | Some (Ctrl.Failed { sids }) ->
                      (* A node saw a peer die before we did: adopt its
                         view and sweep now rather than waiting for a
                         stall. *)
                      Array.iter (mark c) sids;
                      if c.newly_failed <> [] && c.recoveries < max_recovery_rounds then sweep c
                  | _ -> ()))
        end
      done;
      if c.abort = None && not (finished ()) then begin
        let got = Hashtbl.fold (fun _ a acc -> acc + a.got) accums 0 in
        c.abort <-
          Some (Printf.sprintf "timed out with %d/%d exit batches" got (want * max 1 !sealed))
      end

    (* Stats harvest, while the fleet is still alive (Shutdown would race
       the replies): ask every presumed-live node for its atom-metrics/1
       snapshot; chaos can eat a request, so laggards get re-asked. *)
    let harvest (c : t) ~(recv_timeout : float) : (int * string) list =
      phase c "recv-wait";
      let n_servers = Array.length c.failed in
      let live = List.filter (fun sid -> not c.failed.(sid)) (List.init n_servers Fun.id) in
      let req = Ctrl.encode (Ctrl.Stats_request { token = 1 }) in
      List.iter (fun sid -> ignore (T.send c.t ~dst:sid req)) live;
      let got : (int, string) Hashtbl.t = Hashtbl.create 16 in
      let polls = ref 0 in
      let empties = ref 0 in
      let max_polls = max 16 (4 * n_servers) in
      while Hashtbl.length got < List.length live && !polls < max_polls do
        incr polls;
        match T.recv c.t ~timeout:recv_timeout with
        | Ok (_src, frame) -> (
            match Ctrl.decode frame with
            | Some (Ctrl.Stats_reply { node_id; snapshot; _ }) ->
                Hashtbl.replace got node_id snapshot
            | _ -> ())
        | Error Transport.Closed -> polls := max_polls
        | Error _ ->
            incr empties;
            if !empties mod 4 = 0 then
              List.iter
                (fun sid -> if not (Hashtbl.mem got sid) then ignore (T.send c.t ~dst:sid req))
                live
      done;
      List.filter_map (fun sid -> Option.map (fun s -> (sid, s)) (Hashtbl.find_opt got sid)) live

    (* Shut the fleet down and close the lane; returns the servers presumed
       dead. *)
    let finish (c : t) : int list =
      phase c "send";
      tell_live c (Ctrl.encode Ctrl.Shutdown);
      Trace.Phase.stop c.ph;
      List.filter (fun sid -> c.failed.(sid)) (List.init (Array.length c.failed) Fun.id)
  end

  let plaintexts (exits : Pr.exit_unit list) : string list =
    List.filter_map
      (fun u ->
        if u.Pr.tag = Pr.Msg.tag_message then Some (Pr.Msg.unpad_plaintext u.Pr.payload) else None)
      exits

  (* Drive a full round over [t]: ship submissions to entry heads, seal
     epoch 0, collect and verify its exit batches, run the variant endgame,
     and compare against the in-process reference execution. *)
  let run_coordinator ?(obs = Atom_obs.Ctx.noop) ?clock ?pool (t : T.t)
      ~(config : Config.t) ~(users : int) ?(recv_timeout = 0.25) ?(max_idle = 240)
      ?(stall_strikes = 8) ?(collect_stats = false) () : cluster_outcome =
    let rng = Atom_util.Rng.create config.Config.seed in
    let net = Pr.setup rng config () in
    let c = Coord.create ~obs ?clock ?pool t net in
    let n_groups = config.Config.n_groups in
    let msgs = List.init users (fun i -> Printf.sprintf "anonymous message #%d" i) in
    let subs =
      List.mapi (fun i m -> Pr.submit rng net ~user:i ~entry_gid:(i mod n_groups) m) msgs
    in
    (* The reference execution: same seed, same submissions, one process. *)
    let reference = Pr.run rng net subs in
    (* Entry accounting mirrors [Pr.run]: the heads verify on their side;
       the coordinator's own pass supplies reject lists and commitments. *)
    let seen = Hashtbl.create 256 in
    let accepted, rejected = List.partition (Pr.verify_submission net seen) subs in
    let commitments : (int, string list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun s ->
        match s.Pr.commitment with
        | Some cm ->
            Hashtbl.replace commitments s.Pr.entry_gid
              (cm :: Option.value ~default:[] (Hashtbl.find_opt commitments s.Pr.entry_gid))
        | None -> ())
      accepted;
    let delivered = ref [] in
    (* Variant endgame over the assembled holdings, as in [Pr.run]. *)
    let endgame _epoch ~sealed_at:_ holdings =
      let exits = Pr.decode_exit net holdings in
      (match config.Config.variant with
      | Config.Basic | Config.Nizk -> delivered := plaintexts exits
      | Config.Trap -> (
          match Pr.trap_checks net ~commitments exits with
          | Some _, _ -> c.Coord.abort <- Some "trap checks failed"
          | None, inner_payloads ->
              delivered := List.map Pr.Msg.unpad_plaintext (Pr.open_inners net inner_payloads)));
      Coord.phase c "send";
      Coord.tell_live c
        (Ctrl.encode (Ctrl.Published { plaintexts = Array.of_list !delivered }))
    in
    Coord.drive c ~recv_timeout ~max_idle ~stall_strikes ~schedule:Coord.Once
      ~entry:(fun gid ->
        [ Pr.Wire.submissions_to_frame ~gid (List.filter (fun s -> s.Pr.entry_gid = gid) subs) ])
      ~on_epoch:endgame;
    (* Only the trace-merging launcher pays for the harvest. *)
    let node_snapshots = if collect_stats then Coord.harvest c ~recv_timeout else [] in
    let failed_nodes = Coord.finish c in
    let cluster_abort = c.Coord.abort in
    {
      delivered = !delivered;
      reference = reference.Pr.delivered;
      matched =
        cluster_abort = None
        && reference.Pr.aborted = None
        && List.sort compare !delivered = List.sort compare reference.Pr.delivered;
      cluster_abort;
      rejected_submissions = List.map (fun s -> s.Pr.user) rejected;
      recovery_rounds = c.Coord.recoveries;
      failed_nodes;
      recovery_seconds = List.rev c.Coord.recovery_seconds;
      node_snapshots;
    }

  (* Drive pipelined epochs over client submissions: nodes collect
     continuously (they run with [?ingest]) and every [epoch_s] a barrier
     seals the collecting epoch. A completed epoch is decoded,
     canonicalized, signed, published locally and announced to the fleet
     (entry heads fan the announcement out to their clients). Trap-variant
     endgames need per-round trap commitments the submission plane doesn't
     carry, so only Basic/Nizk are accepted. *)
  let run_ingest_coordinator ?(obs = Atom_obs.Ctx.noop) ~(clock : unit -> float) ?pool
      (t : T.t) ~(config : Config.t) ?(recv_timeout = 0.25) ?(max_idle = 240)
      ?(stall_strikes = 8) ~(epoch_s : float) ~(min_epochs : int)
      ?(keep_collecting = fun () -> false) () : ingest_outcome =
    if config.Config.variant = Config.Trap then
      invalid_arg "run_ingest_coordinator: Trap endgame needs per-round commitments";
    let net = Pr.setup (Atom_util.Rng.create config.Config.seed) config () in
    let c = Coord.create ~obs ~clock ?pool t net in
    let bulletin_sk, _ = bulletin_keypair config in
    let reg = Atom_obs.Ctx.metrics obs in
    let m_epochs = Atom_obs.Metrics.counter reg "coord.epochs_published" in
    let m_epoch_s =
      Atom_obs.Metrics.histogram reg ~buckets:24 ~lo:0. ~hi:120. "coord.epoch_seconds"
    in
    let board = Bulletin.create () in
    let epochs = ref [] in
    let publish epoch ~sealed_at holdings =
      let mixed = Array.fold_left (fun acc h -> acc + Array.length h) 0 holdings in
      let sb = Bulletin.seal ~epoch (plaintexts (Pr.decode_exit net holdings)) in
      let signature = BSign.sign_sealed ~sk:bulletin_sk sb in
      Bulletin.publish_sealed board sb;
      let latency = Float.max 0. (clock () -. sealed_at) in
      Atom_obs.Metrics.incr m_epochs;
      Atom_obs.Metrics.observe m_epoch_s latency;
      Atom_obs.Log.info "ingest coordinator: epoch %d published (%d posts, %d units, %.3fs)"
        epoch (Array.length sb.Bulletin.posts) mixed latency;
      epochs :=
        { ep_epoch = epoch; ep_sealed = sb; ep_signature = signature; ep_mixed = mixed;
          ep_latency_s = latency }
        :: !epochs;
      Coord.phase c "send";
      Coord.broadcast c
        (Ctrl.encode
           (Ctrl.Bulletin_announce
              { epoch; digest = sb.Bulletin.digest; signature; posts = sb.Bulletin.posts }))
    in
    Coord.drive c ~recv_timeout ~max_idle ~stall_strikes
      ~schedule:(Coord.Every { epoch_s; min_epochs; keep_collecting })
      ~entry:(fun _ -> [])
      ~on_epoch:publish;
    let failed_nodes = Coord.finish c in
    {
      ing_epochs = List.sort (fun a b -> compare a.ep_epoch b.ep_epoch) !epochs;
      ing_abort = c.Coord.abort;
      ing_recovery_rounds = c.Coord.recoveries;
      ing_failed_nodes = failed_nodes;
      ing_board = board;
    }
end
