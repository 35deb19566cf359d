(* What every process of the node runtime derives alike, nodes and
   coordinator: the pipeline's shape and keys, the proof checks a
   receiver runs, §4.5 failure routing, the retained-frame ring and the
   bulletin keys. Nothing here touches a transport; [Node.Make] is the
   entry point that puts these pieces together. *)

open Atom_core

(* The compute a pipeline step is charged for, per unit of its input:
   entry verification of the submissions' EncProofs, a shuffle step, a
   ReEnc step. Over the simulator each is priced in virtual time; over
   TCP the charge does nothing. *)
type step_cost = Verify | Shuffle | Reenc

module Make (G : Atom_group.Group_intf.GROUP) = struct
  module Pr = Protocol.Make (G)
  module C = Atom_wire.Codec.Make (G) (Atom_elgamal.Elgamal.Make (G))
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

  (* The key batch [batch_idx] of (gid, iter) is re-encrypted toward: the
     receiving group's, or none at the exit layer. *)
  let next_pk (net : Pr.network) ~(gid : int) ~(iter : int) ~(batch_idx : int) : G.t option =
    if last_layer net iter then None
    else Some (Pr.group_pk net (neighbors net ~iter ~gid).(batch_idx))

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

  let is_group (net : Pr.network) (gid : int) : bool = gid >= 0 && gid < Array.length net.Pr.groups

  (* The indices senders produce: a gid names a group, a step a pipeline
     position (shuffle 2..q+1, ReEnc 2..q), a batch index the fan-out of
     its (gid, iter), a Batch an edge of the topology and an Exit_batch a
     batch of the last layer. Anything else would index past the key
     material or the topology, so it is dropped like any other malformed
     frame. *)
  let in_range (net : Pr.network) (msg : C.msg) : bool =
    let group = is_group net in
    let fan_out gid iter b = b >= 0 && b < Array.length (neighbors net ~iter ~gid) in
    let quorum = Config.quorum net.Pr.config in
    match msg with
    | C.Group_key _ -> true
    | C.Shuffle_step { gid; iter; step; _ } ->
        group gid && iter >= 0 && step >= 2 && step <= quorum + 1
    | C.Reenc_step { gid; iter; batch_idx; step; _ } ->
        group gid && iter >= 0 && step >= 2 && step <= quorum && fan_out gid iter batch_idx
    | C.Batch { gid; iter; src_gid; _ } ->
        group gid && group src_gid && iter >= 1
        && Array.mem gid (neighbors net ~iter:(iter - 1) ~gid:src_gid)
    | C.Exit_batch { gid; iter; batch_idx; _ } ->
        group gid && iter >= 0 && last_layer net iter && fan_out gid iter batch_idx

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

  (* The check on the ReEnc step that produced a frame, run by whoever
     receives it — the next member, the next layer's head, the
     coordinator: under NIZK, the proofs of position [pos] of
     (gid, iter), re-encrypting toward [next_pk], must verify. *)
  let verify_reenc ?pool (net : Pr.network) ~(gid : int) ~(iter : int) ~(pos : int)
      ~(next_pk : G.t option) ~(input : Pr.El.vec array) ~(output : Pr.El.vec array)
      (proofs : string array) : bool =
    net.Pr.config.Config.variant <> Config.Nizk
    || verify_hop ?pool ~eff_pk:(eff_pk net gid pos) ~next_pk ~context:(iter_ctx net gid iter)
         ~input ~output proofs

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

  (* ---- bulletin keys ---- *)

  module BSign = Bulletin.Signer (G)

  (* Seed-derived bulletin signing key: every process recomputes the same
     keypair from the shared config seed, mirroring the stand-in DKG. *)
  let bulletin_keypair (config : Config.t) : BSign.sk * BSign.pk =
    BSign.keypair ~seed:config.Config.seed
end
