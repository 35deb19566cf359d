(* The coordinator side of the node runtime: the loop that seals epochs,
   collects and verifies exit batches and sweeps for §4.5 recovery, and
   the two entry points built on it — a single checked round and
   pipelined ingest epochs. *)

open Atom_core

module Make (G : Atom_group.Group_intf.GROUP) (T : Transport.S) = struct
  open Node_shared.Make (G)

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
      (* Bounds first ([in_range]): an exit batch is held only for a sealed
         epoch, from a real exit group on the last layer, at a real fan-out
         index, and once. Anything else counts as a duplicate and changes
         nothing. *)
      let on_exit msg ~gid ~iter ~batch_idx ~input ~output ~proofs =
        let epoch = iter / iterations net in
        match if in_range net msg then Hashtbl.find_opt accums epoch else None with
        | Some a when not (Hashtbl.mem a.seen (gid, batch_idx)) ->
            phase c "verify";
            resumed c;
            if
              not
                (verify_reenc ?pool:c.pool net ~gid ~iter ~pos:quorum ~next_pk:None ~input
                   ~output proofs)
            then
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
              | Some (C.Msg (C.Exit_batch { gid; iter; batch_idx; input; output; proofs } as msg))
                ->
                  on_exit msg ~gid ~iter ~batch_idx ~input ~output ~proofs
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
