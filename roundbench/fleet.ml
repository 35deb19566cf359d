(* The system under test: [Atom_rpc.Node.Make] event loops on threads of
   this process, one per server, talking over loopback TCP, with the
   coordinator on the calling thread.

   All loops share one OCaml domain, so a round's wall time is the whole
   fleet's work on one core plus waits — not the critical path of a
   multi-machine deployment. Crypto batches fan out over the shared
   domain pool the caller passes in.

   A fleet lives for one round (or one ingest session). Bring-up is part
   of the measured set-up: endpoints, the full mesh, node threads, and a
   readiness probe that each node answers only once it has derived its
   key material and entered its event loop. The measurement window opens
   at the coordinator's first send, which [Timed_transport] timestamps;
   everything the coordinator does before it (its own Protocol.setup,
   the onions, and for rounds the single-process reference execution) is
   the pre-round part of set-up. *)

open Atom_core
module Tw = Timed_transport
module Tcp = Atom_rpc.Tcp_transport
module Ctrl = Atom_wire.Control
module Frame = Atom_wire.Frame
module Ctx = Atom_obs.Ctx
module Metrics = Atom_obs.Metrics
module Trace = Atom_obs.Trace

let cpu_now () : float =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* State of the process when a measurement window opens. *)
type mark = {
  m_t : float;
  m_cpu : float;
  m_gc : Gc.stat;
  m_group : (Timed_group.op * Timed_group.tally) list;
  m_pool : (string * float) list; (* the pool's busy time and counters *)
}

let pool_counters = [ "exec.pool.jobs"; "exec.pool.chunks"; "exec.pool.minor_words" ]

let mark ~(pool_obs : Ctx.t) () : mark =
  let reg = Ctx.metrics pool_obs in
  {
    m_t = Tw.now ();
    m_cpu = cpu_now ();
    m_gc = Gc.quick_stat ();
    m_group = Timed_group.snapshot ();
    m_pool =
      ("exec.pool.busy_s", Ladder.hist_sum reg "exec.pool.worker_busy_seconds")
      :: List.map (fun name -> (name, Metrics.counter_value reg name)) pool_counters;
  }

(* One round on a fresh fleet. Durations are in reference seconds (see
   [Speed]), except [r_wall_s]. *)
type round = {
  r_ok : bool;
  r_why : string;
  r_setup_s : float;
  r_pre_round_s : float;
  r_round_s : float;
  r_wall_s : float; (* [r_round_s] as measured *)
  r_speed : float; (* [Speed.factor] around the round window *)
  r_cpu_s : float;
  r_msgs : int;
  r_onion_s : float; (* per onion, bench-built; nan when not measured *)
  r_admit_s : float; (* per submission, bench-admitted; nan when not measured *)
  r_layer : (string * float) list; (* traced rounds only, as measured *)
  r_lanes : Trace.lane list;
}

(* One ingest session on a fresh fleet. Durations are in reference
   seconds, except the open-loop latencies, which wait mostly on the epoch
   schedule and are as measured ([i_bulletins], [i_late]). *)
type ingest = {
  i_ok : bool;
  i_why : string;
  i_setup_s : float;
  i_offered : int;
  i_failed : int;
  i_window_s : float; (* as measured *)
  i_speed : float; (* mean [Speed.factor] over the session's readings *)
  i_cpu_s : float;
  i_acks : float list; (* due → accepted Submit_ack, per accepted submission, by due time *)
  i_bulletins : float list; (* due → signed bulletin carrying the post, by due time *)
  i_late : float list; (* generator lateness per submission *)
  i_epochs : (int * float) list; (* (posts, seal → publish) per published epoch *)
  i_onion_s : float;
  i_layer : (string * float) list; (* traced sessions only, as measured *)
  i_lanes : Trace.lane list;
}

let open_policy =
  {
    Atom_ingest.Admission.default_policy with
    Atom_ingest.Admission.rate = 1e9;
    burst = 1e9;
    pow_bits = 0;
  }

module Make (G : Atom_group.Group_intf.GROUP) = struct
  module N = Atom_rpc.Node.Make (G) (Tw.Check)
  module Pr = N.Pr
  module C = N.C

  type fleet = {
    n : int; (* servers; the coordinator is endpoint [n] *)
    ts : Tw.t array;
    obs : Ctx.t array;
    threads : Thread.t list;
  }

  let host = "127.0.0.1"

  (* Endpoints, full mesh, node threads; returns once every node has
     answered the readiness probe. *)
  let bring_up ~traced ?pool ?ingest (config : Config.t) : fleet =
    let n = config.Config.n_servers in
    let obs =
      Array.init (n + 1) (fun _ -> if traced then Ctx.create ~tracing:true () else Ctx.noop)
    in
    let ts =
      Array.init (n + 1) (fun id ->
          Tw.wrap ~capture:traced (Tcp.create ~obs:obs.(id) ~host ~node_id:id ()))
    in
    Array.iteri
      (fun i a ->
        Array.iteri
          (fun j b ->
            if i <> j then Tcp.add_peer a.Tw.inner ~node_id:j ~host ~port:(Tcp.port b.Tw.inner))
          ts)
      ts;
    (* The runtime registers a client's return path on every Submit;
       re-adding a known peer would drop its pooled connection, so only a
       new client (or a new port) is added. *)
    let register sid =
      let known = Hashtbl.create 8 in
      fun ~client ~port ->
        if Hashtbl.find_opt known client <> Some port then begin
          Hashtbl.replace known client port;
          Tcp.add_peer ts.(sid).Tw.inner ~node_id:client ~host ~port
        end
    in
    let threads =
      List.init n (fun sid ->
          Thread.create
            (fun () ->
              N.run_node ~obs:obs.(sid) ~clock:Tw.now ?pool ts.(sid) ~config ~node_id:sid
                ~coord:n ~recv_timeout:1.0 ~max_idle:120 ?ingest ~register_client:(register sid)
                ())
            ())
    in
    (* The probe goes around the coordinator's recorder, so the
       coordinator's first recorded send is its own. *)
    let c = ts.(n).Tw.inner in
    for sid = 0 to n - 1 do
      ignore (Tcp.send c ~dst:sid (Ctrl.encode (Ctrl.Stats_request { token = sid })))
    done;
    let ready = Array.make n false in
    let deadline = Tw.now () +. 120. in
    while Array.exists not ready && Tw.now () < deadline do
      match Tcp.recv c ~timeout:1.0 with
      | Ok (_, frame) -> (
          match Ctrl.decode frame with
          | Some (Ctrl.Stats_reply { node_id; _ }) when node_id >= 0 && node_id < n ->
              ready.(node_id) <- true
          | _ -> ())
      | Error _ -> ()
    done;
    if Array.exists not ready then failwith "fleet bring-up: a node never answered the probe";
    { n; ts; obs; threads }

  let tear_down (f : fleet) : unit =
    List.iter Thread.join f.threads;
    Array.iter Tw.close f.ts

  (* At the coordinator's first send, with the nodes idle in [recv]
     waiting for exactly this send: optionally a host-speed reading, then
     every recorder starts its window and the process state is marked. *)
  let arm (f : fleet) ~pool_obs ~(probe : bool) (at : (float * mark) option ref) : unit =
    f.ts.(f.n).Tw.on_first_send <-
      (fun () ->
        let k = if probe then Speed.probe () else nan in
        Array.iter Tw.reset f.ts;
        at := Some (k, mark ~pool_obs ()))

  let lanes (f : fleet) : Trace.lane list =
    List.init (f.n + 1) (fun i ->
        {
          Trace.lane_pid = i + 1;
          lane_name = (if i = f.n then "coordinator" else Printf.sprintf "node %d" i);
          lane_offset = 0.;
          lane_events = Trace.events (Ctx.tracer f.obs.(i));
        })

  (* ---- wire replay ----

     Every frame the fleet sent inside the window, decoded again the way
     its receiver decodes it (data plane: structural parse, then the
     pooled membership discharge; control plane: strict decode) and
     re-encoded. The re-encoding must reproduce the frame byte for byte. *)

  let data_kinds = [ "shuffle_step"; "reenc_step"; "batch"; "exit_batch" ]

  let replay ?pool (frames : string list) : (string * float) list * bool =
    let counts = Hashtbl.create 8 and bytes = Hashtbl.create 8 in
    let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
    let dec = ref 0. and enc = ref 0. and faithful = ref true in
    List.iter
      (fun frame ->
        let kind = Option.value ~default:(-1) (Frame.kind_of frame) in
        let name = Frame.kind_name kind in
        let label = if List.mem name data_kinds then name else "control" in
        bump counts label 1.;
        bump bytes label (float_of_int (String.length frame));
        let roundtrip decode encode =
          let t0 = Tw.now () in
          let msg = decode frame in
          let t1 = Tw.now () in
          dec := !dec +. (t1 -. t0);
          match msg with
          | Some m ->
              let again = encode m in
              enc := !enc +. (Tw.now () -. t1);
              again = frame
          | None -> false
        in
        let reproduced =
          if kind >= Frame.kind_group_key && kind <= Frame.kind_exit_batch then
            roundtrip
              (fun fr ->
                match C.decode ~policy:Atom_wire.Validation.Deferred fr with
                | Some (C.Unchecked d) -> Result.to_option (C.discharge ?pool d)
                | Some (C.Msg m) -> Some m
                | None -> None)
              C.encode
          else roundtrip Ctrl.decode Ctrl.encode
        in
        if not reproduced then faithful := false)
      frames;
    let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
    ( List.concat_map
        (fun k -> [ ("wire.frames." ^ k, get counts k); ("wire.bytes." ^ k, get bytes k) ])
        (data_kinds @ [ "control" ])
      @ [ ("wire.decode_s", !dec); ("wire.encode_s", !enc) ],
      !faithful )

  (* ---- the per-layer ladder of one traced window ----

     Raw totals over the window [w0, w1]; the caller divides by the
     rounds (or epochs) it covered. [msgs] normalizes the per-message
     ratios. *)
  let ladder ?pool (f : fleet) ~(w0 : mark) ~(w1 : mark) ~(msgs : int)
      ~(pre_round_s : float) : (string * float) list * bool =
    let t0 = w0.m_t and t1 = w1.m_t in
    let nodes = List.init f.n Fun.id in
    let node_events = List.concat_map (fun i -> Trace.events (Ctx.tracer f.obs.(i))) nodes in
    let coord_events = Trace.events (Ctx.tracer f.obs.(f.n)) in
    let nph = Ladder.phase_totals ~w0:t0 ~w1:t1 node_events in
    let cph = Ladder.phase_totals ~w0:t0 ~w1:t1 coord_events in
    let regs = Array.to_list (Array.map Ctx.metrics f.obs) in
    let node_regs = List.map (fun i -> Ctx.metrics f.obs.(i)) nodes in
    let coord_reg = [ Ctx.metrics f.obs.(f.n) ] in
    let recs = Array.to_list (Array.map (fun t -> t.Tw.r) f.ts) in
    let per_msg v = v /. float_of_int (max 1 msgs) in
    let group = Timed_group.diff w1.m_group w0.m_group in
    let group_s = List.fold_left (fun acc (_, t) -> acc +. t.Timed_group.t_s) 0. group in
    let tally op = List.assoc op group in
    let seconds ops = List.fold_left (fun acc op -> acc +. (tally op).Timed_group.t_s) 0. ops in
    (* Times are reported for the two families rather than per op: a
       workload that never calls an op would report a constant zero. *)
    let group_metrics =
      List.map
        (fun (op, t) ->
          (Printf.sprintf "group.%s.calls" (Timed_group.name op), float_of_int t.Timed_group.t_calls))
        group
      @ [
          ("group.exp.s", seconds Timed_group.[ Pow; Pow_gen; Pow2 ]);
          ("group.multi.s", seconds Timed_group.[ Msm; Pow_batch; Pow_gen_batch ]);
          ("group.msm.terms", float_of_int (tally Timed_group.Msm).Timed_group.t_items);
          ( "group.batch.scalars",
            float_of_int
              ((tally Timed_group.Pow_batch).Timed_group.t_items
              + (tally Timed_group.Pow_gen_batch).Timed_group.t_items) );
          ("group.s_per_msg", per_msg group_s);
        ]
    in
    let steps =
      List.concat_map
        (fun name ->
          let n, s = Ladder.step_totals ~w0:t0 ~w1:t1 node_events name in
          [ (Printf.sprintf "step.%s.count" name, float_of_int n); (Printf.sprintf "step.%s.s" name, s) ])
        Ladder.step_names
    in
    let frames = List.concat_map (fun r -> r.Tw.frames) recs in
    let wire, faithful = replay ?pool frames in
    let wire_bytes = List.fold_left (fun acc fr -> acc +. float_of_int (String.length fr)) 0. frames in
    let pool_delta = List.map2 (fun (name, a) (_, b) -> (name, a -. b)) w1.m_pool w0.m_pool in
    let gc_minor = w1.m_gc.Gc.minor_words -. w0.m_gc.Gc.minor_words in
    let gc_promoted = w1.m_gc.Gc.promoted_words -. w0.m_gc.Gc.promoted_words in
    let busy = Ladder.busy_union ~w0:t0 ~w1:t1 (node_events @ coord_events) in
    let sum_rec f = List.fold_left (fun acc r -> acc +. f r) 0. recs in
    ( group_metrics
      @ [
          ("node.shuffle_s", Ladder.get nph "shuffle");
          ("node.reenc_s", Ladder.get nph "reenc");
          ("node.verify_s", Ladder.get nph "verify");
          ("node.send_s", Ladder.get nph "send");
          ("node.recv_wait_s", Ladder.get nph "recv-wait");
          ("node.barrier_s", Ladder.get nph "barrier");
          ("node.entry_s", sum_rec (fun r -> r.Tw.entry_s));
          ("node.steps", Ladder.counter_sum node_regs "node.steps");
        ]
      @ steps
      @ [
          ("coord.pre_round_s", pre_round_s);
          ("coord.verify_s", Ladder.get cph "verify");
          ("coord.decrypt_s", Ladder.get cph "decrypt");
          ("coord.recv_wait_s", Ladder.get cph "recv-wait");
          ("coord.send_s", Ladder.get cph "send");
          ("coord.exit_dups", Ladder.counter_sum coord_reg "coord.exit_dups");
          ("coord.recovery_rounds", Ladder.counter_sum coord_reg "coord.recovery_rounds");
          ("node.resends", Ladder.counter_sum node_regs "node.resends");
          ("node.dups_dropped", Ladder.counter_sum node_regs "node.dups_dropped");
          ("node.bad_frames", Ladder.counter_sum node_regs "node.bad_frames");
          ("rpc.sends", Ladder.counter_sum regs "rpc.sends");
          ("rpc.bytes_out", Ladder.counter_sum regs "rpc.bytes_out");
          ("rpc.send_s", sum_rec (fun r -> r.Tw.send_s));
          ("rpc.recv_wait_s", sum_rec (fun r -> r.Tw.recv_wait_s));
          ("rpc.accepts", Ladder.counter_sum regs "rpc.accepts");
          ("rpc.reconnects", Ladder.counter_sum regs "rpc.reconnects");
          ("rpc.inbox_drops", Ladder.counter_sum regs "rpc.inbox_drops");
        ]
      @ wire
      @ (("wire.bytes_per_msg", per_msg wire_bytes) :: pool_delta)
      @ [
          ("ingest.admitted", Ladder.counter_sum node_regs "ingest.admitted");
          ("ingest.accepted", Ladder.counter_sum node_regs "ingest.accepted");
          ("ingest.rejected", Ladder.counter_sum node_regs "ingest.rejected");
          ("ingest.backpressure", Ladder.counter_sum node_regs "ingest.backpressure");
          ("ingest.dedup_hits", Ladder.counter_sum node_regs "ingest.dedup_hits");
          ("gc.minor_words_per_msg", per_msg gc_minor);
          ("gc.promoted_words_per_msg", per_msg gc_promoted);
          ( "gc.major_collections",
            float_of_int (w1.m_gc.Gc.major_collections - w0.m_gc.Gc.major_collections) );
          ("ladder.busy_s", busy);
        ],
      faithful )

  (* ---- a round ---- *)

  let message i = Printf.sprintf "anonymous message #%d" i

  (* The onions [run_coordinator] builds for this config, built again by
     the bench on the same RNG stream, then admitted the way an entry head
     admits them: decode, EncProof check, duplicate check. Returns the
     client's cost per onion and the head's per submission in reference
     seconds (None if a submission was refused), and the last host-speed
     reading. In the fleet the heads verify side by side on the shared
     domain, interleaved with mixing, so their own handler times say
     little about admission. *)
  let client_costs (config : Config.t) ~(users : int) : (float * float) option * float =
    let rng = Atom_util.Rng.create config.Config.seed in
    let net = Pr.setup rng config () in
    let m = Speed.meter () in
    let blobs =
      List.init users (fun i ->
          let blob =
            Pr.Wire.submission_to_bytes
              (Pr.submit rng net ~user:i ~entry_gid:(i mod config.Config.n_groups) (message i))
          in
          Speed.step m;
          blob)
    in
    let onion_s = Speed.take m in
    let seen = Hashtbl.create 64 in
    let admitted =
      List.for_all
        (fun blob ->
          let ok =
            match Pr.Wire.submission_of_bytes blob with
            | Some s -> Pr.verify_submission net seen s
            | None -> false
          in
          Speed.step m;
          ok)
        blobs
    in
    let admit_s = Speed.take m in
    let per d = d /. float_of_int users in
    ((if admitted then Some (per onion_s, per admit_s) else None), Speed.last m)

  let run_round ~traced ?pool ~(pool_obs : Ctx.t) (config : Config.t) ~(users : int) : round =
    let costs, k_onion =
      if traced then (Some (nan, nan), Speed.probe ()) else client_costs config ~users
    in
    let t0 = Tw.now () in
    let f = bring_up ~traced ?pool config in
    let t_ready = Tw.now () in
    let at = ref None in
    arm f ~pool_obs ~probe:true at;
    let coord = f.ts.(f.n) in
    let t_call = Tw.now () in
    let outcome =
      N.run_coordinator ~obs:f.obs.(f.n) ~clock:Tw.now ?pool coord ~config ~users
        ~recv_timeout:1.0 ~max_idle:240 ()
    in
    let w1 = mark ~pool_obs () in
    tear_down f;
    let k1 = Speed.probe () in
    let first = coord.Tw.r.Tw.first_send in
    let k_mid, w0 = match !at with Some km -> km | None -> (k1, w1) in
    let pre_round_s = coord.Tw.r.Tw.first_call -. t_call in
    let ok_round = outcome.N.matched && outcome.N.cluster_abort = None && costs <> None in
    let layer, faithful =
      if traced then ladder ?pool f ~w0 ~w1 ~msgs:users ~pre_round_s else ([], true)
    in
    let why =
      match outcome.N.cluster_abort with
      | Some a -> a
      | None ->
          if costs = None then "an honest submission was refused"
          else if not outcome.N.matched then "output differs from the single-process reference"
          else if not faithful then "wire replay did not reproduce a frame"
          else ""
    in
    let speed = Speed.factor k_mid k1 and setup_speed = Speed.factor k_onion k_mid in
    let onion_s, admit_s = Option.value ~default:(nan, nan) costs in
    {
      r_ok = ok_round && faithful;
      r_why = why;
      r_setup_s = (t_ready -. t0 +. pre_round_s) *. setup_speed;
      r_pre_round_s = pre_round_s *. setup_speed;
      r_round_s = (w1.m_t -. first) *. speed;
      r_wall_s = w1.m_t -. first;
      r_speed = speed;
      r_cpu_s = (w1.m_cpu -. w0.m_cpu) *. speed;
      r_msgs = List.length outcome.N.delivered;
      r_onion_s = onion_s;
      r_admit_s = admit_s;
      r_layer = layer;
      r_lanes = (if traced then lanes f else []);
    }

  (* ---- an ingest session ----

     [generators] client threads, each with one client endpoint serving
     one entry group, offer pre-built onions on a fixed open-loop schedule
     ([rate] submissions/s in total, interleaved evenly) for [seconds].
     Each submission is timed from its due time to its accepted ack and
     to the signed bulletin of its acked epoch. [rate = 0] runs an empty
     session (set-up only). *)

  module BSign = N.BSign

  type client = {
    cid : int;
    gid : int;
    blobs : string array;
    posts : string array;
    due : float array; (* relative to the window start *)
    ack_at : float array; (* nan until acked *)
    ack_epoch : int array;
    bull_at : float array;
    late : float array;
  }

  let run_ingest ~traced ?pool ~(pool_obs : Ctx.t) (config : Config.t) ~(seed : int)
      ~(rate : float) ~(seconds : float) ~(generators : int) ~(epoch_s : float) : ingest =
    let n = config.Config.n_servers in
    let n_groups = config.Config.n_groups in
    let client_net = Pr.setup (Atom_util.Rng.create config.Config.seed) config () in
    let per_gen =
      if generators = 0 then 0
      else int_of_float (Float.round (rate *. seconds /. float_of_int generators))
    in
    let m = Speed.meter () in
    let clients =
      Array.init generators (fun j ->
          let rng = Atom_util.Rng.create ((seed * 7919) + j) in
          let cid = n + 1 + j in
          let gid = j mod n_groups in
          let posts = Array.init per_gen (fun k -> Printf.sprintf "s%d c%d post %d" seed j k) in
          let blobs =
            Array.mapi
              (fun k post ->
                let blob =
                  Pr.Wire.submission_to_bytes
                    (Pr.submit rng client_net ~user:((cid * 1_000_000) + k) ~entry_gid:gid post)
                in
                Speed.step m;
                blob)
              posts
          in
          {
            cid;
            gid;
            blobs;
            posts;
            due =
              Array.init per_gen (fun k ->
                  (float_of_int ((k * generators) + j) +. 0.5) /. rate);
            ack_at = Array.make per_gen nan;
            ack_epoch = Array.make per_gen (-1);
            bull_at = Array.make per_gen nan;
            late = Array.make per_gen 0.;
          })
    in
    let onions = per_gen * generators in
    let onion_s = Speed.take m /. float_of_int onions in
    (* Host-speed readings through the session: the first generator takes
       one each time a bulletin arrives, when the fleet has just finished
       mixing an epoch and is idle until the next seal. Each is kept as
       (epoch, when, reading, CPU before it, CPU after it), newest first. *)
    let k_start = Speed.last m in
    let readings = ref [] in
    let _, bulletin_pk = N.bulletin_keypair config in
    let t0 = Tw.now () in
    let f = bring_up ~traced ?pool ~ingest:open_policy config in
    let t_ready = Tw.now () in
    let at = ref None in
    arm f ~pool_obs ~probe:false at;
    let sending = Atomic.make (if per_gen = 0 then 0 else generators) in
    let coord_done = Atomic.make false in
    let gen (c : client) () =
      let head = client_net.Pr.groups.(c.gid).Pr.members.(0) in
      let ct = Tcp.create ~host ~node_id:c.cid () in
      Tcp.add_peer ct ~node_id:head ~host ~port:(Tcp.port f.ts.(head).Tw.inner);
      (* the window opens at the coordinator's first send *)
      while Option.is_none !at do
        Thread.delay 0.001
      done;
      let s0 = match !at with Some (_, w0) -> w0.m_t | None -> nan in
      let sent = ref 0 in
      let on_frame at frame =
        match Ctrl.decode frame with
        | Some (Ctrl.Submit_ack { token; status; epoch; _ })
          when token >= 0 && token < per_gen && Float.is_nan c.ack_at.(token) ->
            if status = Ctrl.submit_accepted then begin
              c.ack_at.(token) <- at;
              c.ack_epoch.(token) <- epoch
            end
        | Some (Ctrl.Bulletin_announce { epoch; digest; signature; posts }) ->
            let sealed = { Bulletin.epoch; posts; digest } in
            if BSign.verify_sealed ~pk:bulletin_pk sealed ~signature then
              Array.iteri
                (fun k e ->
                  if e = epoch && Float.is_nan c.bull_at.(k) && Array.mem c.posts.(k) posts then
                    c.bull_at.(k) <- at)
                c.ack_epoch;
            if c.cid = n + 1 then begin
              let cpu0 = cpu_now () in
              let k = Speed.probe () in
              readings := (epoch, at, k, cpu0, cpu_now ()) :: !readings
            end
        | _ -> ()
      in
      let outstanding () =
        let open_ = ref false in
        Array.iteri
          (fun k e -> if e >= 0 && Float.is_nan c.bull_at.(k) then open_ := true)
          c.ack_epoch;
        !open_
      in
      let finish_by = ref infinity in
      while !sent < per_gen || (outstanding () && Tw.now () < !finish_by) do
        let now = Tw.now () in
        if !sent < per_gen && now >= s0 +. c.due.(!sent) then begin
          let k = !sent in
          c.late.(k) <- now -. (s0 +. c.due.(k));
          ignore
            (Tcp.send ct ~dst:head
               (Ctrl.encode
                  (Ctrl.Submit
                     {
                       client = c.cid; port = Tcp.port ct; token = k; gid = c.gid; epoch = 0;
                       blob = c.blobs.(k); pow = "";
                     })));
          incr sent;
          if !sent = per_gen then Atomic.decr sending
        end
        else begin
          let timeout =
            if !sent < per_gen then Float.max 1e-4 (s0 +. c.due.(!sent) -. now) else 0.25
          in
          (match Tcp.recv ct ~timeout with Ok (_, frame) -> on_frame (Tw.now ()) frame | Error _ -> ());
          if Atomic.get coord_done && !finish_by = infinity then finish_by := Tw.now () +. 5.
        end
      done;
      Tcp.close ct
    in
    let gens = Array.to_list (Array.map (fun c -> Thread.create (gen c) ()) clients) in
    let t_call = Tw.now () in
    let outcome =
      N.run_ingest_coordinator ~obs:f.obs.(n) ~clock:Tw.now ?pool f.ts.(n) ~config ~epoch_s
        ~min_epochs:1
        ~keep_collecting:(fun () -> Atomic.get sending > 0)
        ()
    in
    let w1 = mark ~pool_obs () in
    Atomic.set coord_done true;
    List.iter Thread.join gens;
    tear_down f;
    let k_end = Speed.probe () in
    let w0 = match !at with Some (_, m) -> m | None -> w1 in
    (* The session's timeline of readings, window start to window end: CPU
       and durations are scaled by the readings around them. *)
    let timeline =
      ((w0.m_t, k_start, w0.m_cpu, w0.m_cpu)
      :: List.rev_map (fun (_, t, k, c0, c1) -> (t, k, c0, c1)) !readings)
      @ [ (w1.m_t, k_end, w1.m_cpu, w1.m_cpu) ]
    in
    let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> [] in
    let speed_at t =
      match List.find_opt (fun (_, (t1, _, _, _)) -> t < t1) (pairs timeline) with
      | Some ((_, k0, _, _), (_, k1, _, _)) -> Speed.factor k0 k1
      | None -> Speed.factor k_end k_end
    in
    let cpu_s =
      List.fold_left
        (fun acc ((_, k0, _, after), (_, k1, before, _)) ->
          acc +. ((before -. after) *. Speed.factor k0 k1))
        0. (pairs timeline)
    in
    let speed = Speed.factor_of (List.map (fun (_, k, _, _) -> k) timeline) in
    let announced e =
      List.find_map (fun (e', t, _, _, _) -> if e' = e then Some t else None) !readings
    in
    let first = f.ts.(n).Tw.r.Tw.first_send in
    let pre_round_s = f.ts.(n).Tw.r.Tw.first_call -. t_call in
    let s0 = w0.m_t in
    (* Exactly once, in the acked epoch, under a valid signature. *)
    let published = Hashtbl.create 256 in
    let sig_ok = ref true in
    List.iter
      (fun ep ->
        (* Sealing collapses duplicate posts, so a duplicate shows as more
           units mixed than posts published. *)
        if
          (not (BSign.verify_sealed ~pk:bulletin_pk ep.N.ep_sealed ~signature:ep.N.ep_signature))
          || ep.N.ep_mixed <> Array.length ep.N.ep_sealed.Bulletin.posts
        then sig_ok := false;
        Array.iter
          (fun p ->
            Hashtbl.replace published p
              (ep.N.ep_epoch :: Option.value ~default:[] (Hashtbl.find_opt published p)))
          ep.N.ep_sealed.Bulletin.posts)
      outcome.N.ing_epochs;
    let failed = ref 0 in
    let acks = ref [] and bulletins = ref [] and late = ref [] in
    Array.iter
      (fun c ->
        Array.iteri
          (fun k post ->
            late := c.late.(k) :: !late;
            let once_in_epoch =
              Hashtbl.find_opt published post = Some [ c.ack_epoch.(k) ]
            in
            if
              c.ack_epoch.(k) < 0 || Float.is_nan c.bull_at.(k) || (not once_in_epoch)
              || not !sig_ok
            then incr failed
            else begin
              let due = s0 +. c.due.(k) in
              acks := (due, (c.ack_at.(k) -. due) *. speed_at c.ack_at.(k)) :: !acks;
              bulletins := (due, c.bull_at.(k) -. due) :: !bulletins
            end)
          c.posts)
      clients;
    let accepted = List.length !acks in
    let by_due l = List.map snd (List.sort compare l) in
    let layer, faithful =
      if traced then ladder ?pool f ~w0 ~w1 ~msgs:accepted ~pre_round_s else ([], true)
    in
    let why =
      match outcome.N.ing_abort with
      | Some a -> a
      | None ->
          if not !sig_ok then "a bulletin failed its signature or carried a duplicate"
          else if !failed > 0 then
            Printf.sprintf "%d of %d submissions not published exactly once in their acked epoch"
              !failed onions
          else if not faithful then "wire replay did not reproduce a frame"
          else ""
    in
    {
      i_ok = String.equal why "";
      i_why = why;
      i_setup_s = (t_ready -. t0 +. pre_round_s) *. speed;
      i_offered = onions;
      i_failed = !failed;
      i_window_s = w1.m_t -. first;
      i_speed = speed;
      i_cpu_s = cpu_s;
      i_acks = by_due !acks;
      i_bulletins = by_due !bulletins;
      i_late = !late;
      i_epochs =
        List.map
          (fun ep ->
            let scale =
              match announced ep.N.ep_epoch with Some t -> speed_at (t -. 1e-6) | None -> speed
            in
            (Array.length ep.N.ep_sealed.Bulletin.posts, ep.N.ep_latency_s *. scale))
          outcome.N.ing_epochs;
      i_onion_s = onion_s;
      i_layer = layer;
      i_lanes = (if traced then lanes f else []);
    }
end
