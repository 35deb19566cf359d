(* Large-scale modeled execution over the discrete-event simulator.

   This is the engine behind the figure reproductions (Figures 5–11): the
   protocol's *structure* — sequential shuffle / reencrypt chains within
   each anytrust group, staggered machine sharing across groups, layer
   barriers of the square network, per-pair link latencies, NIC
   serialization, TLS connection setup, trustee interaction — is executed
   event by event, while the cryptographic payloads are replaced by
   calibrated virtual CPU charges (Table 3 constants by default, or costs
   re-measured on this host). The paper itself uses this technique for its
   Figure 11 ("we modified the implementation to model the expected latency
   given an input using values shown in Table 3").

   Modeling notes, cross-checked against the paper's own numbers:
   - One group's pipeline is single-threaded per server (a member processes
     its group's batch on one core); multi-core machines serve several
     groups concurrently through a per-machine core semaphore. This
     reproduces the §6.2 arithmetic: 1M messages on 1,024 groups ⇒ 2,048
     trap-variant units of 5 points per group; a 32-stage chain at
     (104.5 + 335)µs per point-unit per stage gives ≈145 s per iteration —
     ten iterations land at the paper's ≈28 min.
   - [intra_parallel] instead spreads one batch across the owning machine's
     cores (the Figure 7 experiment), with a variant-specific parallel
     fraction (trap ≈ 0.99, NIZK ≈ 0.96: proof generation is sequential).
   - The square network is all-to-all between layers, so a layer barrier is
     exact: every group's inputs include the slowest group's batch. *)

open Atom_sim

type params = {
  config : Config.t;
  cal : Calibration.t;
  n_messages : int; (* real user messages entering the round *)
  points_per_msg : int; (* paper packing: ceil(msg_bytes / 32) *)
  dummies : int; (* differential-privacy dummy messages (dialing) *)
  intra_parallel : bool;
  parallel_fraction : float;
  clusters : int;
  wire_bytes_per_point : float; (* serialized (R, c, Y) size per element *)
  layer_overhead : float;
      (* Fixed extra seconds per mixing layer. Default 0. The Figure-11
         reproduction sets the value fitted to the paper's own measurements
         (≈2,000 s per layer at billion-message scale), which the authors
         attribute to connection management: G² inter-layer connections and
         trustee TLS churn (§6.2). *)
}

let microblog ?(cal = Calibration.paper) (config : Config.t) ~(n_messages : int) : params =
  {
    config;
    cal;
    n_messages;
    points_per_msg = (config.Config.msg_bytes + 31) / 32;
    dummies = 0;
    intra_parallel = false;
    parallel_fraction = 0.99;
    clusters = 8;
    wire_bytes_per_point = 100.;
    layer_overhead = 0.;
  }

(* Dialing: 80-byte messages (§5) plus the Vuvuzela-style dummies the
   trustee group injects (µ per trustee server on average). *)
let dialing ?(cal = Calibration.paper) (config : Config.t) ~(n_messages : int) : params =
  let trustees = min config.Config.group_size config.Config.n_servers in
  {
    config = { config with Config.msg_bytes = 80 };
    cal;
    n_messages;
    points_per_msg = (80 + 31) / 32;
    dummies = int_of_float (float_of_int trustees *. config.Config.dummy_mu);
    intra_parallel = false;
    parallel_fraction = 0.99;
    clusters = 8;
    wire_bytes_per_point = 100.;
    layer_overhead = 0.;
  }

(* Analytic time of a single mixing iteration for one k-server group
   (Figures 5, 6 and 7): the sequential shuffle pass then the sequential
   decrypt-and-reencrypt pass, plus intra-group hops. [cores] only matters
   with [intra_parallel] (the Figure-7 experiment); the NIZK variant's proof
   work is mostly sequential, captured by a lower parallel fraction. *)
let one_iteration_seconds ~(cal : Calibration.t) ~(variant : Config.variant) ~(k : int)
    ~(units : int) ~(points : int) ?(cores = 4) ?(intra_parallel = false)
    ?(include_network = true) ?(hop_latency = 0.040) ?(bandwidth = 12.5e6)
    ?(wire_bytes_per_point = 100.) () : float =
  let u = float_of_int units and w = float_of_int points in
  let pf =
    match variant with Config.Nizk -> 0.96 | Config.Trap | Config.Basic -> 0.99
  in
  let par seconds =
    if intra_parallel then
      (seconds *. (1. -. pf)) +. (seconds *. pf /. float_of_int cores)
    else seconds
  in
  let shuffle_stage =
    par (u *. w *. cal.Calibration.shuffle_per_msg)
    +.
    match variant with
    | Config.Nizk ->
        par (u *. w *. cal.Calibration.shufproof_prove_per_msg)
        +. par (u *. w *. cal.Calibration.shufproof_verify_per_msg)
    | Config.Trap | Config.Basic -> 0.
  in
  let reenc_stage =
    par (u *. w *. cal.Calibration.reenc)
    +.
    match variant with
    | Config.Nizk ->
        par (u *. w *. cal.Calibration.reencproof_prove)
        +. par (u *. w *. cal.Calibration.reencproof_verify)
    | Config.Trap | Config.Basic -> 0.
  in
  let hop =
    if include_network then hop_latency +. (u *. w *. wire_bytes_per_point /. bandwidth) else 0.
  in
  (float_of_int k *. (shuffle_stage +. reenc_stage)) +. (2. *. float_of_int (k - 1) *. hop)

type result = {
  latency : float; (* end-to-end round latency, seconds *)
  iteration_times : float array; (* wall-clock end of each mixing layer *)
  bytes_sent : float;
  connections : int;
  events : int;
  max_server_bandwidth : float; (* peak per-server average send rate, B/s *)
  retransmits : int; (* link-layer retries (loss / dead receivers) *)
  messages_dropped : int; (* messages abandoned after max retries *)
  bytes_dropped : float;
}

(* Modeled cost of one §4.5 buddy-group recovery: each dead member's
   replacement server waits for the slowest of [quorum] sub-share transfers
   from the buddy group and pays a Lagrange reconstruction, charged like
   [quorum] re-encryptions. Sequential over dead members — the closed-form
   hook behind capacity planning for churny fleets. *)
let recovery_seconds ~(cal : Calibration.t) ~(quorum : int) ~(dead : int)
    ?(hop_latency = 0.040) ?(bandwidth = 12.5e6) ?(share_bytes = 36.) () : float =
  if dead <= 0 then 0.
  else
    let per_dead =
      hop_latency +. (share_bytes /. bandwidth)
      +. (float_of_int quorum *. cal.Calibration.reenc)
    in
    float_of_int dead *. per_dead

(* [obs] defaults to no-op observability: metrics and spans cost one dead
   branch each. Pass a tracing context to get per-(group, iteration) spans
   and exclusive phase tracks (verify/shuffle/decrypt/network/barrier/exit)
   stamped in virtual time — pure functions of the seed. *)
let run ?(obs = Atom_obs.Ctx.noop) (p : params) : result =
  Config.validate p.config;
  let cfg = p.config in
  let engine = Engine.create ~obs () in
  let tr = Atom_obs.Ctx.tracer obs in
  let net = Net.create engine in
  let rng = Atom_util.Rng.create cfg.Config.seed in
  let machines =
    Array.init cfg.Config.n_servers (fun id ->
        Machine.create engine ~id ~cores:(Machine.paper_cores rng)
          ~bandwidth:(Machine.paper_bandwidth rng)
          ~cluster:(Atom_util.Rng.int_below rng p.clusters))
  in
  let beacon = Beacon.create ~seed:cfg.Config.seed in
  let formation =
    Group_formation.form beacon ~round:0 ~n_servers:cfg.Config.n_servers
      ~n_groups:cfg.Config.n_groups ~group_size:cfg.Config.group_size ()
  in
  let topo = Config.topology cfg in
  let iters = topo.Atom_topology.Topology.iterations in
  let n_groups = cfg.Config.n_groups in
  let quorum = Config.quorum cfg in
  let trap = cfg.Config.variant = Config.Trap in
  let nizk = cfg.Config.variant = Config.Nizk in
  let w = float_of_int p.points_per_msg in
  (* Units routed per group: traps double the count. *)
  let total_units = (p.n_messages + p.dummies) * if trap then 2 else 1 in
  let units_per_group = (total_units + n_groups - 1) / n_groups in
  let u = float_of_int units_per_group in
  let cal = p.cal in
  (* Single-core job charging, with the Figure-7 intra-batch parallel mode. *)
  let job (m : Machine.t) (seconds : float) : unit =
    let seconds =
      if p.intra_parallel then
        (seconds *. (1. -. p.parallel_fraction))
        +. (seconds *. p.parallel_fraction /. float_of_int m.Machine.cores)
      else seconds
    in
    Machine.job m ~seconds
  in
  (* Spawn a job on each machine and wait for all (NIZK verification, entry
     proof checking). *)
  let parallel_jobs (ms : Machine.t list) (seconds : float) : unit =
    let done_mb = Mailbox.create engine in
    List.iter
      (fun m ->
        Engine.spawn engine (fun () ->
            job m seconds;
            Mailbox.send done_mb ()))
      ms;
    ignore (Mailbox.recv_n done_mb (List.length ms))
  in
  let unit_bytes = w *. p.wire_bytes_per_point in
  let batch_bytes = u *. unit_bytes in
  (* Layer barrier: exact for the square network (all-to-all layers). *)
  let layer_done = Mailbox.create engine in
  let layer_start = Array.init n_groups (fun _ -> Mailbox.create engine) in
  let iteration_times = Array.make iters 0. in
  let finished = Mailbox.create engine in
  (* Coordinator: releases layers and records their completion times. *)
  Engine.spawn engine (fun () ->
      for iter = 0 to iters - 1 do
        Array.iter (fun mb -> Mailbox.send mb iter) layer_start;
        ignore (Mailbox.recv_n layer_done n_groups);
        iteration_times.(iter) <- Engine.now engine;
        (* Cross-layer delivery: each group's inputs include batches from
           other clusters; the barrier closes after the slowest hop. *)
        if iter < iters - 1 then Engine.sleep engine (net.Net.inter_max +. p.layer_overhead)
      done;
      Mailbox.send finished `Mixing_done);
  (* Group pipelines. *)
  Array.iter
    (fun (g : Group_formation.group) ->
      Engine.spawn engine (fun () ->
          let gid = g.Group_formation.gid in
          Atom_obs.Trace.thread_name tr ~tid:gid (Printf.sprintf "group %d" gid);
          (* Exclusive phase accounting: the track is inside exactly one of
             verify/shuffle/decrypt/network/barrier/exit at every instant,
             so phase durations tile the pipeline's lifetime. *)
          let phases = Atom_obs.Trace.Phase.start tr ~tid:gid "verify" in
          let members =
            Array.to_list (Array.sub g.Group_formation.members 0 quorum)
            |> List.map (fun sid -> machines.(sid))
          in
          let last_machine = List.nth members (quorum - 1) in
          (* Entry: all members verify the users' EncProofs in parallel. *)
          parallel_jobs members (u *. w *. cal.Calibration.encproof_verify);
          for iter = 0 to iters - 1 do
            Atom_obs.Trace.Phase.switch phases "barrier";
            let (_ : int) = Mailbox.recv layer_start.(gid) in
            let span =
              Atom_obs.Trace.begin_span tr ~cat:"iteration"
                ~args:[ ("group", Atom_obs.Trace.I gid); ("iter", Atom_obs.Trace.I iter) ]
                ~tid:gid
                (Printf.sprintf "iter %d" iter)
            in
            (* Pass 1: sequential shuffle chain. *)
            let rec chain prev = function
              | [] -> ()
              | m :: rest ->
                  Atom_obs.Trace.Phase.switch phases "shuffle";
                  job m (u *. w *. cal.Calibration.shuffle_per_msg);
                  if nizk then begin
                    job m (u *. w *. cal.Calibration.shufproof_prove_per_msg);
                    let others = List.filter (fun o -> o != m) members in
                    Atom_obs.Trace.Phase.switch phases "verify";
                    parallel_jobs others (u *. w *. cal.Calibration.shufproof_verify_per_msg)
                  end;
                  (match prev with
                  | Some pm ->
                      Atom_obs.Trace.Phase.switch phases "network";
                      Engine.sleep engine
                        (Net.latency net pm m +. Net.transfer_time pm m ~bytes:batch_bytes)
                  | None -> ());
                  chain (Some m) rest
            in
            chain None members;
            (* Pass 2: sequential decrypt-and-reencrypt chain. *)
            let rec chain2 prev = function
              | [] -> ()
              | m :: rest ->
                  Atom_obs.Trace.Phase.switch phases "decrypt";
                  job m (u *. w *. cal.Calibration.reenc);
                  if nizk then begin
                    job m (u *. w *. cal.Calibration.reencproof_prove);
                    let others = List.filter (fun o -> o != m) members in
                    Atom_obs.Trace.Phase.switch phases "verify";
                    parallel_jobs others (u *. w *. cal.Calibration.reencproof_verify)
                  end;
                  (match prev with
                  | Some pm ->
                      Atom_obs.Trace.Phase.switch phases "network";
                      Engine.sleep engine
                        (Net.latency net pm m +. Net.transfer_time pm m ~bytes:batch_bytes)
                  | None -> ());
                  chain2 (Some m) rest
            in
            chain2 None members;
            (* Forward: the last server serializes β batches out its NIC;
               first iteration pays TLS setup toward every neighbour. *)
            if iter < iters - 1 then begin
              Atom_obs.Trace.Phase.switch phases "network";
              let beta =
                Array.length (topo.Atom_topology.Topology.neighbors ~iter ~group:gid)
              in
              if iter = 0 then begin
                job last_machine (float_of_int beta *. net.Net.tls_cpu);
                net.Net.connections_opened <- net.Net.connections_opened + beta
              end;
              Resource.with_resource last_machine.Machine.nic (fun () ->
                  Engine.sleep engine (batch_bytes /. last_machine.Machine.bandwidth));
              net.Net.bytes_sent <- net.Net.bytes_sent +. batch_bytes
            end;
            Atom_obs.Trace.end_span tr span;
            Mailbox.send layer_done ()
          done;
          (* Exit phase. *)
          Atom_obs.Trace.Phase.switch phases "exit";
          if trap then
            (* Decode units, check trap commitments, report to trustees. *)
            job last_machine (u *. cal.Calibration.commit_check);
          Atom_obs.Trace.Phase.stop phases;
          Mailbox.send finished (`Report gid)))
    formation.Group_formation.groups;
  (* Trustee endgame (trap variant): collect G reports over fresh TLS
     connections, release shares, groups open inner ciphertexts. *)
  let trustee_count = min cfg.Config.group_size cfg.Config.n_servers in
  let trustee_machines =
    Group_formation.form_trustees beacon ~round:0 ~n_servers:cfg.Config.n_servers
      ~group_size:trustee_count
    |> Array.map (fun sid -> machines.(sid))
  in
  let final = Mailbox.create engine in
  Engine.spawn engine (fun () ->
      (* The trustee track spans the whole round (started at t = 0), so in
         the trap variant — where the endgame runs past the last group's
         exit — the critical track still tiles [0, latency]: mostly
         "barrier" (waiting out the mixing), then the endgame phases. *)
      let t_tid = n_groups in
      Atom_obs.Trace.thread_name tr ~tid:t_tid "trustees";
      let phases = Atom_obs.Trace.Phase.start tr ~tid:t_tid "barrier" in
      (* Wait for mixing and all G exit reports. *)
      let expected = 1 + n_groups in
      ignore (Mailbox.recv_n finished expected);
      if trap then begin
        (* Each trustee accepts G report connections and processes them. *)
        Atom_obs.Trace.Phase.switch phases "exit";
        let per_trustee = float_of_int n_groups *. (net.Net.tls_cpu +. 1e-5) in
        net.Net.connections_opened <-
          net.Net.connections_opened + (n_groups * Array.length trustee_machines);
        let done_mb = Mailbox.create engine in
        Array.iter
          (fun tm ->
            Engine.spawn engine (fun () ->
                Machine.job tm ~seconds:per_trustee;
                Mailbox.send done_mb ()))
          trustee_machines;
        ignore (Mailbox.recv_n done_mb (Array.length trustee_machines));
        (* Report RTT + share release back to the groups. *)
        Atom_obs.Trace.Phase.switch phases "network";
        Engine.sleep engine (2. *. net.Net.inter_max);
        (* Groups decrypt the inner ciphertexts (half the units). *)
        Atom_obs.Trace.Phase.switch phases "decrypt";
        Engine.sleep engine (u /. 2. *. cal.Calibration.kem_open)
      end;
      Atom_obs.Trace.Phase.stop phases;
      Mailbox.send final ());
  Engine.spawn engine (fun () ->
      let () = Mailbox.recv final in
      ());
  let latency = Engine.run engine in
  Machine.publish_fleet (Atom_obs.Ctx.metrics obs) machines;
  let max_bw =
    (* Peak average send rate per server: forwarded bytes per iteration over
       the iteration time (reporting aid for the §6.2 bandwidth claim). *)
    if latency > 0. then
      float_of_int iters *. batch_bytes /. latency
    else 0.
  in
  {
    latency;
    iteration_times;
    bytes_sent = net.Net.bytes_sent;
    connections = net.Net.connections_opened;
    events = Engine.events_run engine;
    max_server_bandwidth = max_bw;
    retransmits = net.Net.retransmits;
    messages_dropped = net.Net.messages_dropped;
    bytes_dropped = net.Net.bytes_dropped;
  }

(* ---- Pipelined operation (§4.7) ----

   When throughput matters more than latency, different sets of servers man
   different layers of the permutation network and consecutive rounds
   stream through: layer l mixes round r while layer l+1 mixes round r−1.
   The network then emits one round's worth of messages every "one group's
   worth of latency" instead of every T of them. The paper describes but
   does not evaluate this mode; [run_pipelined] makes the trade-off
   measurable (see the `ablation_pipeline` bench). *)

type pipeline_result = {
  first_output : float; (* latency of round 0: unchanged by pipelining *)
  last_output : float;
  output_gap : float; (* mean time between consecutive round outputs *)
  pipelined_rounds : int;
}

let run_pipelined (p : params) ~(rounds : int) : pipeline_result =
  Config.validate p.config;
  if rounds < 1 then invalid_arg "Simulate.run_pipelined: rounds must be >= 1";
  let cfg = p.config in
  let engine = Engine.create () in
  let net = Net.create engine in
  let rng = Atom_util.Rng.create cfg.Config.seed in
  let topo = Config.topology cfg in
  let iters = topo.Atom_topology.Topology.iterations in
  let n_groups = cfg.Config.n_groups in
  let quorum = Config.quorum cfg in
  let trap = cfg.Config.variant = Config.Trap in
  let w = float_of_int p.points_per_msg in
  let total_units = (p.n_messages + p.dummies) * if trap then 2 else 1 in
  let u = float_of_int ((total_units + n_groups - 1) / n_groups) in
  let cal = p.cal in
  (* Each layer is manned by its own server slice: the whole fleet divided
     by T (so one server serves one layer, across several of its groups). *)
  let machines =
    Array.init cfg.Config.n_servers (fun id ->
        Machine.create engine ~id ~cores:(Machine.paper_cores rng)
          ~bandwidth:(Machine.paper_bandwidth rng)
          ~cluster:(Atom_util.Rng.int_below rng p.clusters))
  in
  let per_layer = max 1 (cfg.Config.n_servers / iters) in
  let layer_machine ~layer ~group ~member =
    let base = layer * per_layer in
    machines.((base + ((group * quorum) + member) mod per_layer) mod cfg.Config.n_servers)
  in
  let batch_bytes = u *. w *. p.wire_bytes_per_point in
  (* start.(l).(g) carries round numbers; done_mb.(l) counts completions. *)
  let start = Array.init iters (fun _ -> Array.init n_groups (fun _ -> Mailbox.create engine)) in
  let done_mb = Array.init iters (fun _ -> Mailbox.create engine) in
  let ready = Array.init (iters + 1) (fun _ -> Mailbox.create engine) in
  let output_times = Array.make rounds 0. in
  (* Layer group pipelines. *)
  for layer = 0 to iters - 1 do
    for g = 0 to n_groups - 1 do
      Engine.spawn engine (fun () ->
          for _ = 1 to rounds do
            let (_ : int) = Mailbox.recv start.(layer).(g) in
            let rec chain prev m_idx =
              if m_idx < quorum then begin
                let m = layer_machine ~layer ~group:g ~member:m_idx in
                Machine.job m
                  ~seconds:(u *. w *. (cal.Calibration.shuffle_per_msg +. cal.Calibration.reenc));
                (match prev with
                | Some pm ->
                    Engine.sleep engine
                      (Net.latency net pm m +. Net.transfer_time pm m ~bytes:batch_bytes)
                | None -> ());
                chain (Some m) (m_idx + 1)
              end
            in
            chain None 0;
            Mailbox.send done_mb.(layer) ()
          done)
    done
  done;
  (* Per-layer coordinators; ready.(0) is fed for every round at t = 0
     (users submit ahead of time), ready.(iters) collects outputs. *)
  for r = 0 to rounds - 1 do
    Mailbox.send ready.(0) r
  done;
  for layer = 0 to iters - 1 do
    Engine.spawn engine (fun () ->
        for _ = 1 to rounds do
          let r = Mailbox.recv ready.(layer) in
          Array.iter (fun mb -> Mailbox.send mb r) start.(layer);
          ignore (Mailbox.recv_n done_mb.(layer) n_groups);
          Engine.sleep engine net.Net.inter_max;
          Mailbox.send ready.(layer + 1) r
        done)
  done;
  Engine.spawn engine (fun () ->
      for i = 0 to rounds - 1 do
        let (_ : int) = Mailbox.recv ready.(iters) in
        output_times.(i) <- Engine.now engine
      done);
  ignore (Engine.run engine);
  let gaps =
    if rounds < 2 then [| 0. |]
    else Array.init (rounds - 1) (fun i -> output_times.(i + 1) -. output_times.(i))
  in
  {
    first_output = output_times.(0);
    last_output = output_times.(rounds - 1);
    output_gap = Atom_util.Stats.mean gaps;
    pipelined_rounds = rounds;
  }
