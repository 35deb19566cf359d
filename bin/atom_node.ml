(* atom_node: one Atom server as a standalone OS process.

   Spawned by the fleet driver's Processes placement (or by hand): connects to the
   coordinator over loopback TCP, announces its listen port with a Join
   frame, registers the fleet from the coordinator's Peers frame, and
   then runs the event-driven group pipeline ([Atom_rpc.Node]) until the
   coordinator shuts the round down.

   Every node derives the full network key material from --seed, so the
   only bytes on the wire are the protocol's own framed messages. *)

open Cmdliner
open Atom_core

let run node_id coord_port host config domains recv_timeout max_idle chaos metrics_out trace
    stats_every verbose ingest ingest_rate ingest_burst ingest_pow_bits ingest_queue_cap =
  if verbose then Atom_obs.Log.set_level (Some Atom_obs.Log.Info);
  (* The registry is always live — counters are a load+store, and a node
     must be able to answer Stats_request at any time. Tracing stays
     opt-in: a trace buffer grows with the round. *)
  let obs = Atom_obs.Ctx.create ~tracing:trace () in
  let module G = (val Atom_group.Registry.zp_test ()) in
  (* The node always runs behind the chaos wrapper; an empty spec is a
     passthrough, so the fault-free path pays one extra indirection and
     nothing else. The chaos clock is seconds since process start, so
     --chaos partition windows are node-relative. *)
  let module ChaosT = Atom_rpc.Chaos_transport.Make (Atom_rpc.Tcp_transport.Check) in
  let module Node = Atom_rpc.Node.Make (G) (ChaosT.Check) in
  let chaos_spec =
    match Atom_rpc.Chaos_transport.spec_of_string chaos with
    | Ok s -> s
    | Error m ->
        Printf.eprintf "atom_node: bad --chaos spec: %s\n" m;
        exit 2
  in
  Config.validate config;
  let coord = config.Config.n_servers in
  (* --domains 0 (the default): honor ATOM_DOMAINS when set, otherwise
     fall back to the measured default — host cores capped by the
     recommended_domains a bench parallel run recorded on matching
     hardware. --domains 1 forces sequential; N > 1 builds a pool. *)
  let pool, own_pool = Atom_exec.Pool.of_domains domains in
  if domains <= 0 && Sys.getenv_opt "ATOM_DOMAINS" = None then begin
    let d = Option.fold ~none:1 ~some:Atom_exec.Pool.size pool in
    Atom_obs.Log.info "atom_node %d: using %d worker domain%s (measured default)" node_id d
      (if d = 1 then "" else "s")
  end;
  (* Bounded send budget: a dead peer costs at most ~2s before the typed
     Send_failed error triggers §4.5 rerouting. *)
  let t = Atom_rpc.Tcp_transport.create ~obs ~host ~node_id ~send_timeout:2.0 () in
  Atom_rpc.Tcp_transport.add_peer t ~node_id:coord ~host ~port:coord_port;
  (* One process-relative wall clock drives everything timestamped here:
     the trace spans, the chaos schedule, and the snapshot [now]. Zero is
     the instant before Join, which is what the coordinator stamps on its
     side to compute this node's lane offset in the merged trace. *)
  let started = Unix.gettimeofday () in
  let clock () = Unix.gettimeofday () -. started in
  (match
     Atom_rpc.Tcp_transport.send t ~dst:coord
       (Atom_wire.Control.encode
          (Atom_wire.Control.Join { node_id; port = Atom_rpc.Tcp_transport.port t }))
   with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "atom_node: cannot reach coordinator: %s\n"
        (Atom_rpc.Transport.error_to_string e);
      exit 1);
  let ct =
    ChaosT.wrap ~obs ~now:clock
      ~reset:(fun dst -> Atom_rpc.Tcp_transport.reset_peer t ~dst)
      chaos_spec t
  in
  (* atom-metrics/1 snapshot writer (exit dump + optional periodic
     refresh). tmp+rename keeps a reader from ever seeing a torn file;
     the mutex keeps the periodic thread from clobbering the final dump.
     Periodic snapshots skip the trace buffer — it is still growing. *)
  let stop_stats = ref false in
  let stats_mu = Mutex.create () in
  let write_snapshot ~final () =
    match metrics_out with
    | None -> ()
    | Some path -> (
        try
          let snap =
            Atom_obs.Snapshot.of_ctx ~node_id ~now:(clock ())
              ~include_trace:(final && trace) obs
          in
          let tmp = path ^ ".tmp" in
          Out_channel.with_open_bin tmp (fun oc ->
              Out_channel.output_string oc (Atom_obs.Snapshot.to_json snap));
          Sys.rename tmp path
        with _ -> ())
  in
  (match (stats_every, metrics_out) with
  | Some period, Some _ when period > 0. ->
      ignore
        (Thread.create
           (fun () ->
             while not !stop_stats do
               Thread.delay period;
               Mutex.lock stats_mu;
               if not !stop_stats then write_snapshot ~final:false ();
               Mutex.unlock stats_mu
             done)
           ())
  | Some _, None -> Printf.eprintf "atom_node: --stats-every needs --metrics-out; ignoring\n%!"
  | _ -> ());
  (* Ingest mode: accept client Submit frames under an admission policy.
     Clients self-identify with their listen port; registering them as TCP
     peers opens the ack/bulletin return path (ids above the server range
     never enter §4.5 routing). *)
  let ingest_policy =
    if not ingest then None
    else
      Some
        {
          Atom_ingest.Admission.default_policy with
          Atom_ingest.Admission.rate = ingest_rate;
          burst = ingest_burst;
          pow_bits = ingest_pow_bits;
          queue_cap = ingest_queue_cap;
        }
  in
  Node.run_node ~obs ~clock ?pool ct ~config ~node_id ~coord ~recv_timeout ~max_idle
    ~on_peers:(fun peers ->
      Array.iter
        (fun (id, port) ->
          if id <> node_id then Atom_rpc.Tcp_transport.add_peer t ~node_id:id ~host ~port)
        peers)
    ?ingest:ingest_policy
    ~register_client:(fun ~client ~port ->
      Atom_rpc.Tcp_transport.add_peer t ~node_id:client ~host ~port)
    ();
  Atom_rpc.Tcp_transport.close t;
  Mutex.lock stats_mu;
  stop_stats := true;
  write_snapshot ~final:true ();
  Mutex.unlock stats_mu;
  if own_pool then Option.iter Atom_exec.Pool.shutdown pool

let cmd =
  let node_id = Arg.(required & opt (some int) None & info [ "node-id" ] ~doc:"This server's id.") in
  let coord_port =
    Arg.(required & opt (some int) None & info [ "coordinator-port" ] ~doc:"Coordinator TCP port.")
  in
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Bind/connect address.") in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ]
          ~doc:
            "Worker domains for crypto batches (0 = honor ATOM_DOMAINS when set, otherwise \
             the measured default from BENCH_parallel.json; 1 = sequential).")
  in
  let recv_timeout =
    Arg.(value & opt float 0.5 & info [ "recv-timeout" ] ~doc:"Event-loop poll interval (s).")
  in
  let max_idle =
    Arg.(value & opt int 240 & info [ "max-idle" ] ~doc:"Exit after this many idle polls.")
  in
  let chaos =
    Arg.(
      value & opt string ""
      & info [ "chaos" ]
          ~doc:
            "Fault-injection spec for this node's transport, e.g. \
             'drop=0.02;corrupt=0.01;seed=7;partition=1:3:0,1|2,3'. Empty = no faults.")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ]
          ~doc:"Write this node's atom-metrics/1 JSON snapshot here at exit.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Record wall-clock phase/step spans; included in the exit snapshot and served \
             over Stats_request (merged into one cluster trace by atom_cli).")
  in
  let stats_every =
    Arg.(
      value & opt (some float) None
      & info [ "stats-every" ]
          ~doc:"Rewrite the --metrics-out snapshot every $(docv) seconds while running."
          ~docv:"SECONDS")
  in
  let verbose = Arg.(value & flag & info [ "verbose" ] ~doc:"Log node activity to stderr.") in
  let ingest =
    Arg.(
      value & flag
      & info [ "ingest" ]
          ~doc:
            "Accept client submissions directly (Submit frames) under admission control, \
             with epochs sealed by coordinator barriers.")
  in
  let ingest_rate =
    Arg.(value & opt float 10. & info [ "ingest-rate" ] ~doc:"Sustained submissions/sec per client.")
  in
  let ingest_burst =
    Arg.(value & opt float 20. & info [ "ingest-burst" ] ~doc:"Per-client token-bucket depth.")
  in
  let ingest_pow_bits =
    Arg.(
      value & opt int 0
      & info [ "ingest-pow-bits" ] ~doc:"Hashcash difficulty for submissions (0 disables).")
  in
  let ingest_queue_cap =
    Arg.(
      value & opt int 4096
      & info [ "ingest-queue-cap" ] ~doc:"Per-epoch intake queue bound (backpressure above).")
  in
  Cmd.v
    (Cmd.info "atom_node" ~doc:"One Atom server process (spawned by atom_cli cluster).")
    Term.(
      const run $ node_id $ coord_port $ host $ Cluster_flags.config Config.cluster $ domains
      $ recv_timeout $ max_idle $ chaos $ metrics_out $ trace $ stats_every $ verbose $ ingest
      $ ingest_rate $ ingest_burst $ ingest_pow_bits $ ingest_queue_cap)

let () = exit (Cmd.eval cmd)
