(* atom_cli: drive the Atom library from the command line.

   Subcommands:
   - round       run a full round with real cryptography at a small scale
   - simulate    modeled large-scale run over the discrete-event simulator
   - trace       virtual-time round on the simulated fleet; merged Chrome trace JSON
   - cluster     a round (or, with `soak`, epochs under chaos) on atom_node processes
   - clients     a submission-plane load generator against an ingest-mode fleet
   - sizing      anytrust / many-trust group-size tables (Appendix B)
   - calibrate   measure this host's crypto costs for a group backend *)

open Cmdliner
open Atom_core
module Json = Atom_obs.Json
module Fleet = Atom_rpc.Fleet
module Faults = Atom_sim.Faults

(* A measurement rounded to [d] decimals for the JSON summaries; null when
   there is none. *)
let rounded (d : int) (x : float) : Json.t = Json.number (float_of_string (Printf.sprintf "%.*f" d x))

let opt_str : string option -> Json.t = Option.fold ~none:Json.Null ~some:(fun s -> Json.Str s)

(* Shared --metrics plumbing: group-op tallies around a run, plus the
   registry dump when a live one was threaded through. *)
let opcounts_before () = Atom_obs.Opcount.snapshot ()

let print_opcounts before =
  Format.printf "%a@." Atom_obs.Opcount.pp
    (Atom_obs.Opcount.diff (Atom_obs.Opcount.snapshot ()) before)

let print_registry obs = Format.printf "%a@." Atom_obs.Metrics.pp (Atom_obs.Ctx.metrics obs)

(* p50/p90/p99 of per-iteration durations, from the cumulative layer-end
   stamps in [iteration_times]. *)
let print_iteration_percentiles (times : float array) =
  if Array.length times > 0 then begin
    let durs =
      Array.mapi (fun i t -> if i = 0 then t else t -. times.(i - 1)) times
    in
    let p q = Atom_util.Stats.percentile durs q in
    Printf.printf "iteration time p50/p90/p99: %.3f / %.3f / %.3f s\n" (p 50.) (p 90.) (p 99.)
  end

(* ---- round ---- *)

let run_round config users fail_count metrics =
  let ops0 = opcounts_before () in
  let module G = (val Atom_group.Registry.zp_test ()) in
  let module Pr = Protocol.Make (G) in
  Config.validate config;
  let rng = Atom_util.Rng.create config.Config.seed in
  let t0 = Unix.gettimeofday () in
  let net = Pr.setup rng config () in
  Printf.printf "setup: %d servers, %d groups of %d (quorum %d), width %d elements/unit [%.2fs]\n"
    config.Config.n_servers config.Config.n_groups config.Config.group_size
    (Config.quorum config) net.Pr.width
    (Unix.gettimeofday () -. t0);
  (* Optional fail-stop churn. *)
  for i = 0 to fail_count - 1 do
    let victim = net.Pr.groups.(0).Pr.members.(i) in
    Pr.fail_server net victim;
    Printf.printf "injected fail-stop: server %d (group 0 member %d)\n" victim i
  done;
  let msgs = List.init users (fun i -> Printf.sprintf "anonymous message #%d" i) in
  let t1 = Unix.gettimeofday () in
  let subs =
    List.mapi
      (fun i m -> Pr.submit rng net ~user:i ~entry_gid:(i mod config.Config.n_groups) m)
      msgs
  in
  let t2 = Unix.gettimeofday () in
  Printf.printf "submissions: %d users encrypted and proven [%.2fs]\n" users (t2 -. t1);
  let outcome = Pr.run rng net subs in
  let t3 = Unix.gettimeofday () in
  Printf.printf "round executed in %.2fs (%.2fs wall total)\n" (t3 -. t2) (t3 -. t0);
  (match outcome.Pr.aborted with
  | None ->
      Printf.printf "delivered %d/%d messages:\n" (List.length outcome.Pr.delivered) users;
      List.iter (fun m -> Printf.printf "  %s\n" m) outcome.Pr.delivered
  | Some _ -> print_endline "round ABORTED (active attack or group failure detected)");
  if outcome.Pr.rejected_submissions <> [] then
    Printf.printf "rejected submissions: %s\n"
      (String.concat ", " (List.map string_of_int outcome.Pr.rejected_submissions));
  if outcome.Pr.blamed <> [] then
    Printf.printf "blamed users: %s\n" (String.concat ", " (List.map string_of_int outcome.Pr.blamed));
  if metrics then print_opcounts ops0

let metrics_flag =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Dump the metrics registry and group-op tallies.")

(* The modeled simulator charges costs without doing real group ops, so
   its flag doesn't promise tallies. *)
let sim_metrics_flag =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Dump the metrics registry.")

let round_cmd =
  let users = Arg.(value & opt int 8 & info [ "users" ] ~doc:"Number of users.") in
  let config =
    Cluster_flags.config
      { Config.cluster with Config.variant = Trap; n_servers = 12; group_size = 3;
        topology = Square 4 }
  in
  let fail = Arg.(value & opt int 0 & info [ "fail" ] ~doc:"Fail-stop this many servers of group 0.") in
  Cmd.v
    (Cmd.info "round" ~doc:"Run one protocol round with real cryptography (small scale).")
    Term.(const run_round $ config $ users $ fail $ metrics_flag)

(* ---- simulate ---- *)

let run_simulate app servers messages measured metrics =
  let config = { Config.paper_default with Config.n_servers = servers; Config.n_groups = servers } in
  let cal =
    if measured then Calibration.measure (Atom_group.Registry.zp_test ()) ()
    else Calibration.paper
  in
  let params =
    match app with
    | "microblog" -> Simulate.microblog ~cal config ~n_messages:messages
    | "dialing" -> Simulate.dialing ~cal config ~n_messages:messages
    | other -> failwith (Printf.sprintf "unknown app %S (microblog|dialing)" other)
  in
  Format.printf "%a@." Calibration.pp cal;
  let obs = if metrics then Atom_obs.Ctx.create () else Atom_obs.Ctx.noop in
  let r = Simulate.run ~obs params in
  Printf.printf
    "latency: %.1f s (%.1f min)\nDES events: %d\nconnections: %d\nbytes on the wire: %.3e\n"
    r.Simulate.latency (r.Simulate.latency /. 60.) r.Simulate.events r.Simulate.connections
    r.Simulate.bytes_sent;
  print_iteration_percentiles r.Simulate.iteration_times;
  if metrics then print_registry obs

let simulate_cmd =
  let app_arg = Arg.(value & opt string "microblog" & info [ "app" ] ~doc:"microblog|dialing.") in
  let servers = Arg.(value & opt int 1024 & info [ "servers" ] ~doc:"Network size.") in
  let messages = Arg.(value & opt int 1_000_000 & info [ "messages" ] ~doc:"Messages per round.") in
  let measured =
    Arg.(value & flag & info [ "measured" ] ~doc:"Calibrate with this host's costs instead of Table 3.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Modeled large-scale round over the discrete-event simulator.")
    Term.(const run_simulate $ app_arg $ servers $ messages $ measured $ sim_metrics_flag)

(* ---- trace ---- *)

(* Fault plan for a simulated round: kill a whole group and/or a random
   fraction of the fleet at virtual time [fail_at]. *)
let build_fault_plan ~(config : Config.t) ~kill_group ~kill_fraction ~fail_at :
    Faults.plan =
  (match kill_group with
  | Some gid -> Faults.fail_machines ~at:fail_at (Fleet.members config gid)
  | None -> [])
  @
  match kill_fraction with
  | Some fraction ->
      Faults.fail_fraction
        (Atom_util.Rng.create (config.Config.seed lxor 0xc4a5))
        ~at:fail_at ~fraction ~n:config.Config.n_servers
  | None -> []

let write_trace (path : string) (lanes : Atom_obs.Trace.lane list) : unit =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Atom_obs.Trace.to_chrome_json_lanes lanes))

(* A virtual-time round on the simulated fleet: the node runtime with
   calibrated compute charges, so the merged trace is a pure function of
   (seed, fault plan, loss) and two identical invocations write
   byte-identical JSON. Exits non-zero unless the round matched the
   single-process reference. *)
let run_trace scenario users seed kill_group kill_fraction fail_at loss out metrics =
  let ops0 = opcounts_before () in
  let module G = (val Atom_group.Registry.zp_test ()) in
  let module F = Atom_rpc.Fleet.Make (G) in
  let config =
    match scenario with
    | "microblog" -> Config.tiny ~variant:Config.Trap ~seed ()
    | "dialing" -> { (Config.tiny ~variant:Config.Basic ~seed ()) with Config.msg_bytes = 80 }
    | other -> failwith (Printf.sprintf "unknown scenario %S (microblog|dialing)" other)
  in
  let faults = build_fault_plan ~config ~kill_group ~kill_fraction ~fail_at in
  let obs = Atom_obs.Ctx.create ~tracing:true () in
  let r = F.run ~obs ~faults (Fleet.Sim { loss }) config (Fleet.Round { users }) in
  let o = r.Fleet.outcome in
  Printf.printf
    "%s: %d messages, %d groups, %d delivered; %.3f virtual s, %d DES events, %.0f bytes on the wire\n"
    scenario users config.Config.n_groups
    (List.length o.Atom_rpc.Node.delivered)
    r.latency r.events r.bytes_sent;
  if faults <> [] || loss > 0. then
    Printf.printf
      "churn: %d failures injected, %d recovery sweeps, %d role recoveries (%.2fs summed sweep-to-resume), %d retransmits, %d drops\n"
      r.failures_injected o.recovery_rounds
      (int_of_float (Atom_rpc.Fleet.counter r "node.recoveries"))
      (List.fold_left ( +. ) 0. o.recovery_seconds)
      r.retransmits r.messages_dropped;
  Option.iter (Printf.printf "round aborted: %s\n") o.cluster_abort;
  print_string (Atom_obs.Trace.Breakdown.render ~latency:r.latency r.lanes);
  Option.iter
    (fun path ->
      write_trace path r.lanes;
      Printf.printf "wrote %s (load it at https://ui.perfetto.dev or chrome://tracing)\n" path)
    out;
  if metrics then begin
    print_registry obs;
    print_opcounts ops0
  end;
  if not o.matched then exit 1

let trace_cmd =
  let scenario =
    Arg.(value & pos 0 string "microblog" & info [] ~docv:"SCENARIO" ~doc:"microblog|dialing.")
  in
  let users = Arg.(value & opt int 8 & info [ "users" ] ~doc:"Number of users.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let kill_group =
    Arg.(value & opt (some int) None & info [ "kill-group" ] ~doc:"Fail every member of this group mid-round.")
  in
  let kill_fraction =
    Arg.(value & opt (some float) None & info [ "kill-fraction" ] ~doc:"Fail a random fraction of all servers mid-round.")
  in
  let fail_at =
    Arg.(value & opt float 0.05 & info [ "fail-at" ] ~doc:"Virtual time (s) at which injected failures fire.")
  in
  let loss =
    Arg.(value & opt float 0. & info [ "loss" ] ~doc:"Per-message loss probability on every link.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~doc:"Write merged Chrome trace_event JSON here.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Virtual-time round on the simulated fleet: per-phase breakdown on stdout, \
             Perfetto-loadable merged trace JSON with --out.")
    Term.(
      const run_trace $ scenario $ users $ seed $ kill_group $ kill_fraction $ fail_at $ loss
      $ out $ metrics_flag)

(* ---- cluster ---- *)

(* The loopback atom_node fleet the cluster commands run: [who] prefixes
   the launcher's progress lines, [label] names the per-node logs. *)
let processes ~domains ~node_bin ~log_dir ~chaos ~label who : Fleet.placement =
  if log_dir <> None then Atom_obs.Log.set_level (Some Atom_obs.Log.Info);
  Fleet.Processes
    { chaos; domains; node_bin; log_dir; label;
      progress = (fun line -> Printf.printf "%s: %s\n%!" who line) }

(* Per-phase wall-time percentiles across the node lanes (each lane's
   tid-0 phase spans: the event-loop tracker, which tiles the node's round
   by construction) with slowest-node attribution: the cluster-wide "where
   did the round go" table. *)
let phase_summary_table (lanes : Atom_obs.Trace.lane list) : string =
  let module Tr = Atom_obs.Trace in
  let per_node =
    List.map
      (fun (l : Tr.lane) ->
        let tracks = Tr.Breakdown.tracks l.Tr.lane_events in
        let phases =
          match List.find_opt (fun trk -> trk.Tr.Breakdown.tid = 0) tracks with
          | Some trk -> trk.Tr.Breakdown.phases
          | None -> []
        in
        (l.Tr.lane_pid - 1, phases))
      lanes
  in
  let names =
    List.fold_left
      (fun acc (_, phases) ->
        List.fold_left
          (fun acc (nm, _) -> if List.mem nm acc then acc else acc @ [ nm ])
          acc phases)
      [] per_node
  in
  let b = Buffer.create 512 in
  Buffer.add_string b "cluster phase breakdown across nodes (event-loop wall time):\n";
  Buffer.add_string b
    (Printf.sprintf "  %-10s %9s %9s %9s %9s  %s\n" "phase" "p50(s)" "p90(s)" "p99(s)"
       "max(s)" "slowest");
  List.iter
    (fun nm ->
      let of_node (_, ph) = Option.value ~default:0. (List.assoc_opt nm ph) in
      let arr = Array.of_list (List.map of_node per_node) in
      let p q = Atom_util.Stats.percentile arr q in
      let slowest, _ =
        List.fold_left
          (fun (bs, bv) node -> if of_node node > bv then (fst node, of_node node) else (bs, bv))
          (-1, neg_infinity) per_node
      in
      Buffer.add_string b
        (Printf.sprintf "  %-10s %9.3f %9.3f %9.3f %9.3f  node %d\n" nm (p 50.) (p 90.)
           (p 99.) (p 100.) slowest))
    names;
  Buffer.contents b


let run_cluster config users domains node_bin timeout kill_group fail_at loss chaos metrics
    metrics_out trace_out log_dir =
  let ops0 = opcounts_before () in
  let module G = (val Atom_group.Registry.zp_test ()) in
  let module F = Fleet.Make (G) in
  (* --trace-out needs a live tracer on the coordinator too — its lane
     anchors the merged timebase. *)
  let obs =
    if metrics || metrics_out <> None || trace_out <> None then
      Atom_obs.Ctx.create ~tracing:(trace_out <> None) ()
    else Atom_obs.Ctx.noop
  in
  let faults =
    match kill_group with
    | Some gid -> Faults.fail_machines ~at:fail_at (Fleet.members config gid)
    | None -> []
  in
  (* --loss synthesizes a drop-only chaos spec (appended, so it wins over a
     drop= field in --chaos); the [after] guard keeps the handshake clean. *)
  let chaos =
    if loss > 0. then Printf.sprintf "%s;after=0.5;drop=%g;seed=%d" chaos loss config.Config.seed
    else chaos
  in
  let r =
    F.run ~obs ~timeout ~faults
      (processes ~domains ~node_bin ~log_dir ~chaos ~label:"round" "cluster[round]")
      config (Fleet.Round { users })
  in
  let o = r.Fleet.outcome in
  Printf.printf "cluster round: %d/%d messages delivered over TCP in %.2fs wall\n"
    (List.length o.Atom_rpc.Node.delivered) users r.latency;
  (match o.cluster_abort with Some d -> Printf.printf "cluster ABORTED: %s\n" d | None -> ());
  if o.rejected_submissions <> [] then
    Printf.printf "rejected submissions: %s\n"
      (String.concat ", " (List.map string_of_int o.rejected_submissions));
  if o.failed_nodes <> [] then
    Printf.printf "failed nodes: %s (%d recovery sweeps)\n"
      (String.concat ", " (List.map string_of_int o.failed_nodes))
      o.recovery_rounds;
  if o.recovery_seconds <> [] then
    Printf.printf "recovery repair times: %s s (sweep start to pipeline resumption)\n"
      (String.concat ", " (List.map (Printf.sprintf "%.2f") o.recovery_seconds));
  List.iter (fun m -> Printf.printf "  %s\n" m) o.delivered;
  List.iter
    (fun (sid, why) -> Printf.printf "cluster: node %d process failed: %s\n" sid why)
    r.child_failures;
  print_endline
    (if o.matched then "MATCH: cluster output equals the single-process reference"
     else "MISMATCH: cluster output differs from the single-process reference");
  (match metrics_out with
  | Some path ->
      let snap = Atom_obs.Snapshot.of_ctx ~node_id:config.Config.n_servers obs in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Atom_obs.Snapshot.to_json snap));
      Printf.printf "wrote %s\n" path
  | None -> ());
  (match trace_out with
  | None -> ()
  | Some path ->
      List.iter
        (fun (sid, e) -> Printf.printf "cluster: node %d snapshot invalid: %s\n" sid e)
        r.snapshot_errors;
      if r.snapshot_errors <> [] then
        Printf.printf "cluster: merged trace %s will be missing lanes\n" path;
      (* One merged Chrome trace: a pid lane per node plus the coordinator,
         node timestamps shifted onto the coordinator's clock by each
         node's Join-receipt offset. *)
      write_trace path r.lanes;
      Printf.printf "wrote %s (%d lanes; load it at https://ui.perfetto.dev)\n" path
        (List.length r.lanes);
      print_string
        (phase_summary_table
           (List.filter (fun l -> l.Atom_obs.Trace.lane_name <> "coordinator") r.lanes)));
  if metrics then begin
    print_registry obs;
    print_opcounts ops0
  end;
  (* A child that crashed is a failed run even when the plaintext check and
     the trace collection both succeeded — its exit status must propagate. *)
  if (not o.matched) || r.snapshot_errors <> [] || r.child_failures <> [] then exit 1

(* Flag set shared by `cluster`, `cluster soak` and `clients`. *)
let cluster_config variant = Cluster_flags.config { Config.cluster with Config.variant }
let cluster_users = Arg.(value & opt int 16 & info [ "users" ] ~doc:"Number of users.")

let cluster_domains =
  Arg.(
    value & opt int 0
    & info [ "domains" ]
        ~doc:
          "Worker domains per node for crypto batches (0 = honor ATOM_DOMAINS when set, \
           otherwise the measured default: host cores capped by the benched \
           recommended_domains).")

let cluster_node_bin =
  Arg.(value & opt (some string) None & info [ "node-bin" ] ~doc:"Path to the atom_node binary.")

let cluster_log_dir =
  Arg.(value & opt (some string) None & info [ "log-dir" ] ~doc:"Per-node verbose logs go here.")

let cluster_kill_group =
  Arg.(
    value & opt (some int) None
    & info [ "kill-group" ]
        ~doc:"SIGKILL every member process of this group mid-round (mirrors `trace`).")

let cluster_fail_at =
  Arg.(
    value & opt float 1.0
    & info [ "fail-at" ] ~doc:"Seconds after round start at which --kill-group fires.")

let cluster_loss =
  Arg.(
    value & opt float 0.
    & info [ "loss" ]
        ~doc:"Per-message drop probability on every node's transport (mirrors `trace`).")

let cluster_chaos =
  Arg.(
    value & opt string ""
    & info [ "chaos" ]
        ~doc:
          "Raw chaos spec forwarded to every node, e.g. \
           'drop=0.02;corrupt=0.01;partition=1:3:0,1|2,3'.")

let cluster_term =
  let timeout =
    Arg.(value & opt float 120. & info [ "timeout" ] ~doc:"Per-phase timeout budget (s).")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ]
          ~doc:"Write the coordinator's atom-metrics/1 JSON snapshot here.")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ]
          ~doc:
            "Trace every node's round on its wall clock, collect the buffers over the \
             control plane, and write one merged Chrome trace (a lane per node, \
             coordinator timebase) here. Non-zero exit if any node's snapshot is \
             missing or malformed.")
  in
  Term.(
    const run_cluster $ cluster_config Config.Nizk $ cluster_users $ cluster_domains
    $ cluster_node_bin $ timeout $ cluster_kill_group $ cluster_fail_at $ cluster_loss
    $ cluster_chaos $ metrics_flag $ metrics_out $ trace_out $ cluster_log_dir)

(* ---- cluster soak ---- *)

(* One epoch's fault plan. The rotation covers the ISSUE's error budget:
   process kills, an N-way partition, and corrupted/dropped/duplicated/
   delayed frames, with clean epochs interspersed as a control. *)
type epoch_plan = { ep_kills : Faults.plan; ep_chaos : string; ep_descr : string }

let plan_epoch ~smoke ~servers ~fail_at ~loss ~corrupt ~(chaos_seed : int) (e : int) :
    epoch_plan =
  let ids lo hi = String.concat "," (List.map string_of_int (List.init (hi - lo) (fun i -> lo + i))) in
  let half = max 1 (servers / 2) in
  (* A healthy loopback round finishes in well under a second, so kill and
     partition epochs stretch it with per-message delays; otherwise the
     round would be over before the scheduled fault lands. *)
  let stretch = "after=0.05;delay=0.6;delay_s=0.2" in
  let partition_spec =
    Printf.sprintf "%s;partition=0.4:1.6:%s|%s;seed=%d" stretch (ids 0 half) (ids half servers)
      chaos_seed
  in
  let corrupt_spec =
    Printf.sprintf "%s;drop=%g;corrupt=%g;dup=0.03;seed=%d" stretch loss corrupt chaos_seed
  in
  let kill =
    (* Index by kill-epoch ordinal, not epoch number: the kill cadence
       (every 3rd/4th epoch) must not alias with the server count. *)
    let victim = e / (if smoke then 3 else 4) mod servers in
    {
      ep_kills = [ Faults.fail ~at:fail_at victim ];
      ep_chaos = Printf.sprintf "%s;seed=%d" stretch chaos_seed;
      ep_descr = Printf.sprintf "kill node %d at %gs" victim fail_at;
    }
  in
  let partition =
    { ep_kills = []; ep_chaos = partition_spec; ep_descr = "partition halves 0.4-1.6s" }
  in
  let corrupt_ep =
    { ep_kills = []; ep_chaos = corrupt_spec; ep_descr = "corrupt+loss+dup+delay" }
  in
  let clean = { ep_kills = []; ep_chaos = ""; ep_descr = "clean" } in
  if smoke then
    (* Short CI schedule: one kill, one partition with corrupt frames, one
       clean epoch to confirm the fleet machinery is still sound. *)
    match e mod 3 with
    | 0 -> kill
    | 1 ->
        {
          ep_kills = [];
          ep_chaos = partition_spec ^ ";" ^ corrupt_spec;
          ep_descr = "partition + corrupt frames";
        }
    | _ -> clean
  else match e mod 4 with 0 -> clean | 1 -> kill | 2 -> partition | _ -> corrupt_ep

let chaos_fault_counters =
  [
    "chaos.drops"; "chaos.delays"; "chaos.dups"; "chaos.corruptions"; "chaos.partition_drops";
    "chaos.resets";
  ]

(* Long-haul soak: epochs of fresh fleets under a rotating fault schedule,
   each epoch's published plaintexts checked against the single-process
   reference. Telemetry (faults injected, recoveries completed, epochs
   survived, peak RSS) lands in a JSON file; any mismatch exits non-zero.
   This is the error budget for the real runtime (§4.5's claim under real
   processes and real TCP). *)
let run_soak config users domains node_bin timeout epochs fail_at loss corrupt smoke telemetry_out
    log_dir =
  let module G = (val Atom_group.Registry.zp_test ()) in
  let module F = Fleet.Make (G) in
  let epochs = if smoke then 3 else epochs in
  let servers = config.Config.n_servers and seed = config.Config.seed in
  let epoch_rows = ref [] in
  let mismatches = ref 0 in
  let total_kills = ref 0 in
  let total_recoveries = ref 0 in
  let total_recovery_sweeps = ref 0 in
  let total_faults = ref 0. in
  let peak_rss = ref 0 in
  let coord_rss = Array.make (max 1 epochs) 0 in
  let survived = ref 0 in
  (* Error-budget accounting: a fault counts as recovered iff its epoch
     finished with the published plaintexts matching the reference — the
     round absorbed it. Repair times (sweep → pipeline resumption) pool
     across epochs into one histogram. *)
  let faults_recovered = ref 0. in
  let all_recovery_s = ref [] in
  let self = Unix.getpid () in
  (try
     for e = 0 to epochs - 1 do
       let epoch_seed = seed + e in
       let plan =
         plan_epoch ~smoke ~servers ~fail_at ~loss ~corrupt ~chaos_seed:(seed + (1000 * (e + 1))) e
       in
       Printf.printf "soak epoch %d/%d (seed %d): %s\n%!" (e + 1) epochs epoch_seed plan.ep_descr;
       let obs = Atom_obs.Ctx.create () in
       let label = Printf.sprintf "epoch%d" e in
       let r =
         F.run ~obs ~timeout ~faults:plan.ep_kills
           (processes ~domains ~node_bin ~log_dir ~chaos:plan.ep_chaos ~label
              (Printf.sprintf "cluster[%s]" label))
           { config with Config.seed = epoch_seed }
           (Fleet.Round { users })
       in
       let o = r.Fleet.outcome in
       let counter = Fleet.counter r in
       let kills = List.length plan.ep_kills in
       let faults_this_epoch =
         List.fold_left (fun acc name -> acc +. counter name) 0. chaos_fault_counters
         +. float_of_int kills
       in
       total_faults := !total_faults +. faults_this_epoch;
       if o.Atom_rpc.Node.matched then faults_recovered := !faults_recovered +. faults_this_epoch;
       all_recovery_s := !all_recovery_s @ o.recovery_seconds;
       total_kills := !total_kills + kills;
       total_recoveries := !total_recoveries + int_of_float (counter "node.recoveries");
       total_recovery_sweeps := !total_recovery_sweeps + o.recovery_rounds;
       coord_rss.(e) <- Fleet.proc_status_kb self "VmRSS";
       peak_rss := max !peak_rss (max coord_rss.(e) r.peak_child_rss_kb);
       if o.matched then incr survived else incr mismatches;
       Printf.printf
         "soak epoch %d/%d: %s (%.2fs wall, %d faults injected, %d sweeps, %d share \
          recoveries, %d failed nodes, child peak RSS %d kB)\n%!"
         (e + 1) epochs
         (if o.matched then "MATCH" else "MISMATCH")
         r.latency
         (int_of_float faults_this_epoch)
         o.recovery_rounds
         (int_of_float (counter "node.recoveries"))
         (List.length o.failed_nodes) r.peak_child_rss_kb;
       let count name = Json.Int (int_of_float (counter name)) in
       let exit_dups =
         Atom_obs.Metrics.counter_value (Atom_obs.Ctx.metrics obs) "coord.exit_dups"
       in
       epoch_rows :=
         Json.(
           Obj
             [ ("epoch", Int e); ("seed", Int epoch_seed); ("plan", Str plan.ep_descr);
               ("matched", Bool o.matched); ("abort", opt_str o.cluster_abort);
               ("wall_s", rounded 3 r.latency);
               ("delivered", Int (List.length o.delivered));
               ("faults_injected", Int (int_of_float faults_this_epoch));
               ("recovery_sweeps", Int o.recovery_rounds);
               ("share_recoveries", count "node.recoveries");
               ("failed_nodes", Arr (List.map (fun i -> Int i) o.failed_nodes));
               ("bad_frames", count "node.bad_frames"); ("dups_dropped", count "node.dups_dropped");
               ("resends", count "node.resends"); ("exit_dups", Int (int_of_float exit_dups));
               ("recovery_seconds", Arr (List.map (rounded 3) o.recovery_seconds));
               ("coord_rss_kb", Int coord_rss.(e));
               ("peak_child_rss_kb", Int r.peak_child_rss_kb) ])
         :: !epoch_rows;
       if not o.matched then begin
         Printf.printf "soak: plaintext mismatch in epoch %d — stopping\n%!" e;
         raise Exit
       end
     done
   with Exit -> ());
  let summary =
    Json.(
      Obj
        [ ("epochs_scheduled", Int epochs); ("epochs_survived", Int !survived); ("mismatches", Int !mismatches);
          ("kills", Int !total_kills); ("faults_injected", Int (int_of_float !total_faults));
          ("recovery_sweeps", Int !total_recovery_sweeps); ("share_recoveries", Int !total_recoveries);
          ("peak_rss_kb", Int !peak_rss); ("coord_rss_first_kb", Int (if epochs > 0 then coord_rss.(0) else 0));
          ("coord_rss_last_kb", Int (if epochs > 0 then coord_rss.(max 0 (!survived + !mismatches - 1)) else 0)) ])
  in
  (* The error budget: every injected fault must land in an epoch whose
     output matched the reference ("recovered"), and no epoch may
     mismatch. CI asserts faults_injected == faults_recovered and
     verdict == "met" on this block. *)
  let rec_arr = Array.of_list !all_recovery_s in
  let rp q = if Array.length rec_arr = 0 then 0. else Atom_util.Stats.percentile rec_arr q in
  let faults_injected = int_of_float !total_faults in
  let recovered = int_of_float !faults_recovered in
  let unrecovered = faults_injected - recovered in
  let verdict = if unrecovered = 0 && !mismatches = 0 then "met" else "missed" in
  let error_budget =
    Json.(
      Obj
        [ ("faults_injected", Int faults_injected); ("faults_recovered", Int recovered);
          ("faults_unrecovered", Int unrecovered); ("mismatches", Int !mismatches);
          ( "recovery_time_s",
            Obj
              [ ("count", Int (Array.length rec_arr)); ("p50", rounded 3 (rp 50.)); ("p90", rounded 3 (rp 90.));
                ("p99", rounded 3 (rp 99.)); ("max", rounded 3 (rp 100.)) ] );
          ("verdict", Str verdict) ])
  in
  let epochs_json = Json.Arr (List.rev !epoch_rows) in
  let doc = Json.Obj [ ("epochs", epochs_json); ("summary", summary); ("error_budget", error_budget) ] in
  Out_channel.with_open_bin telemetry_out (fun oc -> Out_channel.output_string oc (Json.pretty doc));
  Printf.printf
    "soak: %d/%d epochs survived, %d mismatches, %d faults injected (%d recovered), %d \
     recovery sweeps, %d share recoveries, peak RSS %d kB\n\
     error budget %s; wrote %s\n"
    !survived epochs !mismatches faults_injected recovered !total_recovery_sweeps
    !total_recoveries !peak_rss verdict telemetry_out;
  if !mismatches > 0 then exit 1


let soak_cmd =
  let timeout =
    Arg.(value & opt float 60. & info [ "timeout" ] ~doc:"Per-epoch timeout budget (s).")
  in
  let epochs = Arg.(value & opt int 20 & info [ "epochs" ] ~doc:"Epochs (rounds) to run.") in
  let fail_at =
    Arg.(
      value & opt float 0.75
      & info [ "fail-at" ] ~doc:"Seconds into a kill epoch's round at which the kill fires.")
  in
  let loss =
    Arg.(value & opt float 0.01 & info [ "loss" ] ~doc:"Drop probability in corrupt epochs.")
  in
  let corrupt =
    Arg.(
      value & opt float 0.05
      & info [ "corrupt" ] ~doc:"Byzantine frame-mutation probability in corrupt epochs.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI preset: 3 epochs — one kill, one partition with corrupt frames, one clean.")
  in
  let telemetry_out =
    Arg.(
      value & opt string "soak-telemetry.json"
      & info [ "telemetry-out" ] ~doc:"Write the recovery-telemetry JSON here.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Long-haul chaos soak: epochs of fresh fleets under kills, partitions and corrupt \
          frames; every epoch's plaintexts are checked against the reference (non-zero exit \
          on any mismatch) and recovery telemetry is dumped as JSON.")
    Term.(
      const run_soak $ cluster_config Config.Basic $ cluster_users $ cluster_domains
      $ cluster_node_bin $ timeout $ epochs $ fail_at $ loss $ corrupt $ smoke $ telemetry_out
      $ cluster_log_dir)

let cluster_cmd =
  Cmd.group ~default:cluster_term
    (Cmd.info "cluster"
       ~doc:
         "Spawn N atom_node processes on loopback, run a round over real TCP, and check the \
          output against the single-process reference (default), or run the chaos soak \
          (`cluster soak`).")
    [ soak_cmd ]


(* ---- clients: submission-plane load generator ---- *)

(* Per-client tallies, written only by that client's thread (joined before
   the cross-check reads them). *)
type client_stats = {
  mutable cs_accepted : (string * int) list; (* honest plaintext, acked epoch *)
  mutable cs_rejected_msgs : string list; (* well-formed but misrouted: must never publish *)
  mutable cs_rejected : int;
  mutable cs_backpressure : int;
  mutable cs_retries : int;
  mutable cs_lost : int; (* honest submission never acked within the budget *)
  mutable cs_anomalies : int; (* misbehaving submission the plane accepted *)
  mutable cs_announces : int;
  mutable cs_bad_sigs : int;
}

(* Spawn an ingest-mode fleet, run N concurrent simulated clients against
   the entry heads over real TCP, and drive pipelined epochs with
   the fleet's ingest drive. The exit gate is the submission plane's
   contract: every accepted submission appears on the signed bulletin of
   exactly its acked epoch, nothing rejected or unacked ever appears, and
   every epoch's seal verifies under the publisher key — including under
   chaos drops and a mid-run kill of a non-entry-head node. *)
let run_clients config n_clients per_client arrival misbehave domains node_bin timeout epoch_s
    min_epochs pow_bits ingest_rate ingest_burst queue_cap loss kill_at json_out log_dir =
  let module G = (val Atom_group.Registry.zp_test ()) in
  let module Pr = Protocol.Make (G) in
  let module Node = Atom_rpc.Node.Make (G) (Atom_rpc.Tcp_transport.Check) in
  let module F = Fleet.Make (G) in
  let module Ctrl = Atom_wire.Control in
  let module Adm = Atom_ingest.Admission in
  let servers = config.Config.n_servers and groups = config.Config.n_groups in
  let seed = config.Config.seed in
  if config.Config.variant = Config.Trap then
    failwith "clients: the trap endgame has no submission plane (basic|nizk)";
  Config.validate config;
  let obs = Atom_obs.Ctx.create () in
  (* Chaos kill: a non-entry-head only. A dead entry head loses the units
     only it had admitted — the documented loss bound — so the zero-loss
     gate pins the kill to a mixing-only node (§4.5 recovers its roles). *)
  let heads = Array.init groups (fun gid -> (Fleet.members config gid).(0)) in
  let is_head sid = Array.exists (fun hd -> hd = sid) heads in
  let faults =
    if kill_at <= 0. then []
    else
      match List.find_opt (fun sid -> not (is_head sid)) (List.init servers Fun.id) with
      | None ->
          Printf.printf "clients: every server heads an entry group; skipping --kill-at\n";
          []
      | Some sid -> [ Faults.fail ~at:kill_at sid ]
  in
  (* The [after] guard keeps the bring-up handshake clean; everything past
     it — Submits, acks, step frames, announcements — rides the lossy
     transport and must still satisfy the exactly-once gate. *)
  let chaos = if loss > 0. then Printf.sprintf "after=1.0;drop=%g;seed=%d" loss seed else "" in
  let policy =
    { Adm.default_policy with
      Adm.rate = ingest_rate; burst = ingest_burst; pow_bits; queue_cap }
  in
  (* The same deterministic setup every node derived from --seed: the
     client threads need it to build onions. Read-only from here on, so
     sharing across threads is safe. *)
  let net = Pr.setup (Atom_util.Rng.create seed) config () in
  let _, bulletin_pk = Node.bulletin_keypair config in
  let active = Atomic.make n_clients in
  let stats =
    Array.init n_clients (fun _ ->
        {
          cs_accepted = []; cs_rejected_msgs = []; cs_rejected = 0; cs_backpressure = 0;
          cs_retries = 0; cs_lost = 0; cs_anomalies = 0; cs_announces = 0; cs_bad_sigs = 0;
        })
  in
  let misbehaving j = j < int_of_float (misbehave *. float_of_int n_clients) in
  let run_client j (c : Fleet.client) =
    let st = stats.(j) in
    let cid = c.id in
    let gid = j mod groups in
    let head = heads.(gid) in
    let rng = Atom_util.Rng.create (seed lxor (0x5eed0 + cid)) in
    let on_announce ~epoch ~digest ~signature ~posts =
      st.cs_announces <- st.cs_announces + 1;
      if
        not
          (Node.BSign.verify_sealed ~pk:bulletin_pk { Bulletin.epoch; posts; digest } ~signature)
      then st.cs_bad_sigs <- st.cs_bad_sigs + 1
    in
    for s = 0 to per_client - 1 do
      (* Misbehaving clients flood (no pacing) and rotate garbage and
         misrouted blobs through their traffic; honest ones pace to the
         arrival rate with uniform jitter. *)
      let bad = misbehaving j in
      if not bad then
        Unix.sleepf ((0.5 +. (float_of_int (Atom_util.Rng.int_below rng 1000) /. 1000.)) /. arrival);
      let msg = Printf.sprintf "c%d.%d" cid s in
      let kind =
        if not bad then `Honest
        else
          match s mod 3 with
          | 0 -> `Garbage
          | 1 when groups > 1 -> `Misrouted
          | _ -> `Honest
      in
      let blob =
        match kind with
        | `Garbage -> Atom_util.Rng.bytes rng 48
        | `Misrouted ->
            (* A perfectly valid onion handed to the wrong entry head:
               stays well-formed end to end, so its absence from the
               bulletin is the rejected-never-published check. *)
            Pr.Wire.submission_to_bytes
              (Pr.submit rng net ~user:cid ~entry_gid:((gid + 1) mod groups) msg)
        | `Honest -> Pr.Wire.submission_to_bytes (Pr.submit rng net ~user:cid ~entry_gid:gid msg)
      in
      let pow = if pow_bits > 0 then Adm.pow_solve ~bits:pow_bits ~blob else "" in
      let deadline = Unix.gettimeofday () +. timeout in
      let verdict = ref `Pending in
      while !verdict = `Pending && Unix.gettimeofday () < deadline do
        (match
           c.send ~dst:head
             (Ctrl.encode
                (Ctrl.Submit { client = cid; port = c.port; token = s; gid; epoch = 0; blob; pow }))
         with
        | Ok () -> ()
        | Error _ -> ());
        let wait_until = Unix.gettimeofday () +. 0.5 in
        while !verdict = `Pending && Unix.gettimeofday () < wait_until do
          match c.recv ~timeout:0.25 with
          | Ok (_, frame) -> (
              match Ctrl.decode frame with
              | Some (Ctrl.Submit_ack { token; status; epoch; retry_ms; queue_len = _ })
                when token = s ->
                  if status = Ctrl.submit_accepted then verdict := `Accepted epoch
                  else if status = Ctrl.submit_retry then begin
                    st.cs_backpressure <- st.cs_backpressure + 1;
                    Unix.sleepf (float_of_int (max 1 retry_ms) /. 1000.);
                    verdict := `Resend
                  end
                  else verdict := `Rejected
              | Some (Ctrl.Bulletin_announce { epoch; digest; signature; posts }) ->
                  on_announce ~epoch ~digest ~signature ~posts
              | _ -> ())
          | Error _ -> ()
        done;
        match !verdict with
        | `Resend | `Pending ->
            verdict := `Pending;
            st.cs_retries <- st.cs_retries + 1
        | _ -> ()
      done;
      match (!verdict, kind) with
      | `Accepted e, `Honest -> st.cs_accepted <- (msg, e) :: st.cs_accepted
      | `Accepted _, _ -> st.cs_anomalies <- st.cs_anomalies + 1
      | `Rejected, `Misrouted ->
          st.cs_rejected <- st.cs_rejected + 1;
          st.cs_rejected_msgs <- msg :: st.cs_rejected_msgs
      | `Rejected, _ -> st.cs_rejected <- st.cs_rejected + 1
      | `Pending, `Honest -> st.cs_lost <- st.cs_lost + 1
      | _ -> ()
    done;
    Atomic.decr active;
    (* Stay on the line for bulletin announcements: the flush epoch is
       sealed, mixed and announced only after every client has finished
       submitting. *)
    while not (c.finished ()) do
      match c.recv ~timeout:0.25 with
      | Ok (_, frame) -> (
          match Ctrl.decode frame with
          | Some (Ctrl.Bulletin_announce { epoch; digest; signature; posts }) ->
              on_announce ~epoch ~digest ~signature ~posts
          | _ -> ())
      | Error _ -> ()
    done
  in
  let r =
    F.run ~obs ~timeout ~faults
      ~clients:(List.init n_clients run_client)
      (processes ~domains ~node_bin ~log_dir ~chaos ~label:"clients" "clients")
      config
      (Fleet.Ingest
         { policy; epoch_s; min_epochs; keep_collecting = (fun () -> Atomic.get active > 0) })
  in
  let outcome = r.Fleet.outcome and child_failures = r.child_failures and wall = r.latency in
  let epochs = outcome.Node.ing_epochs in
  let posts_of e = Array.to_list e.Node.ep_sealed.Bulletin.posts in
  let published = List.concat_map posts_of epochs in
  let sum f = Array.fold_left (fun acc st -> acc + f st) 0 stats in
  let accepted = List.concat_map (fun st -> st.cs_accepted) (Array.to_list stats) in
  (* The contract, checked per acked epoch: an accepted submission is on
     the bulletin of exactly the epoch its ack named. *)
  let lost =
    List.filter
      (fun (m, e) ->
        match List.find_opt (fun ep -> ep.Node.ep_epoch = e) epochs with
        | Some ep -> not (List.mem m (posts_of ep))
        | None -> true)
      accepted
  in
  let ghosts = List.filter (fun p -> not (List.mem_assoc p accepted)) published in
  let dupes =
    let sorted = List.sort compare published in
    let rec count = function
      | a :: (b :: _ as tl) -> (if a = b then 1 else 0) + count tl
      | _ -> 0
    in
    count sorted
  in
  let rejected_on_board =
    List.concat_map (fun st -> st.cs_rejected_msgs) (Array.to_list stats)
    |> List.filter (fun m -> List.mem m published)
  in
  let sigs_ok =
    List.for_all
      (fun ep -> Node.BSign.verify_sealed ~pk:bulletin_pk ep.Node.ep_sealed ~signature:ep.Node.ep_signature)
      epochs
  in
  let lost_acks = sum (fun st -> st.cs_lost) in
  let anomalies = sum (fun st -> st.cs_anomalies) in
  let bad_sigs = sum (fun st -> st.cs_bad_sigs) in
  let lat = Array.of_list (List.map (fun ep -> ep.Node.ep_latency_s) epochs) in
  let lp q = if Array.length lat = 0 then 0. else Atom_util.Stats.percentile lat q in
  let n_accepted = List.length accepted in
  let collect_s = float_of_int (List.length epochs) *. epoch_s in
  let sps = if collect_s > 0. then float_of_int n_accepted /. collect_s else 0. in
  let ok =
    outcome.Node.ing_abort = None
    && List.length epochs >= min_epochs
    && lost = [] && ghosts = [] && dupes = 0 && rejected_on_board = [] && lost_acks = 0
    && anomalies = 0 && sigs_ok && bad_sigs = 0 && child_failures = []
  in
  Printf.printf
    "clients: %d clients, %d epochs published, %d accepted (%d on bulletin), %d rejected, \
     %d backpressure acks, %d retries in %.2fs wall\n"
    n_clients (List.length epochs) n_accepted
    (List.length published)
    (sum (fun st -> st.cs_rejected))
    (sum (fun st -> st.cs_backpressure))
    (sum (fun st -> st.cs_retries))
    wall;
  List.iter
    (fun ep ->
      Printf.printf "  epoch %d: %d posts, %d units mixed, seal->bulletin %.3fs\n"
        ep.Node.ep_epoch
        (Array.length ep.Node.ep_sealed.Bulletin.posts)
        ep.Node.ep_mixed ep.Node.ep_latency_s)
    epochs;
  Printf.printf
    "clients: %.1f accepted submissions/s (%.2f per node), epoch seal->bulletin p50/p99 \
     %.3f/%.3f s, %d announcements heard\n"
    sps
    (sps /. float_of_int servers)
    (lp 50.) (lp 99.)
    (sum (fun st -> st.cs_announces));
  (match outcome.Node.ing_abort with
  | Some a -> Printf.printf "clients: coordinator ABORT: %s\n" a
  | None -> ());
  if outcome.Node.ing_failed_nodes <> [] then
    Printf.printf "clients: failed nodes %s (%d recovery sweeps)\n"
      (String.concat ", " (List.map string_of_int outcome.Node.ing_failed_nodes))
      outcome.Node.ing_recovery_rounds;
  if lost <> [] then
    Printf.printf "clients: LOST %d accepted submissions (e.g. %s @ epoch %d)\n"
      (List.length lost)
      (fst (List.hd lost))
      (snd (List.hd lost));
  if ghosts <> [] then
    Printf.printf "clients: %d bulletin posts nobody submitted\n" (List.length ghosts);
  if dupes > 0 then Printf.printf "clients: %d duplicated bulletin posts\n" dupes;
  if rejected_on_board <> [] then
    Printf.printf "clients: %d REJECTED submissions reached the bulletin\n"
      (List.length rejected_on_board);
  if lost_acks > 0 then Printf.printf "clients: %d honest submissions never acked\n" lost_acks;
  if anomalies > 0 then
    Printf.printf "clients: %d misbehaving submissions were accepted\n" anomalies;
  if (not sigs_ok) || bad_sigs > 0 then print_endline "clients: bulletin signature check FAILED";
  List.iter
    (fun (sid, why) -> Printf.printf "clients: node %d process failed: %s\n" sid why)
    child_failures;
  print_endline
    (if ok then "OK: every accepted submission is on the signed bulletin exactly once"
     else "FAILED: submission-plane contract violated");
  (match json_out with
  | None -> ()
  | Some path ->
      let n x = Json.Int x and total f = Json.Int (sum f) in
      let doc =
        Json.(
          Obj
            [ ("schema", Str "atom-clients/1"); ("clients", n n_clients); ("servers", n servers);
              ("groups", n groups); ("epochs", n (List.length epochs)); ("accepted", n n_accepted);
              ("published", n (List.length published)); ("rejected", total (fun st -> st.cs_rejected));
              ("backpressure", total (fun st -> st.cs_backpressure)); ("retries", total (fun st -> st.cs_retries));
              ("lost_acks", n lost_acks); ("lost_published", n (List.length lost));
              ("ghost_published", n (List.length ghosts)); ("duplicate_published", n dupes);
              ("rejected_on_bulletin", n (List.length rejected_on_board)); ("anomalies", n anomalies);
              ("announces", total (fun st -> st.cs_announces)); ("bad_sigs", n bad_sigs);
              ("submissions_per_sec", rounded 3 sps);
              ("submissions_per_sec_per_node", rounded 4 (sps /. float_of_int servers));
              ("epoch_latency_s", Obj [ ("p50", rounded 4 (lp 50.)); ("p99", rounded 4 (lp 99.)) ]);
              ("wall_s", rounded 3 wall); ("failed_nodes", Arr (List.map n outcome.Node.ing_failed_nodes));
              ("child_failures", Arr (List.map (fun (sid, why) -> Arr [ n sid; Str why ]) child_failures));
              ("abort", opt_str outcome.Node.ing_abort); ("verdict", Str (if ok then "ok" else "failed")) ])
      in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Json.pretty doc));
      Printf.printf "wrote %s\n" path);
  if not ok then exit 1

let clients_cmd =
  let n_clients =
    Arg.(value & opt int 200 & info [ "clients" ] ~doc:"Concurrent simulated clients.")
  in
  let per_client =
    Arg.(value & opt int 3 & info [ "per-client" ] ~doc:"Submissions per client.")
  in
  let arrival =
    Arg.(
      value & opt float 2.
      & info [ "arrival" ] ~doc:"Honest per-client submission arrival rate (1/s).")
  in
  let misbehave =
    Arg.(
      value & opt float 0.1
      & info [ "misbehave" ]
          ~doc:
            "Fraction of clients that flood and rotate garbage / misrouted blobs through \
             their traffic.")
  in
  let timeout =
    Arg.(value & opt float 120. & info [ "timeout" ] ~doc:"Bring-up / per-submission / idle budget (s).")
  in
  let epoch_s =
    Arg.(value & opt float 2. & info [ "epoch-s" ] ~doc:"Seal an ingest epoch every this many seconds.")
  in
  let min_epochs =
    Arg.(value & opt int 3 & info [ "min-epochs" ] ~doc:"Pipelined epochs to run at minimum.")
  in
  let pow_bits =
    Arg.(
      value & opt int 0
      & info [ "pow-bits" ] ~doc:"Hashcash difficulty (nodes enforce, clients solve); 0 disables.")
  in
  let ingest_rate =
    Arg.(value & opt float 20. & info [ "ingest-rate" ] ~doc:"Admission: sustained submissions/s per client.")
  in
  let ingest_burst =
    Arg.(value & opt float 8. & info [ "ingest-burst" ] ~doc:"Admission: token-bucket depth.")
  in
  let queue_cap =
    Arg.(value & opt int 4096 & info [ "queue-cap" ] ~doc:"Per-epoch intake bound (backpressure above).")
  in
  let kill_at =
    Arg.(
      value & opt float 0.
      & info [ "kill-at" ]
          ~doc:"SIGKILL one non-entry-head node this many seconds after the fleet is up (0 disables).")
  in
  let json_out =
    Arg.(value & opt (some string) None & info [ "json-out" ] ~doc:"Write the run summary JSON here.")
  in
  Cmd.v
    (Cmd.info "clients"
       ~doc:
         "Submission-plane load generator: an ingest-mode fleet on loopback, N concurrent \
          TCP clients (some misbehaving) submitting into entry groups, pipelined epochs \
          sealed on a timer, and a signed bulletin per epoch. Non-zero exit if any accepted \
          submission is lost or duplicated, anything rejected is published, or a node \
          process fails unexpectedly.")
    Term.(
      const run_clients $ cluster_config Config.Basic $ n_clients $ per_client $ arrival
      $ misbehave $ cluster_domains $ cluster_node_bin $ timeout
      $ epoch_s $ min_epochs $ pow_bits $ ingest_rate $ ingest_burst $ queue_cap
      $ cluster_loss $ kill_at $ json_out $ cluster_log_dir)

(* ---- sizing ---- *)

let run_sizing f groups bits h_max =
  Printf.printf "adversarial fraction f=%.2f, %d groups, 2^-%d failure budget\n" f groups bits;
  Printf.printf "%-4s %10s\n" "h" "k";
  for h = 1 to h_max do
    Printf.printf "%-4d %10d\n" h
      (Atom_topology.Group_sizing.required_group_size ~f ~groups ~h ~security_bits:bits ())
  done

let sizing_cmd =
  let f = Arg.(value & opt float 0.2 & info [ "f" ] ~doc:"Adversarial fraction.") in
  let groups = Arg.(value & opt int 1024 & info [ "groups" ] ~doc:"Number of groups.") in
  let bits = Arg.(value & opt int 64 & info [ "bits" ] ~doc:"Security bits.") in
  let h_max = Arg.(value & opt int 20 & info [ "h-max" ] ~doc:"Largest h to tabulate.") in
  Cmd.v
    (Cmd.info "sizing" ~doc:"Anytrust / many-trust group sizing (Appendix B).")
    Term.(const run_sizing $ f $ groups $ bits $ h_max)

(* ---- calibrate ---- *)

let run_calibrate backend =
  let g = Atom_group.Registry.by_name backend in
  Format.printf "%a@." Calibration.pp (Calibration.measure g ())

let calibrate_cmd =
  let backend =
    Arg.(value & opt string "zp-test" & info [ "group" ] ~doc:"p256|zp-test|zp-medium.")
  in
  Cmd.v
    (Cmd.info "calibrate" ~doc:"Measure this host's cryptographic costs.")
    Term.(const run_calibrate $ backend)

let () =
  let info = Cmd.info "atom_cli" ~doc:"Atom: horizontally scaling strong anonymity." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            round_cmd; simulate_cmd; trace_cmd; cluster_cmd; clients_cmd;
            sizing_cmd; calibrate_cmd;
          ]))
