(* One fleet driver: bring up a [Node.Make] fleet, drive one round or a
   session of ingest epochs through its coordinator, collect what the
   fleet reports, and take it down, in one of three placements.

   - [Sim]: one engine process per server plus one for the coordinator,
     over the discrete-event simulator ([Sim_transport]) in virtual time.
     Compute is charged through [run_node]'s [charge] hook: each pipeline
     step occupies one core of its node's machine for a time priced from
     the paper's Table 3 ([Calibration.paper]), so the virtual latency is
     a pure function of (config, fault plan, loss) and identical runs
     replay bit-identically, trace included. The fleet is the paper's mix
     (§6.2: cores, Tor-like bandwidths, four latency clusters), drawn from
     the config seed.
   - [Threads]: one thread per server in this process, over a loopback
     TCP full mesh.
   - [Processes]: one [atom_node] process per server on loopback, brought
     up with the Join → Peers → Ack handshake.

   The nodes, the coordinator, the wire codec and the §4.5 routing are
   the same in all three; the transport, the clock and the way a node dies
   differ. A fault plan's [Fail sid] at [at] seconds after the fleet is up
   stops machine [sid] on the engine clock, closes node [sid]'s endpoint,
   or SIGKILLs its process; the survivors detect the death and recover
   exactly as over TCP. *)

open Atom_core
module Tcp = Tcp_transport
module Ctrl = Atom_wire.Control
module Ctx = Atom_obs.Ctx
module Snapshot = Atom_obs.Snapshot
module Trace = Atom_obs.Trace
module Faults = Atom_sim.Faults

(* The members of group [gid] as every node derives them: the beacon
   formation [Protocol.setup] runs, without its key generation. Fault
   plans and entry-head lookups name servers with it. *)
let members (config : Config.t) (gid : int) : int array =
  if gid < 0 || gid >= config.Config.n_groups then
    invalid_arg
      (Printf.sprintf "Fleet.members: group %d; group ids are 0..%d" gid
         (config.Config.n_groups - 1));
  (Group_formation.of_config config).Group_formation.groups.(gid).Group_formation.members

type processes = {
  chaos : string; (* Chaos_transport spec every node runs behind *)
  domains : int; (* worker domains per process; 0 = ATOM_DOMAINS, else the measured default *)
  node_bin : string option; (* default: atom_node beside this executable *)
  log_dir : string option; (* per-node verbose logs, [label]-node-i.log *)
  label : string; (* names the logs *)
  progress : string -> unit; (* bring-up, pool and kill lines *)
}

type placement =
  | Sim of { loss : float (* per-message loss probability on every link *) }
  | Threads of { chaos : string }
  | Processes of processes

type ingest = {
  policy : Atom_ingest.Admission.policy;
      (* a node process is handed rate, burst, pow_bits and queue_cap *)
  epoch_s : float;
  min_epochs : int;
  keep_collecting : unit -> bool;
}

type _ drive =
  | Round : { users : int } -> Node.cluster_outcome drive
  | Ingest : ingest -> Node.ingest_outcome drive

(* An endpoint outside the fleet, run beside the coordinator on its own
   thread (or engine process): a submitting client, an injector. *)
type client = {
  id : int; (* servers + 1 + its index *)
  port : int; (* its TCP listen port, the return path a Submit names; 0 on Sim *)
  send : dst:int -> string -> (unit, Transport.error) result;
  recv : timeout:float -> (int * string, Transport.error) result;
  sleep : float -> unit; (* on the fleet's clock *)
  finished : unit -> bool; (* the coordinator has returned *)
}

type 'o report = {
  outcome : 'o;
  latency : float; (* Sim: virtual seconds; otherwise wall seconds since bring-up began *)
  failures_injected : int; (* fault-plan kills that landed *)
  node_counters : (string * float) list; (* summed over the nodes' registries *)
  lanes : Trace.lane list; (* one per node, then the coordinator; TCP: traced rounds only *)
  snapshot_errors : (int * string) list; (* traced TCP rounds: live nodes with no valid snapshot *)
  child_failures : (int * string) list; (* node processes that died of something no kill sent *)
  peak_child_rss_kb : int;
  events : int; (* Sim: DES events run *)
  bytes_sent : float; (* Sim: link-layer bytes *)
  retransmits : int; (* Sim *)
  messages_dropped : int; (* Sim *)
}

let counter (r : _ report) (name : string) : float =
  Option.value ~default:0. (List.assoc_opt name r.node_counters)

let report (outcome : 'o) ~(latency : float) : 'o report =
  {
    outcome; latency; failures_injected = 0; node_counters = []; lanes = []; snapshot_errors = [];
    child_failures = []; peak_child_rss_kb = 0; events = 0; bytes_sent = 0.; retransmits = 0;
    messages_dropped = 0;
  }

let host = "127.0.0.1"

(* Every TCP endpoint's send budget: a probe to a dead peer fails within
   ~1.75 s instead of the default 5 s ladder. *)
let send_timeout = 2.0

let node_poll = 0.2 (* a TCP node's receive timeout, seconds *)

(* The coordinator's receive timeout, seconds: ingest seals on a timer. *)
let recv_timeout : type o. o drive -> float = function Round _ -> 0.25 | Ingest _ -> 0.1

let policy : type o. o drive -> Atom_ingest.Admission.policy option = function
  | Round _ -> None
  | Ingest i -> Some i.policy

(* The outcome of a run whose fleet never came up. *)
let aborted : type o. o drive -> string -> o =
 fun drive why ->
  match drive with
  | Round _ ->
      {
        Node.delivered = []; reference = []; matched = false; cluster_abort = Some why;
        rejected_submissions = []; recovery_rounds = 0; failed_nodes = []; recovery_seconds = [];
        node_snapshots = [];
      }
  | Ingest _ ->
      {
        Node.ing_epochs = []; ing_abort = Some why; ing_recovery_rounds = 0; ing_failed_nodes = [];
        ing_board = Bulletin.create ();
      }

(* Counters summed by name over the nodes' snapshots. *)
let sum_counters (snaps : Snapshot.t list) : (string * float) list =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun snap ->
      List.iter
        (fun (name, v) ->
          Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name)))
        (Snapshot.counters snap))
    snaps;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Each node gets a context of the coordinator's kind. *)
let node_contexts (obs : Ctx.t) (n : int) : Ctx.t array =
  Array.init n (fun _ ->
      if Ctx.enabled obs then Ctx.create ~tracing:(Ctx.tracing obs) () else Ctx.noop)

let lane (sid : int) ?(offset = 0.) (events : Trace.event list) : Trace.lane =
  { Trace.lane_pid = sid + 1; lane_name = Printf.sprintf "node %d" sid; lane_offset = offset;
    lane_events = events }

let coordinator_lane (n : int) (obs : Ctx.t) : Trace.lane =
  { Trace.lane_pid = n + 1; lane_name = "coordinator"; lane_offset = 0.;
    lane_events = Trace.events (Ctx.tracer obs) }

(* Read an integer kB field (VmHWM, VmRSS) out of /proc/<pid>/status;
   0 when unavailable (non-Linux host, already-dead pid). *)
let proc_status_kb (pid : int) (field : string) : int =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match
    In_channel.with_open_text path (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0
          | Some line ->
              if String.starts_with ~prefix:(field ^ ":") line then
                let digits =
                  String.to_seq line |> Seq.filter (fun c -> c >= '0' && c <= '9') |> String.of_seq
                in
                Option.value ~default:0 (int_of_string_opt digits)
              else go ()
        in
        go ())
  with
  | v -> v
  | exception Sys_error _ -> 0

(* Reap child node processes and report unexpected failures: a child
   that exited non-zero or died to a signal nobody meant to send.
   [deliberate] holds the node ids a fault plan killed; stragglers
   force-killed here (when [kill]) are excluded the same way. *)
let reap_children ~(pids : int array) ~(deliberate : (int, unit) Hashtbl.t) ~(kill : bool) :
    (int * string) list =
  let idx_of pid =
    let r = ref (-1) in
    Array.iteri (fun i p -> if p = pid then r := i) pids;
    !r
  in
  let forced = Hashtbl.create 4 in
  let failures = ref [] in
  let note pid st =
    let i = idx_of pid in
    if not (Hashtbl.mem forced pid || Hashtbl.mem deliberate i) then
      match st with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c -> failures := (i, Printf.sprintf "exit status %d" c) :: !failures
      | Unix.WSIGNALED s -> failures := (i, Printf.sprintf "killed by signal %d" s) :: !failures
      | Unix.WSTOPPED _ -> ()
  in
  let force pid =
    Hashtbl.replace forced pid ();
    try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  let remaining = ref (Array.to_list pids) in
  while !remaining <> [] && Unix.gettimeofday () < deadline do
    remaining :=
      List.filter
        (fun pid ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> true
          | _, st ->
              note pid st;
              false
          | exception Unix.Unix_error _ -> false)
        !remaining;
    if !remaining <> [] && not kill then Unix.sleepf 0.05
    else if !remaining <> [] then List.iter force !remaining
  done;
  List.iter
    (fun pid ->
      force pid;
      match Unix.waitpid [] pid with _, st -> note pid st | exception Unix.Unix_error _ -> ())
    !remaining;
  List.sort compare !failures

let remove_dir (dir : string) : unit =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Sys.rmdir dir with Sys_error _ -> ()

(* A TCP fleet past bring-up, as the driver sees it. *)
type nodes = {
  ports : int array; (* listen port per server *)
  offsets : float array; (* per-node lane offset on the coordinator's clock *)
  kill : int -> float -> unit; (* server, seconds since the fleet came up *)
  sample : unit -> unit; (* one watcher tick *)
  finish : unit -> (int * string) list * Snapshot.t list * int;
      (* stop the nodes: child failures, the nodes' final registries, peak child RSS (kB) *)
}

exception Bring_up of string

(* Spawn one atom_node per server and run the coordinator side of the
   Join → Peers → Ack handshake on [coord]. Every node hands its registry
   back through a --metrics-out file in [metrics_dir]. *)
let processes_up ~(config : Config.t) ~timeout ~traced ~ingest ~metrics_dir (p : processes)
    (coord : Tcp.t) ~(t0 : float) : (nodes, string * (int * string) list) result =
  let servers = config.Config.n_servers in
  let node_bin =
    match p.node_bin with
    | Some b -> b
    | None ->
        (* dune names it atom_node.exe, an installed copy plain atom_node *)
        let dir = Filename.dirname Sys.executable_name in
        let exe = Filename.concat dir "atom_node.exe" in
        if Sys.file_exists exe then exe else Filename.concat dir "atom_node"
  in
  (match p.log_dir with Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755 | _ -> ());
  let metrics_file i = Filename.concat metrics_dir (Printf.sprintf "node-%d.metrics" i) in
  let ingest_args =
    match ingest with
    | None -> []
    | Some (a : Atom_ingest.Admission.policy) ->
        [ "--ingest"; "--ingest-rate"; Printf.sprintf "%g" a.rate;
          "--ingest-burst"; Printf.sprintf "%g" a.burst;
          "--ingest-pow-bits"; string_of_int a.pow_bits;
          "--ingest-queue-cap"; string_of_int a.queue_cap ]
  in
  let pids =
    Array.init servers (fun i ->
        let args =
          [ node_bin; "--node-id"; string_of_int i;
            "--coordinator-port"; string_of_int (Tcp.port coord) ]
          @ Config.to_args config
          @ [ "--domains"; string_of_int p.domains;
              "--recv-timeout"; Printf.sprintf "%g" node_poll;
              "--max-idle"; string_of_int (max 1 (int_of_float (timeout /. node_poll)));
              "--metrics-out"; metrics_file i ]
          @ (if p.chaos = "" then [] else [ "--chaos"; p.chaos ])
          @ (if traced then [ "--trace" ] else [])
          @ ingest_args
        in
        match p.log_dir with
        | None ->
            Unix.create_process node_bin (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr
        | Some dir ->
            let log =
              Unix.openfile
                (Filename.concat dir (Printf.sprintf "%s-node-%d.log" p.label i))
                [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
            in
            let args = Array.of_list (args @ [ "--verbose" ]) in
            let pid = Unix.create_process node_bin args Unix.stdin log log in
            Unix.close log;
            pid)
  in
  let deliberate = Hashtbl.create 4 in
  try
    (* Every node joins with its listen port, learns the fleet, and acks;
       only then does protocol traffic start. The peer list is re-sent
       until everyone acked (nodes re-ack every copy), so early chaos
       drops cannot wedge the handshake. A node's trace clock starts just
       before its Join send, so the Join's receipt time on the
       coordinator's clock (loopback: sub-ms later) is its lane offset. *)
    let deadline = Unix.gettimeofday () +. timeout in
    let ports = Array.make servers (-1) in
    let offsets = Array.make servers 0. in
    let joined = ref 0 in
    while !joined < servers && Unix.gettimeofday () < deadline do
      match Tcp.recv coord ~timeout:0.5 with
      | Ok (_, frame) -> (
          match Ctrl.decode frame with
          | Some (Ctrl.Join { node_id; port }) when node_id >= 0 && node_id < servers ->
              if ports.(node_id) < 0 then begin
                incr joined;
                offsets.(node_id) <- Unix.gettimeofday () -. t0
              end;
              ports.(node_id) <- port;
              Tcp.add_peer coord ~node_id ~host ~port
          | _ -> ())
      | Error _ -> ()
    done;
    if !joined < servers then
      raise (Bring_up (Printf.sprintf "%d/%d nodes joined before timeout" !joined servers));
    let peers = Ctrl.encode (Ctrl.Peers { peers = Array.mapi (fun i port -> (i, port)) ports }) in
    let send_peers () = for i = 0 to servers - 1 do ignore (Tcp.send coord ~dst:i peers) done in
    send_peers ();
    let acked = Hashtbl.create servers in
    let last_sent = ref (Unix.gettimeofday ()) in
    while Hashtbl.length acked < servers && Unix.gettimeofday () < deadline do
      (match Tcp.recv coord ~timeout:0.5 with
      | Ok (_, frame) -> (
          match Ctrl.decode frame with
          | Some (Ctrl.Ack { token }) -> Hashtbl.replace acked token ()
          | _ -> ())
      | Error _ -> ());
      if Hashtbl.length acked < servers && Unix.gettimeofday () -. !last_sent > 2. then begin
        last_sent := Unix.gettimeofday ();
        send_peers ()
      end
    done;
    let acks = Hashtbl.length acked in
    if acks < servers then
      raise (Bring_up (Printf.sprintf "%d/%d nodes acked the peer list" acks servers));
    p.progress
      (Printf.sprintf "%d node processes on loopback (coordinator port %d) [%.2fs]" servers
         (Tcp.port coord) (Unix.gettimeofday () -. t0));
    let peak = ref 0 in
    let kill sid at =
      p.progress (Printf.sprintf "killing node %d (pid %d) at %.2fs" sid pids.(sid) at);
      Hashtbl.replace deliberate sid ();
      try Unix.kill pids.(sid) Sys.sigkill with Unix.Unix_error _ -> ()
    in
    let finish () =
      let failures = reap_children ~pids ~deliberate ~kill:false in
      (* A killed node leaves no exit dump to fold in. *)
      let snaps =
        List.filter_map
          (fun i ->
            match In_channel.with_open_bin (metrics_file i) In_channel.input_all with
            | s -> Result.to_option (Snapshot.of_json s)
            | exception Sys_error _ -> None)
          (List.init servers Fun.id)
      in
      (failures, snaps, !peak)
    in
    let sample () = Array.iter (fun pid -> peak := max !peak (proc_status_kb pid "VmHWM")) pids in
    Ok { ports; offsets; kill; sample; finish }
  with Bring_up msg -> Error (msg, reap_children ~pids ~deliberate ~kill:true)

module Over (G : Atom_group.Group_intf.GROUP) (S : Transport.S with type t = Sim_transport.t) =
struct
  module Coordinator (T : Transport.S) = struct
    module N = Node.Make (G) (T)

    let run (type o) (drive : o drive) ~obs ~clock ?pool ~(config : Config.t) ~timeout
        ~stall_strikes ~collect_stats (t : T.t) : o =
      let recv_timeout = recv_timeout drive in
      let max_idle = max 1 (int_of_float (timeout /. recv_timeout)) in
      match drive with
      | Round { users } ->
          N.run_coordinator ~obs ~clock ?pool t ~config ~users ~recv_timeout ~max_idle
            ~stall_strikes ~collect_stats ()
      | Ingest i ->
          N.run_ingest_coordinator ~obs ~clock ?pool t ~config ~recv_timeout ~max_idle
            ~stall_strikes ~epoch_s:i.epoch_s ~min_epochs:i.min_epochs
            ~keep_collecting:i.keep_collecting ()
  end

  module Sim_coord = Coordinator (S)
  module Sim_node = Sim_coord.N
  module Chaos = Chaos_transport.Make (Tcp.Check)
  module Tcp_node = Node.Make (G) (Chaos.Check)
  module Tcp_coord = Coordinator (Tcp.Check)

  let clusters = 4

  (* Virtual seconds per unit component of a pipeline step. *)
  let per_op : Node.step_cost -> float = function
    | Node.Verify -> Calibration.paper.Calibration.encproof_verify
    | Node.Shuffle -> Calibration.paper.Calibration.shuffle_per_msg
    | Node.Reenc -> Calibration.paper.Calibration.reenc

  (* The coordinator hears nothing between sealing the round and the first
     exit batch, so its stall detector must outwait a whole fault-free
     pipeline, or it sweeps for nothing. That pipeline is T layers of
     2q + 1 hops (q shuffle hops, q ReEnc hops, one hand-off), each priced
     at its worst: a first connection over the slowest link (three one-way
     latencies) plus every kind of step cost over one group's share of the
     units (at most two per user: Trap's message and trap). The detector
     waits twice that, and never less than the coordinator's default 8
     receives. Deaths do not wait for it: the node whose send fails
     reports them at once. *)
  let stall_strikes (config : Config.t) ~(users : int) ~(width : float) ~(slowest_link : float) :
      int =
    let group_units = ((2 * users) + config.Config.n_groups - 1) / config.Config.n_groups in
    let step =
      float_of_int group_units *. width
      *. (per_op Node.Verify +. per_op Node.Shuffle +. per_op Node.Reenc)
    in
    let hops = Config.iterations config * ((2 * Config.quorum config) + 1) in
    let pipeline = float_of_int hops *. ((3. *. slowest_link) +. step) in
    max 8 (int_of_float (Float.ceil (2. *. pipeline /. recv_timeout (Round { users }))))

  let sim (type o) ~obs ~timeout ~faults ~clients ~loss (config : Config.t) (drive : o drive) :
      o report =
    let open Atom_sim in
    let n = config.Config.n_servers in
    let engine = Engine.create ~obs () in
    let net = Net.create engine ~loss_prob:loss ~loss_seed:(config.Config.seed lxor 0x10ad) in
    let fleet_rng = Atom_util.Rng.create config.Config.seed in
    let machines =
      Array.init (n + 1 + List.length clients) (fun id ->
          Machine.create engine ~id ~cores:(Machine.paper_cores fleet_rng)
            ~bandwidth:(Machine.paper_bandwidth fleet_rng)
            ~cluster:(Atom_util.Rng.int_below fleet_rng clusters))
    in
    let injector = Faults.install engine ~machines faults in
    let endpoints = Sim_transport.fleet engine net ~machines in
    let clock () = Engine.now engine in
    let pool = Atom_exec.Pool.default () in
    let width = float_of_int (Sim_node.Pr.unit_width config) in
    let node_obs = node_contexts obs n in
    for sid = 0 to n - 1 do
      let charge cost ~units =
        let seconds = float_of_int units *. width *. per_op cost in
        if seconds > 0. then Machine.job machines.(sid) ~seconds
      in
      Engine.spawn engine (fun () ->
          Sim_node.run_node ~obs:node_obs.(sid) ~clock ?pool ~charge endpoints.(sid) ~config
            ~node_id:sid ~coord:n ?ingest:(policy drive) ())
    done;
    let outcome = ref None in
    let stall_strikes =
      match drive with
      | Round { users } -> stall_strikes config ~users ~width ~slowest_link:net.Net.inter_max
      | Ingest _ -> 8
    in
    Engine.spawn engine (fun () ->
        outcome :=
          Some
            (Sim_coord.run drive ~obs ~clock ?pool ~config ~timeout ~stall_strikes
               ~collect_stats:false endpoints.(n)));
    List.iteri
      (fun j body ->
        let ep = endpoints.(n + 1 + j) in
        Engine.spawn engine (fun () ->
            body
              { id = n + 1 + j; port = 0; send = S.send ep; recv = S.recv ep;
                sleep = Engine.sleep engine; finished = (fun () -> !outcome <> None) }))
      clients;
    let latency = Engine.run engine in
    Machine.publish_fleet (Ctx.metrics obs) machines;
    let outcome =
      match !outcome with Some o -> o | None -> failwith "Fleet: coordinator never finished"
    in
    {
      (report outcome ~latency) with
      failures_injected = injector.Faults.failures_injected;
      node_counters =
        sum_counters (List.init n (fun sid -> Snapshot.of_ctx ~node_id:sid node_obs.(sid)));
      lanes =
        List.init n (fun sid -> lane sid (Trace.events (Ctx.tracer node_obs.(sid))))
        @ [ coordinator_lane n obs ];
      events = Engine.events_run engine;
      bytes_sent = net.Net.bytes_sent;
      retransmits = net.Net.retransmits;
      messages_dropped = net.Net.messages_dropped;
    }

  (* Node threads over a loopback full mesh, each endpoint behind the
     chaos wrapper; killing a node closes its endpoint. *)
  let threads_up ~obs ~timeout ~chaos ?pool ~clock (config : Config.t) ~ingest (coord : Tcp.t) :
      nodes =
    let n = config.Config.n_servers in
    let spec =
      match Chaos_transport.spec_of_string chaos with
      | Ok s -> s
      | Error m -> invalid_arg ("Fleet: bad chaos spec: " ^ m)
    in
    let node_obs = node_contexts obs n in
    let ts =
      Array.init n (fun node_id -> Tcp.create ~obs:node_obs.(node_id) ~node_id ~send_timeout ())
    in
    let all = Array.append ts [| coord |] in
    Array.iteri
      (fun i a ->
        Array.iteri
          (fun j b -> if i <> j then Tcp.add_peer a ~node_id:j ~host ~port:(Tcp.port b))
          all)
      all;
    let threads =
      List.init n (fun sid ->
          let t = ts.(sid) in
          let reset dst = Tcp.reset_peer t ~dst in
          let ct = Chaos.wrap ~obs:node_obs.(sid) ~now:clock ~reset spec t in
          Thread.create
            (fun () ->
              Tcp_node.run_node ~obs:node_obs.(sid) ~clock ?pool ct ~config ~node_id:sid ~coord:n
                ~recv_timeout:node_poll ~max_idle:(max 1 (int_of_float (timeout /. node_poll)))
                ?ingest
                ~register_client:(fun ~client ~port -> Tcp.add_peer t ~node_id:client ~host ~port)
                ())
            ())
    in
    {
      ports = Array.map Tcp.port ts;
      offsets = Array.make n 0.;
      kill = (fun sid _ -> Tcp.close ts.(sid));
      sample = ignore;
      finish =
        (fun () ->
          List.iter Thread.join threads;
          Array.iter Tcp.close ts;
          ([], List.init n (fun sid -> Snapshot.of_ctx ~node_id:sid node_obs.(sid)), 0));
    }

  (* The part both TCP placements share once their nodes are up: a watcher
     that fires the fault plan, the clients, the coordinator, and the
     collection. *)
  let drive_tcp (type o) ~obs ~timeout ~faults ~clients ?pool ~t0 (config : Config.t)
      (drive : o drive) (coord : Tcp.t) (up : nodes) : o report =
    let n = config.Config.n_servers in
    let t_up = Unix.gettimeofday () in
    let stop = Atomic.make false in
    let fired = ref 0 in
    let watcher =
      Thread.create
        (fun () ->
          let pending = ref (Faults.normalize faults) in
          while not (Atomic.get stop) do
            let at = Unix.gettimeofday () -. t_up in
            let due, later = List.partition (fun e -> e.Faults.at <= at) !pending in
            pending := later;
            List.iter
              (fun e ->
                match e.Faults.action with
                | Faults.Fail sid ->
                    incr fired;
                    up.kill sid at
                | Faults.Recover _ -> ())
              due;
            up.sample ();
            Thread.delay 0.05
          done)
        ()
    in
    let finished = Atomic.make false in
    let client_threads =
      List.mapi
        (fun j body ->
          let id = n + 1 + j in
          let ct = Tcp.create ~node_id:id ~send_timeout () in
          Array.iteri (fun sid port -> Tcp.add_peer ct ~node_id:sid ~host ~port) up.ports;
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () -> Tcp.close ct)
                (fun () ->
                  body
                    { id; port = Tcp.port ct; send = Tcp.send ct; recv = Tcp.recv ct;
                      sleep = Unix.sleepf; finished = (fun () -> Atomic.get finished) }))
            ())
        clients
    in
    let traced = Ctx.tracing obs in
    let outcome =
      Fun.protect
        ~finally:(fun () ->
          Atomic.set finished true;
          List.iter Thread.join client_threads;
          Atomic.set stop true;
          Thread.join watcher)
        (fun () ->
          Tcp_coord.run drive ~obs
            ~clock:(fun () -> Unix.gettimeofday () -. t0)
            ?pool ~config ~timeout ~stall_strikes:8 ~collect_stats:traced coord)
    in
    let child_failures, registries, peak_child_rss_kb = up.finish () in
    let latency = Unix.gettimeofday () -. t0 in
    (* A traced round harvested every live node's snapshot over the
       control plane; a live node that never answered, or answered with
       garbage, is an error. *)
    let node_lanes, snapshot_errors =
      match drive with
      | Round _ when traced ->
          let o : Node.cluster_outcome = outcome in
          List.fold_left
            (fun (lanes, errs) sid ->
              match List.assoc_opt sid o.Node.node_snapshots with
              | Some json -> (
                  match Snapshot.of_json json with
                  | Ok s -> (lane sid ~offset:up.offsets.(sid) s.Snapshot.events :: lanes, errs)
                  | Error e -> (lanes, (sid, e) :: errs))
              | None when List.mem sid o.Node.failed_nodes -> (lanes, errs)
              | None -> (lanes, (sid, "no Stats_reply received") :: errs))
            ([], []) (List.rev (List.init n Fun.id))
      | _ -> ([], [])
    in
    {
      (report outcome ~latency) with
      failures_injected = !fired;
      node_counters = sum_counters registries;
      lanes = (if traced then node_lanes @ [ coordinator_lane n obs ] else []);
      snapshot_errors;
      child_failures;
      peak_child_rss_kb;
    }

  (* Run [drive] on a fleet of [config.n_servers] nodes placed by
     [placement]. [obs] is the coordinator's context (on Sim it also
     receives the engine's and the network's metrics); each in-process node
     gets its own context of the same kind, and a traced TCP round
     harvests every node's trace. [faults] may only kill: a stopped node
     does not restart. [timeout] bounds the coordinator's idle wait (and a
     node process's, and the bring-up). [clients] run beside the
     coordinator, one endpoint each.
     @raise Invalid_argument on a [Recover] action or a bad chaos spec. *)
  let run (type o) ?(obs = Ctx.create ()) ?(timeout = 60.) ?(faults = []) ?(clients = [])
      (placement : placement) (config : Config.t) (drive : o drive) : o report =
    let restarts e = match e.Faults.action with Faults.Recover _ -> true | Faults.Fail _ -> false in
    if List.exists restarts faults then invalid_arg "Fleet.run: a stopped node cannot recover";
    Config.validate config;
    match placement with
    | Sim { loss } -> sim ~obs ~timeout ~faults ~clients ~loss config drive
    | Threads { chaos } ->
        let t0 = Unix.gettimeofday () in
        let clock () = Unix.gettimeofday () -. t0 in
        let coord = Tcp.create ~obs ~node_id:config.Config.n_servers ~send_timeout () in
        Fun.protect
          ~finally:(fun () -> Tcp.close coord)
          (fun () ->
            let pool = Atom_exec.Pool.default () in
            let ingest = policy drive in
            let up = threads_up ~obs ~timeout ~chaos ?pool ~clock config ~ingest coord in
            drive_tcp ~obs ~timeout ~faults ~clients ?pool ~t0 config drive coord up)
    | Processes p ->
        let t0 = Unix.gettimeofday () in
        let coord = Tcp.create ~obs ~node_id:config.Config.n_servers ~send_timeout () in
        let metrics_dir = Filename.temp_dir "atom-fleet-" "" in
        Fun.protect
          ~finally:(fun () ->
            Tcp.close coord;
            remove_dir metrics_dir)
          (fun () ->
            match
              processes_up ~config ~timeout ~traced:(Ctx.tracing obs) ~ingest:(policy drive)
                ~metrics_dir p coord ~t0
            with
            | Error (why, child_failures) ->
                let latency = Unix.gettimeofday () -. t0 in
                { (report (aborted drive why) ~latency) with child_failures }
            | Ok up ->
                let pool, own_pool = Atom_exec.Pool.of_domains p.domains in
                if p.domains <= 0 && Sys.getenv_opt "ATOM_DOMAINS" = None then begin
                  let d = Option.fold ~none:1 ~some:Atom_exec.Pool.size pool in
                  p.progress
                    (Printf.sprintf "coordinator using %d worker domain%s (measured default)" d
                       (if d = 1 then "" else "s"))
                end;
                Fun.protect
                  ~finally:(fun () -> if own_pool then Option.iter Atom_exec.Pool.shutdown pool)
                  (fun () ->
                    drive_tcp ~obs ~timeout ~faults ~clients ?pool ~t0 config drive coord up))
end

module Make (G : Atom_group.Group_intf.GROUP) = Over (G) (Sim_transport.Check)
