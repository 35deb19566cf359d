(* A simulated fleet: the node runtime ([Node.Make]) over the
   discrete-event simulator, one engine process per server plus one for
   the coordinator.

   This is how a round runs in virtual time. The nodes, the coordinator,
   the wire codec and the §4.5 routing are the ones the TCP runtime runs;
   only the transport ([Sim_transport]) and the clock (the engine's)
   differ. Compute is charged through [run_node]'s [charge] hook: each
   pipeline step occupies one core of its node's machine for a time priced
   from the paper's Table 3 ([Calibration.paper]), so the virtual latency
   is a pure function of (config, fault plan, loss) and identical runs
   replay bit-identically, trace included. The fleet is the paper's mix (§6.2:
   cores, Tor-like bandwidths, four latency clusters), drawn from the
   config seed. Fault plans fail machines on the engine clock; a dead
   machine's node stops as a killed process does, and the survivors
   detect it and recover exactly as over TCP. *)

open Atom_core
open Atom_sim

(* The members of group [gid] as every node derives them: the beacon
   formation [Protocol.setup] runs, without its key generation. Fault
   plans name their victims with it. *)
let members (config : Config.t) (gid : int) : int array =
  if gid < 0 || gid >= config.Config.n_groups then
    invalid_arg
      (Printf.sprintf "Sim_fleet.members: group %d; group ids are 0..%d" gid
         (config.Config.n_groups - 1));
  let beacon = Beacon.create ~seed:config.Config.seed in
  let formation =
    Group_formation.form beacon ~round:0 ~n_servers:config.Config.n_servers
      ~n_groups:config.Config.n_groups ~group_size:config.Config.group_size ()
  in
  formation.Group_formation.groups.(gid).Group_formation.members

module Make (G : Atom_group.Group_intf.GROUP) = struct
  module N = Node.Make (G) (Sim_transport.Check)

  type report = {
    outcome : N.cluster_outcome;
    latency : float; (* virtual seconds: the engine's final time *)
    events : int;
    bytes_sent : float;
    failures_injected : int;
    recovery_sweeps : int; (* the coordinator's §4.5 sweeps *)
    recoveries : int; (* role adoptions, "node.recoveries" summed over nodes *)
    retransmits : int;
    messages_dropped : int;
    bytes_dropped : float;
    recovery_seconds : float; (* sweep start → pipeline resumption, summed *)
    lanes : Atom_obs.Trace.lane list; (* one per node, then the coordinator *)
  }

  let clusters = 4
  let recv_timeout = 0.25 (* the coordinator's receive timeout, seconds *)

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
    max 8 (int_of_float (Float.ceil (2. *. pipeline /. recv_timeout)))

  (* [obs] is the coordinator's context and also receives the engine's and
     the network's metrics; each node gets its own context of the same
     kind. With [Atom_obs.Ctx.noop] the node-side [recoveries] reads 0.
     [faults] may only fail machines: a node that stopped with its machine
     does not restart, so a plan with a [Recover] is rejected.
     @raise Invalid_argument on a [Recover] action. *)
  let run ?(obs = Atom_obs.Ctx.create ()) ?(faults = []) ?(loss_prob = 0.) (config : Config.t)
      ~(users : int) : report =
    if List.exists (fun e -> match e.Faults.action with Faults.Recover _ -> true | _ -> false) faults
    then invalid_arg "Sim_fleet.run: a stopped node cannot recover";
    let n = config.Config.n_servers in
    let engine = Engine.create ~obs () in
    let net = Net.create engine ~loss_prob ~loss_seed:(config.Config.seed lxor 0x10ad) in
    let fleet_rng = Atom_util.Rng.create config.Config.seed in
    let machines =
      Array.init (n + 1) (fun id ->
          Machine.create engine ~id ~cores:(Machine.paper_cores fleet_rng)
            ~bandwidth:(Machine.paper_bandwidth fleet_rng)
            ~cluster:(Atom_util.Rng.int_below fleet_rng clusters))
    in
    let injector = Faults.install engine ~machines faults in
    let endpoints = Sim_transport.fleet engine net ~machines in
    let clock () = Engine.now engine in
    let pool = Atom_exec.Pool.default () in
    let width = float_of_int (N.Pr.unit_width config) in
    let node_obs =
      Array.init n (fun _ ->
          if Atom_obs.Ctx.enabled obs then
            Atom_obs.Ctx.create ~tracing:(Atom_obs.Ctx.tracing obs) ()
          else Atom_obs.Ctx.noop)
    in
    for sid = 0 to n - 1 do
      let charge cost ~units =
        let seconds = float_of_int units *. width *. per_op cost in
        if seconds > 0. then Machine.job machines.(sid) ~seconds
      in
      Engine.spawn engine (fun () ->
          N.run_node ~obs:node_obs.(sid) ~clock ?pool ~charge endpoints.(sid) ~config
            ~node_id:sid ~coord:n ())
    done;
    let outcome = ref None in
    let stall_strikes = stall_strikes config ~users ~width ~slowest_link:net.Net.inter_max in
    Engine.spawn engine (fun () ->
        outcome :=
          Some
            (N.run_coordinator ~obs ~clock ?pool endpoints.(n) ~config ~users ~recv_timeout
               ~stall_strikes ()));
    let latency = Engine.run engine in
    Machine.publish_fleet (Atom_obs.Ctx.metrics obs) machines;
    let outcome =
      match !outcome with Some o -> o | None -> failwith "Sim_fleet.run: coordinator never finished"
    in
    let lane pid name ctx =
      { Atom_obs.Trace.lane_pid = pid; lane_name = name; lane_offset = 0.;
        lane_events = Atom_obs.Trace.events (Atom_obs.Ctx.tracer ctx) }
    in
    {
      outcome;
      latency;
      events = Engine.events_run engine;
      bytes_sent = net.Net.bytes_sent;
      failures_injected = injector.Faults.failures_injected;
      recovery_sweeps = outcome.N.recovery_rounds;
      recoveries =
        Array.fold_left
          (fun acc ctx ->
            acc
            + int_of_float
                (Atom_obs.Metrics.counter_value (Atom_obs.Ctx.metrics ctx) "node.recoveries"))
          0 node_obs;
      retransmits = net.Net.retransmits;
      messages_dropped = net.Net.messages_dropped;
      bytes_dropped = net.Net.bytes_dropped;
      recovery_seconds = List.fold_left ( +. ) 0. outcome.N.recovery_seconds;
      lanes =
        List.init n (fun sid -> lane (sid + 1) (Printf.sprintf "node %d" sid) node_obs.(sid))
        @ [ lane (n + 1) "coordinator" obs ];
    }
end
