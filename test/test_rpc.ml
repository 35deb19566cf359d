(* The RPC layer: transport implementations and the multi-process node
   runtime.

   Three angles:
   - the TCP transport's socket mechanics on loopback (framed delivery,
     ordering, self-send, timeouts, unknown peers);
   - a full cluster round over the simulator transport, inside engine
     processes — deterministic, so two runs must replay bit-identically
     and match the single-process reference for every variant;
   - the same node runtime over real TCP, with each server on its own
     thread, pinning both transports to the same semantics. *)

module G = (val Atom_group.Registry.zp_test ())
module SimT = Atom_rpc.Sim_transport
module TcpT = Atom_rpc.Tcp_transport
module NodeSim = Atom_rpc.Node.Make (G) (SimT.Check)
module NodeTcp = Atom_rpc.Node.Make (G) (TcpT.Check)
module Pr = NodeSim.Pr
module El = Pr.El
module Ctrl = Atom_wire.Control
open Atom_core
open Atom_sim

(* Both implementations really do satisfy the transport signature. *)
module _ : Atom_rpc.Transport.S = SimT.Check
module _ : Atom_rpc.Transport.S = TcpT.Check

(* ---- TCP transport mechanics ---- *)

let test_tcp_loopback () =
  let a = TcpT.create ~node_id:0 () in
  let b = TcpT.create ~node_id:1 () in
  TcpT.add_peer a ~node_id:1 ~host:"127.0.0.1" ~port:(TcpT.port b);
  TcpT.add_peer b ~node_id:0 ~host:"127.0.0.1" ~port:(TcpT.port a);
  Alcotest.(check int) "self id" 0 (TcpT.self a);
  Alcotest.(check (list int)) "peer ids" [ 1 ] (TcpT.peer_ids a);
  let f1 = Ctrl.encode (Ctrl.Ack { token = 41 }) in
  let f2 = Ctrl.encode (Ctrl.Barrier { iter = 7 }) in
  Alcotest.(check bool) "send 1" true (TcpT.send a ~dst:1 f1 = Ok ());
  Alcotest.(check bool) "send 2" true (TcpT.send a ~dst:1 f2 = Ok ());
  (* Same-pair ordering holds: one pooled stream per direction. *)
  (match TcpT.recv b ~timeout:5.0 with
  | Ok (src, frame) ->
      Alcotest.(check int) "src" 0 src;
      Alcotest.(check string) "frame 1 intact" f1 frame
  | Error e -> Alcotest.failf "first frame: %s" (Atom_rpc.Transport.error_to_string e));
  (match TcpT.recv b ~timeout:5.0 with
  | Ok (_, frame) -> Alcotest.(check string) "frame 2 in order" f2 frame
  | Error e -> Alcotest.failf "second frame: %s" (Atom_rpc.Transport.error_to_string e));
  (* Self-send loops through the inbox without a socket. *)
  Alcotest.(check bool) "self-send accepted" true (TcpT.send b ~dst:1 f1 = Ok ());
  (match TcpT.recv b ~timeout:5.0 with
  | Ok (src, frame) ->
      Alcotest.(check int) "self src" 1 src;
      Alcotest.(check string) "self frame" f1 frame
  | Error e -> Alcotest.failf "self-send: %s" (Atom_rpc.Transport.error_to_string e));
  (* Failures are typed, and shared with the simulator transport. *)
  (match TcpT.send a ~dst:99 f1 with
  | Error (Atom_rpc.Transport.Unknown_peer 99) -> ()
  | Ok () -> Alcotest.fail "unknown peer accepted"
  | Error e -> Alcotest.failf "unknown peer: %s" (Atom_rpc.Transport.error_to_string e));
  (match TcpT.recv a ~timeout:0.05 with
  | Error Atom_rpc.Transport.Timeout -> ()
  | Ok _ -> Alcotest.fail "empty recv delivered"
  | Error e -> Alcotest.failf "empty recv: %s" (Atom_rpc.Transport.error_to_string e));
  TcpT.close a;
  (* A closed endpoint reports [Closed], not a timeout. *)
  (match TcpT.send a ~dst:1 f1 with
  | Error Atom_rpc.Transport.Closed -> ()
  | r ->
      Alcotest.failf "closed send: %s"
        (match r with Ok () -> "accepted" | Error e -> Atom_rpc.Transport.error_to_string e));
  TcpT.close b

(* Re-adding a known peer keeps its pooled connection: no reconnect, no
   second accept at the receiver, no leaked descriptor. Moving the peer to
   a new address closes the old connection. *)
let test_tcp_add_peer_keeps_connection () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let counter obs name = Atom_obs.Metrics.counter_value (Atom_obs.Ctx.metrics obs) name in
  let a_obs = Atom_obs.Ctx.create () and b_obs = Atom_obs.Ctx.create () in
  let a = TcpT.create ~obs:a_obs ~node_id:0 () in
  let b = TcpT.create ~obs:b_obs ~node_id:1 () in
  let frame = Ctrl.encode (Ctrl.Ack { token = 7 }) in
  let deliver label dst =
    Alcotest.(check bool) (label ^ " sent") true (TcpT.send a ~dst:1 frame = Ok ());
    match TcpT.recv dst ~timeout:5.0 with
    | Ok (src, got) ->
        Alcotest.(check int) (label ^ " src") 0 src;
        Alcotest.(check string) (label ^ " frame") frame got
    | Error e -> Alcotest.failf "%s: %s" label (Atom_rpc.Transport.error_to_string e)
  in
  TcpT.add_peer a ~node_id:1 ~host:"127.0.0.1" ~port:(TcpT.port b);
  deliver "first" b;
  let fds = open_fds () and reconnects = counter a_obs "rpc.reconnects" in
  TcpT.add_peer a ~node_id:1 ~host:"127.0.0.1" ~port:(TcpT.port b);
  deliver "after re-add" b;
  Alcotest.(check (float 0.)) "no reconnect" reconnects (counter a_obs "rpc.reconnects");
  Alcotest.(check (float 0.)) "one connection accepted" 1. (counter b_obs "rpc.accepts");
  Alcotest.(check bool) "no descriptor leaked" true (open_fds () <= fds);
  (* The peer moves: the old socket closes as the new one opens, and the
     new endpoint's reader adds one descriptor. *)
  let c = TcpT.create ~node_id:1 () in
  let fds = open_fds () in
  TcpT.add_peer a ~node_id:1 ~host:"127.0.0.1" ~port:(TcpT.port c);
  deliver "after move" c;
  Alcotest.(check bool) "old connection closed" true (open_fds () <= fds + 1);
  List.iter TcpT.close [ a; b; c ]

(* ---- ReEnc proof blobs (the one node-layer codec) ---- *)

let test_reenc_blob_roundtrip () =
  let r = Atom_util.Rng.create 0x99 in
  let kp = El.keygen r in
  let v = fst (El.enc_vec r kp.El.pk [| G.random r; G.random r |]) in
  let _, pis =
    Pr.P.Reenc_proof.reenc_vec_with_proof r ~share:(G.Scalar.random r)
      ~coeff:(G.Scalar.random r) ~next_pk:None ~context:"blob" v
  in
  let blob = NodeSim.reenc_proofs_to_blob pis in
  (match NodeSim.reenc_proofs_of_blob blob with
  | None -> Alcotest.fail "blob decode failed"
  | Some pis' -> Alcotest.(check int) "proof count" (Array.length pis) (Array.length pis'));
  for i = 0 to String.length blob - 1 do
    if NodeSim.reenc_proofs_of_blob (String.sub blob 0 i) <> None then
      Alcotest.failf "blob truncation at byte %d accepted" i
  done

let prop_reenc_blob_total =
  QCheck2.Test.make ~name:"reenc_proofs_of_blob never raises" ~count:300
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 200))
    (fun s -> match NodeSim.reenc_proofs_of_blob s with Some _ | None -> true)

(* ---- Cluster rounds over the simulator transport ---- *)

(* The CI smoke shape: 8 servers, 4 groups of 2 with h = 1 (quorum 2),
   3 square iterations. *)
let cluster_config variant =
  {
    (Config.tiny ~variant ~seed:5 ()) with
    Config.n_servers = 8;
    n_groups = 4;
    group_size = 2;
    h = 1;
    topology = Config.Square 3;
  }

(* [inject] frames reach the coordinator at time 0 from one extra
   endpoint outside the fleet. *)
let run_sim_cluster ?obs ?(inject = []) (config : Config.t) ~(users : int) :
    NodeSim.cluster_outcome =
  let e = Engine.create () in
  let net = Net.create e in
  let n = config.Config.n_servers in
  let coord = n in
  let extra = if inject = [] then 0 else 1 in
  let machines =
    Array.init (n + 1 + extra) (fun id ->
        Machine.create e ~id ~cores:4 ~bandwidth:1e9 ~cluster:0)
  in
  let fleet = SimT.fleet e net ~machines in
  for sid = 0 to n - 1 do
    Engine.spawn e (fun () ->
        NodeSim.run_node fleet.(sid) ~config ~node_id:sid ~coord ~recv_timeout:1.0
          ~max_idle:120 ())
  done;
  let outcome = ref None in
  Engine.spawn e (fun () ->
      outcome :=
        Some
          (NodeSim.run_coordinator ?obs fleet.(coord) ~config ~users ~recv_timeout:1.0
             ~max_idle:120 ()));
  if inject <> [] then
    Engine.spawn e (fun () ->
        List.iter (fun frame -> ignore (SimT.send fleet.(n + 1) ~dst:coord frame)) inject);
  ignore (Engine.run e);
  match !outcome with
  | Some o -> o
  | None -> Alcotest.fail "coordinator never completed"

(* Every variant at quorum q = k − (h−1) of 2, 1 and 3. At q = 1 the head
   is its own tail: it shuffles and re-encrypts alone and hands off
   directly; at q = 3 both chains pass through a middle member. *)
let test_sim_cluster_all_variants () =
  List.iter
    (fun (group_size, h) ->
      List.iter
        (fun (name, variant) ->
          let o = run_sim_cluster { (cluster_config variant) with group_size; h } ~users:12 in
          let what = Printf.sprintf "k=%d h=%d %s" group_size h name in
          Alcotest.(check (option string)) (what ^ ": no abort") None o.NodeSim.cluster_abort;
          Alcotest.(check int) (what ^ ": all delivered") 12 (List.length o.NodeSim.delivered);
          Alcotest.(check bool) (what ^ ": matches reference") true o.NodeSim.matched)
        [ ("basic", Config.Basic); ("nizk", Config.Nizk); ("trap", Config.Trap) ])
    [ (2, 1); (2, 2); (3, 1) ]

let test_sim_cluster_deterministic () =
  let o1 = run_sim_cluster (cluster_config Config.Nizk) ~users:10 in
  let o2 = run_sim_cluster (cluster_config Config.Nizk) ~users:10 in
  Alcotest.(check bool) "run 1 matched" true o1.NodeSim.matched;
  (* Identical seeds replay bit-identically: same plaintexts in the same
     exit order, not just the same set. *)
  Alcotest.(check (list string)) "delivery order replays" o1.NodeSim.delivered
    o2.NodeSim.delivered

(* Exit batches the coordinator must not hold: an unknown exit group, a
   layer that is not the last, a fan-out index past the topology, and an
   epoch nobody sealed. Each counts as a duplicate, the real batches still
   complete the round, and none of them raises. *)
let test_sim_cluster_ignores_bad_exits () =
  let config = cluster_config Config.Nizk in
  let exit_batch ~gid ~iter ~batch_idx =
    NodeSim.C.encode
      (NodeSim.C.Exit_batch { gid; iter; batch_idx; input = [||]; output = [||]; proofs = [||] })
  in
  let last = Config.iterations config - 1 in
  let obs = Atom_obs.Ctx.create () in
  let o =
    run_sim_cluster ~obs config ~users:8
      ~inject:
        [
          exit_batch ~gid:99 ~iter:last ~batch_idx:0;
          exit_batch ~gid:0 ~iter:0 ~batch_idx:0;
          exit_batch ~gid:0 ~iter:last ~batch_idx:99;
          exit_batch ~gid:0 ~iter:(last + Config.iterations config) ~batch_idx:0;
        ]
  in
  Alcotest.(check (option string)) "no abort" None o.NodeSim.cluster_abort;
  Alcotest.(check bool) "matches single-process reference" true o.NodeSim.matched;
  Alcotest.(check (float 0.))
    "each counted as a duplicate" 4.
    (Atom_obs.Metrics.counter_value (Atom_obs.Ctx.metrics obs) "coord.exit_dups")

(* A node that receives unparseable bytes drops them, counts them, and
   keeps running — line noise is not evidence of misbehaviour (§4.4
   aborts are reserved for failed proofs), and a crash would turn one
   corrupt frame into a dead server. Well-formed frames whose indices no
   sender produces (a group past the fleet, a pipeline step past the
   quorum, a batch past the fan-out, a Batch along no topology edge) are
   line noise too. *)
let test_sim_node_survives_bad_frame () =
  let e = Engine.create () in
  let net = Net.create e in
  let machines =
    Array.init 2 (fun id -> Machine.create e ~id ~cores:4 ~bandwidth:1e9 ~cluster:0)
  in
  let fleet = SimT.fleet e net ~machines in
  let config = cluster_config Config.Nizk in
  let obs = Atom_obs.Ctx.create () in
  Engine.spawn e (fun () ->
      NodeSim.run_node ~obs fleet.(0) ~config ~node_id:0 ~coord:1 ~recv_timeout:1.0
        ~max_idle:60 ());
  let got = ref None in
  let v = [| [| { El.r = G.one; c = G.one; y = None } |] |] in
  let bad =
    [
      "this is not a frame";
      NodeSim.C.encode
        (NodeSim.C.Shuffle_step
           { gid = 99; iter = 0; step = 2; sent_at = 0; input = v; output = v; proof = "" });
      NodeSim.C.encode
        (NodeSim.C.Shuffle_step
           { gid = 0; iter = 0; step = 9; sent_at = 0; input = v; output = v; proof = "" });
      NodeSim.C.encode
        (NodeSim.C.Reenc_step
           { gid = 0; iter = 0; batch_idx = 99; step = 2; sent_at = 0; input = v; output = v;
             proofs = [| "" |] });
      NodeSim.C.encode
        (NodeSim.C.Reenc_step
           { gid = 99; iter = 0; batch_idx = 0; step = 2; sent_at = 0; input = v; output = v;
             proofs = [| "" |] });
      NodeSim.C.encode
        (NodeSim.C.Batch
           { gid = 0; iter = 1; src_gid = 99; sent_at = 0; input = v; output = v;
             proofs = [| "" |] });
      (* Once the barrier is up, submissions would start entry mixing. *)
      Ctrl.encode (Ctrl.Barrier { iter = 0 });
      Ctrl.encode (Ctrl.Submissions { gid = 99; blobs = [||] });
    ]
  in
  Engine.spawn e (fun () ->
      List.iter (fun frame -> ignore (SimT.send fleet.(1) ~dst:0 frame)) bad;
      Engine.sleep e 5.0;
      ignore (SimT.send fleet.(1) ~dst:0 (Ctrl.encode Ctrl.Shutdown));
      match SimT.recv fleet.(1) ~timeout:60.0 with
      | Ok (0, frame) -> got := Ctrl.decode frame
      | _ -> ());
  ignore (Engine.run e);
  (match !got with
  | Some (Ctrl.Abort { detail; _ }) -> Alcotest.failf "node aborted on garbage: %s" detail
  | _ -> ());
  Alcotest.(check (float 0.))
    "bad frames counted"
    (float_of_int (List.length bad - 1))
    (Atom_obs.Metrics.counter_value (Atom_obs.Ctx.metrics obs) "node.bad_frames")

(* ---- Fail-stop machines under the simulator transport ---- *)

(* Two endpoints on one fresh engine. *)
let sim_pair ?(loss_prob = 0.) () =
  let e = Engine.create () in
  let net = Net.create e ~loss_prob in
  let machines =
    Array.init 2 (fun id -> Machine.create e ~id ~cores:4 ~bandwidth:1e9 ~cluster:0)
  in
  (e, machines, SimT.fleet e net ~machines)

let probe = Ctrl.encode (Ctrl.Ack { token = 3 })

let error_name = function
  | Ok _ -> "ok"
  | Error e -> Atom_rpc.Transport.error_to_string e

(* A refused TCP peer fails the send within the send timeout; a dead
   simulated machine must too, or the coordinator's sweep waits out the
   whole retry ladder before it learns of the death. *)
let test_sim_send_to_dead_fails_fast () =
  let e, machines, fleet = sim_pair () in
  Machine.fail machines.(1);
  let result = ref None in
  Engine.spawn e (fun () ->
      let r = SimT.send fleet.(0) ~dst:1 probe in
      result := Some (r, Engine.now e));
  ignore (Engine.run e);
  match !result with
  | Some (Error (Atom_rpc.Transport.Send_failed { dst = 1; _ }), t) ->
      Alcotest.(check bool)
        (Printf.sprintf "gave up after %.2fs virtual, within %.0fs" t Net.default_send_timeout)
        true
        (t <= Net.default_send_timeout)
  | Some (r, _) -> Alcotest.failf "send to a dead machine: %s" (error_name r)
  | None -> Alcotest.fail "send never returned"

(* An endpoint whose own machine is dead behaves as a killed process:
   [Closed] from both calls, including a receive that was parked when the
   machine died. *)
let test_sim_dead_endpoint_closed () =
  let e, machines, fleet = sim_pair () in
  let parked = ref None and after = ref [] in
  Engine.spawn e (fun () -> parked := Some (SimT.recv fleet.(0) ~timeout:10.));
  Engine.schedule e ~delay:1. (fun () -> Machine.fail machines.(0));
  Engine.spawn e ~delay:2. (fun () ->
      after :=
        [ ("send", Result.map ignore (SimT.send fleet.(0) ~dst:1 probe));
          ("recv", Result.map ignore (SimT.recv fleet.(0) ~timeout:1.)) ]);
  ignore (Engine.run e);
  let closed what r =
    match r with
    | Error Atom_rpc.Transport.Closed -> ()
    | r -> Alcotest.failf "%s on a dead machine: %s" what (error_name r)
  in
  (match !parked with
  | Some r -> closed "parked recv" (Result.map ignore r)
  | None -> Alcotest.fail "parked recv never returned");
  Alcotest.(check int) "both calls ran" 2 (List.length !after);
  List.iter (fun (what, r) -> closed what r) !after

(* Loss on a live link keeps the full retry ladder: every frame lands. *)
let test_sim_lossy_link_delivers () =
  let e, _, fleet = sim_pair ~loss_prob:0.3 () in
  let frames = 50 in
  let sent = ref 0 and got = ref 0 in
  Engine.spawn e (fun () ->
      for _ = 1 to frames do
        if SimT.send fleet.(0) ~dst:1 probe = Ok () then incr sent
      done);
  Engine.spawn e (fun () ->
      while !got < frames && SimT.recv fleet.(1) ~timeout:30. <> Error Atom_rpc.Transport.Timeout do
        incr got
      done);
  ignore (Engine.run e);
  Alcotest.(check int) "every send accepted" frames !sent;
  Alcotest.(check int) "every frame delivered" frames !got

(* ---- The simulated fleet runner ---- *)

(* A virtual-time round: real crypto through the node runtime, with
   calibrated compute and modeled links. *)
let test_sim_fleet_round () =
  let module Fleet = Atom_rpc.Sim_fleet.Make (G) in
  let config = Config.tiny ~variant:Config.Trap ~seed:77 () in
  let r = Fleet.run config ~users:6 in
  Alcotest.(check (option string)) "no abort" None r.Fleet.outcome.Fleet.N.cluster_abort;
  Alcotest.(check int) "all delivered" 6 (List.length r.Fleet.outcome.Fleet.N.delivered);
  Alcotest.(check bool) "matches single-process reference" true r.Fleet.outcome.Fleet.N.matched;
  Alcotest.(check bool)
    (Printf.sprintf "latency %.3fs > pure network floor" r.Fleet.latency)
    true (r.Fleet.latency > 0.1);
  Alcotest.(check bool) "network carried bytes" true (r.Fleet.bytes_sent > 0.)

(* ---- Typed transport errors on real TCP ---- *)

(* All four [Transport.error] cases, plus recovery after [Closed] via a
   peer restart on the same port and an explicit [reset_peer]. *)
let test_tcp_typed_errors () =
  let a = TcpT.create ~node_id:0 ~send_timeout:1.0 ~max_retries:2 ~retry_backoff:0.05 () in
  let b = TcpT.create ~node_id:1 () in
  let b_port = TcpT.port b in
  TcpT.add_peer a ~node_id:1 ~host:"127.0.0.1" ~port:b_port;
  let f = Ctrl.encode (Ctrl.Ack { token = 5 }) in
  (* Unknown_peer: never registered. *)
  (match TcpT.send a ~dst:42 f with
  | Error (Atom_rpc.Transport.Unknown_peer 42) -> ()
  | r ->
      Alcotest.failf "unknown peer: %s"
        (match r with Ok () -> "accepted" | Error e -> Atom_rpc.Transport.error_to_string e));
  (* Timeout: nothing inbound. *)
  (match TcpT.recv a ~timeout:0.05 with
  | Error Atom_rpc.Transport.Timeout -> ()
  | r ->
      Alcotest.failf "empty recv: %s"
        (match r with Ok _ -> "delivered" | Error e -> Atom_rpc.Transport.error_to_string e));
  (* Send_failed: the peer is dead (listener closed), and the bounded
     reconnect budget turns that into a typed failure, not a hang. *)
  Alcotest.(check bool) "send while up" true (TcpT.send a ~dst:1 f = Ok ());
  (match TcpT.recv b ~timeout:5.0 with
  | Ok (0, _) -> ()
  | _ -> Alcotest.fail "frame while up");
  TcpT.close b;
  TcpT.reset_peer a ~dst:1;
  (match TcpT.send a ~dst:1 f with
  | Error (Atom_rpc.Transport.Send_failed { dst = 1; attempts; _ }) ->
      Alcotest.(check bool) "attempts bounded" true (attempts >= 1 && attempts <= 3)
  | r ->
      Alcotest.failf "dead peer send: %s"
        (match r with Ok () -> "accepted" | Error e -> Atom_rpc.Transport.error_to_string e));
  (* Recovery: the peer restarts on the same port; the pooled connection
     was already torn down, so the next send transparently reconnects. *)
  let b' = TcpT.create ~node_id:1 ~port:b_port () in
  TcpT.reset_peer a ~dst:1;
  Alcotest.(check bool) "send after restart" true (TcpT.send a ~dst:1 f = Ok ());
  (match TcpT.recv b' ~timeout:5.0 with
  | Ok (src, frame) ->
      Alcotest.(check int) "src after restart" 0 src;
      Alcotest.(check string) "frame after restart" f frame
  | Error e -> Alcotest.failf "recv after restart: %s" (Atom_rpc.Transport.error_to_string e));
  TcpT.close b';
  (* Closed: the local endpoint is gone. *)
  TcpT.close a;
  (match TcpT.send a ~dst:1 f with
  | Error Atom_rpc.Transport.Closed -> ()
  | r ->
      Alcotest.failf "closed send: %s"
        (match r with Ok () -> "accepted" | Error e -> Atom_rpc.Transport.error_to_string e));
  match TcpT.recv a ~timeout:0.05 with
  | Error Atom_rpc.Transport.Closed -> ()
  | r ->
      Alcotest.failf "closed recv: %s"
        (match r with Ok _ -> "delivered" | Error e -> Atom_rpc.Transport.error_to_string e)

(* ---- Chaos transport ---- *)

module ChaosSpec = Atom_rpc.Chaos_transport
module ChaosTcp = Atom_rpc.Chaos_transport.Make (TcpT.Check)
module NodeChaosTcp = Atom_rpc.Node.Make (G) (ChaosTcp.Check)

let test_chaos_spec_roundtrip () =
  let spec =
    {
      ChaosSpec.seed = 7;
      drop = 0.02;
      corrupt = 0.01;
      delay = 0.1;
      delay_s = 0.25;
      dup = 0.05;
      reset_every = 40;
      after = 1.5;
      partitions =
        [ { ChaosSpec.from_t = 1.; to_t = 3.5; sides = [ [ 0; 1 ]; [ 2; 3 ] ] } ];
    }
  in
  (match ChaosSpec.spec_of_string (ChaosSpec.spec_to_string spec) with
  | Ok s -> Alcotest.(check bool) "roundtrip" true (s = spec)
  | Error m -> Alcotest.failf "roundtrip rejected: %s" m);
  (match ChaosSpec.spec_of_string "" with
  | Ok s -> Alcotest.(check bool) "empty spec is none" true (ChaosSpec.is_none s)
  | Error m -> Alcotest.failf "empty rejected: %s" m);
  (match ChaosSpec.spec_of_string "nonsense=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown field accepted");
  match ChaosSpec.spec_of_string "drop=high" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad value accepted"

(* The decision stream is a pure function of (seed, endpoint, send seq):
   two identical runs drop the same messages and deliver the rest in the
   same order. *)
let test_chaos_deterministic_drops () =
  let run () =
    let a = TcpT.create ~node_id:0 () in
    let b = TcpT.create ~node_id:1 () in
    TcpT.add_peer a ~node_id:1 ~host:"127.0.0.1" ~port:(TcpT.port b);
    let obs = Atom_obs.Ctx.create () in
    let spec =
      match ChaosSpec.spec_of_string "seed=42;drop=0.5" with
      | Ok s -> s
      | Error m -> Alcotest.failf "spec: %s" m
    in
    let ca = ChaosTcp.wrap ~obs ~now:(fun () -> 1.0) spec a in
    for i = 0 to 99 do
      match ChaosTcp.send ca ~dst:1 (Ctrl.encode (Ctrl.Ack { token = i })) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "chaos send: %s" (Atom_rpc.Transport.error_to_string e)
    done;
    let got = ref [] in
    let quiet = ref 0 in
    while !quiet < 3 do
      match TcpT.recv b ~timeout:0.2 with
      | Ok (_, frame) -> (
          quiet := 0;
          match Ctrl.decode frame with
          | Some (Ctrl.Ack { token }) -> got := token :: !got
          | _ -> ())
      | Error _ -> incr quiet
    done;
    ChaosTcp.close ca;
    TcpT.close b;
    (List.rev !got, Atom_obs.Metrics.counter_value (Atom_obs.Ctx.metrics obs) "chaos.drops")
  in
  let got1, drops1 = run () in
  let got2, drops2 = run () in
  Alcotest.(check bool) "some dropped" true (drops1 > 0.);
  Alcotest.(check bool) "some delivered" true (got1 <> []);
  Alcotest.(check int) "drops + delivered = sends" 100 (List.length got1 + int_of_float drops1);
  Alcotest.(check (list int)) "delivery replays" got1 got2;
  Alcotest.(check (float 0.)) "drop count replays" drops1 drops2

(* Partition windows: silent loss inside the window, delivery outside. *)
let test_chaos_partition_window () =
  let a = TcpT.create ~node_id:0 () in
  let b = TcpT.create ~node_id:1 () in
  TcpT.add_peer a ~node_id:1 ~host:"127.0.0.1" ~port:(TcpT.port b);
  let obs = Atom_obs.Ctx.create () in
  let spec =
    match ChaosSpec.spec_of_string "partition=1:10:0|1" with
    | Ok s -> s
    | Error m -> Alcotest.failf "spec: %s" m
  in
  let clock = ref 5.0 in
  let ca = ChaosTcp.wrap ~obs ~now:(fun () -> !clock) spec a in
  let f = Ctrl.encode (Ctrl.Ack { token = 9 }) in
  for _ = 1 to 5 do
    Alcotest.(check bool) "partitioned send looks ok" true (ChaosTcp.send ca ~dst:1 f = Ok ())
  done;
  (match TcpT.recv b ~timeout:0.2 with
  | Error Atom_rpc.Transport.Timeout -> ()
  | _ -> Alcotest.fail "frame crossed the partition");
  Alcotest.(check (float 0.))
    "partition drops counted" 5.0
    (Atom_obs.Metrics.counter_value (Atom_obs.Ctx.metrics obs) "chaos.partition_drops");
  clock := 20.0;
  Alcotest.(check bool) "healed send" true (ChaosTcp.send ca ~dst:1 f = Ok ());
  (match TcpT.recv b ~timeout:5.0 with
  | Ok (0, frame) -> Alcotest.(check string) "healed frame" f frame
  | _ -> Alcotest.fail "frame lost after heal");
  ChaosTcp.close ca;
  TcpT.close b

(* ---- The same runtime over real TCP, one thread per server ---- *)

let test_tcp_threaded_cluster () =
  let config =
    {
      (Config.tiny ~variant:Config.Basic ~seed:7 ()) with
      Config.n_servers = 4;
      n_groups = 2;
      group_size = 2;
      h = 1;
      topology = Config.Square 2;
    }
  in
  let n = config.Config.n_servers in
  let coord = n in
  let ts = Array.init (n + 1) (fun node_id -> TcpT.create ~node_id ()) in
  (* Full mesh up-front; the Join/Peers/Ack bring-up belongs to the CLI
     launcher, not the runtime under test. *)
  Array.iteri
    (fun i t ->
      Array.iteri
        (fun j u ->
          if i <> j then TcpT.add_peer t ~node_id:j ~host:"127.0.0.1" ~port:(TcpT.port u))
        ts)
    ts;
  (* Every thread runs over the SAME group instance (module [G] at the top
     of this file): Modarith contexts hand out per-domain scratch via DLS
     with a per-op checkout, so concurrent threads on one shared context
     are safe — the per-thread instances the seed needed are gone. *)
  let threads =
    List.init n (fun sid ->
        Thread.create
          (fun () ->
            NodeTcp.run_node ts.(sid) ~config ~node_id:sid ~coord ~recv_timeout:0.2
              ~max_idle:150 ())
          ())
  in
  let outcome =
    NodeTcp.run_coordinator ts.(coord) ~config ~users:6 ~recv_timeout:0.2 ~max_idle:150 ()
  in
  List.iter Thread.join threads;
  Array.iter TcpT.close ts;
  Alcotest.(check (option string)) "no abort" None outcome.NodeTcp.cluster_abort;
  Alcotest.(check bool) "tcp cluster matches reference" true outcome.NodeTcp.matched

(* ---- wall-clock tracing + live stats over the same TCP runtime ----

   Every process gets its own tracing context and the shared wall clock;
   the coordinator harvests per-node atom-metrics/1 snapshots over
   Stats_request before shutdown. Two invariants under test: every live
   node answers with a strictly-decodable snapshot carrying its trace
   buffer, and each node's event-loop phase spans tile its round
   wall-time — the single-threaded loop is always in exactly one phase,
   so closed tid-0 spans are contiguous with no overlap. *)
let test_tcp_traced_cluster_stats () =
  let config =
    {
      (Config.tiny ~variant:Config.Basic ~seed:7 ()) with
      Config.n_servers = 4;
      n_groups = 2;
      group_size = 2;
      h = 1;
      topology = Config.Square 2;
    }
  in
  let n = config.Config.n_servers in
  let coord = n in
  let started = Unix.gettimeofday () in
  let clock () = Unix.gettimeofday () -. started in
  let obss = Array.init (n + 1) (fun _ -> Atom_obs.Ctx.create ~tracing:true ()) in
  let ts = Array.init (n + 1) (fun node_id -> TcpT.create ~obs:obss.(node_id) ~node_id ()) in
  Array.iteri
    (fun i t ->
      Array.iteri
        (fun j u ->
          if i <> j then TcpT.add_peer t ~node_id:j ~host:"127.0.0.1" ~port:(TcpT.port u))
        ts)
    ts;
  let threads =
    List.init n (fun sid ->
        Thread.create
          (fun () ->
            NodeTcp.run_node ~obs:obss.(sid) ~clock ts.(sid) ~config ~node_id:sid ~coord
              ~recv_timeout:0.2 ~max_idle:150 ())
          ())
  in
  let outcome =
    NodeTcp.run_coordinator ~obs:obss.(coord) ~clock ts.(coord) ~config ~users:6
      ~recv_timeout:0.2 ~max_idle:150 ~collect_stats:true ()
  in
  List.iter Thread.join threads;
  Array.iter TcpT.close ts;
  Alcotest.(check (option string)) "no abort" None outcome.NodeTcp.cluster_abort;
  Alcotest.(check bool) "matches reference" true outcome.NodeTcp.matched;
  Alcotest.(check int) "one snapshot per node" n (List.length outcome.NodeTcp.node_snapshots);
  let module Snapshot = Atom_obs.Snapshot in
  let module Trace = Atom_obs.Trace in
  List.iter
    (fun (sid, json) ->
      match Snapshot.of_json json with
      | Error e -> Alcotest.failf "node %d snapshot rejected: %s" sid e
      | Ok snap ->
          Alcotest.(check int) (Printf.sprintf "node %d id" sid) sid snap.Snapshot.node_id;
          (* The Stats_request round trip happened mid-recv-loop, so the
             node is inside an open phase at snapshot time. *)
          Alcotest.(check bool)
            (Printf.sprintf "node %d has an open tid-0 phase" sid)
            true
            (List.exists (fun os -> os.Snapshot.os_tid = 0) snap.Snapshot.open_spans);
          (* Closed tid-0 phase spans tile the loop's wall-time exactly:
             emitted in close order, each segment starts where the
             previous one ended. *)
          let segs =
            List.filter
              (fun (e : Trace.event) ->
                e.Trace.ph = 'X' && e.Trace.tid = 0 && e.Trace.cat = Trace.Phase.cat)
              snap.Snapshot.events
          in
          Alcotest.(check bool)
            (Printf.sprintf "node %d recorded phases" sid)
            true (segs <> []);
          let eps = 1e-6 in
          ignore
            (List.fold_left
               (fun prev_end (e : Trace.event) ->
                 (match prev_end with
                 | Some pe ->
                     if Float.abs (e.Trace.ts -. pe) > eps then
                       Alcotest.failf "node %d: phase gap/overlap at %.6f (prev end %.6f)"
                         sid e.Trace.ts pe
                 | None -> ());
                 Some (e.Trace.ts +. e.Trace.dur))
               None segs))
    outcome.NodeTcp.node_snapshots

(* ---- §4.5 recovery over TCP: kill a member mid-round ---- *)

(* The victim is picked from the round's actual group formation (sampling
   is per-group, so an arbitrary server id may hold no role at all) and
   crashes before the round starts: every one of its pipeline steps is
   outstanding, so the coordinator's sweep must detect the death, the
   fleet must re-route the dead member's roles (buddy share recovery),
   and the round must still match the reference. Chaos delays stay on to
   exercise recovery interleaved with held frames. *)
let test_tcp_cluster_kill_recovery () =
  let config =
    {
      (Config.tiny ~variant:Config.Basic ~seed:7 ()) with
      Config.n_servers = 4;
      n_groups = 2;
      group_size = 2;
      h = 1;
      topology = Config.Square 2;
    }
  in
  let n = config.Config.n_servers in
  let coord = n in
  (* Mirror [Pr.setup]'s formation to find a server that holds a role. *)
  let victim =
    let beacon = Beacon.create ~seed:config.Config.seed in
    let formation =
      Group_formation.form beacon ~round:0 ~n_servers:n
        ~n_groups:config.Config.n_groups ~group_size:config.Config.group_size ()
    in
    formation.Group_formation.groups.(0).Group_formation.members.(0)
  in
  let obs = Atom_obs.Ctx.create () in
  let ts =
    Array.init (n + 1) (fun node_id ->
        TcpT.create ~obs ~node_id ~send_timeout:1.0 ~max_retries:2 ~retry_backoff:0.05 ())
  in
  Array.iteri
    (fun i t ->
      Array.iteri
        (fun j u ->
          if i <> j then TcpT.add_peer t ~node_id:j ~host:"127.0.0.1" ~port:(TcpT.port u))
        ts)
    ts;
  let spec =
    match ChaosSpec.spec_of_string "delay=0.8;delay_s=0.2;seed=5" with
    | Ok s -> s
    | Error m -> Alcotest.failf "spec: %s" m
  in
  let cts = Array.init n (fun sid -> ChaosTcp.wrap ~obs spec ts.(sid)) in
  let threads =
    List.init n (fun sid ->
        Thread.create
          (fun () ->
            NodeChaosTcp.run_node ~obs cts.(sid) ~config ~node_id:sid ~coord ~recv_timeout:0.2
              ~max_idle:150 ())
          ())
  in
  (* Crash the victim before the round starts: deterministic, and the
     replacement must reconstruct *all* of its pipeline work. *)
  TcpT.close ts.(victim);
  let outcome =
    NodeTcp.run_coordinator ~obs ts.(coord) ~config ~users:8 ~recv_timeout:0.2 ~max_idle:150
      ~stall_strikes:4 ()
  in
  List.iter Thread.join threads;
  Array.iter TcpT.close ts;
  Alcotest.(check (option string)) "no abort" None outcome.NodeTcp.cluster_abort;
  Alcotest.(check bool) "kill was detected" true
    (List.mem victim outcome.NodeTcp.failed_nodes);
  Alcotest.(check bool) "recovery sweeps ran" true (outcome.NodeTcp.recovery_rounds >= 1);
  Alcotest.(check bool) "buddy share recovery ran" true
    (Atom_obs.Metrics.counter_value (Atom_obs.Ctx.metrics obs) "node.recoveries" >= 1.0);
  Alcotest.(check bool) "matches reference despite kill" true outcome.NodeTcp.matched

(* ---- malformed-frame injection at the TCP recv path, mid-round ----

   The wire fuzz vocabulary (CRC-corrupt bodies, raw garbage that desyncs
   the stream) sprayed at every node while a real round runs: every
   protocol state must reject-and-survive — frames counted, connections
   for desynced streams dropped, round unharmed. *)
let test_tcp_cluster_survives_frame_injection () =
  let config =
    {
      (Config.tiny ~variant:Config.Basic ~seed:7 ()) with
      Config.n_servers = 4;
      n_groups = 2;
      group_size = 2;
      h = 1;
      topology = Config.Square 2;
    }
  in
  let n = config.Config.n_servers in
  let coord = n in
  let obs = Atom_obs.Ctx.create () in
  let ts = Array.init (n + 1) (fun node_id -> TcpT.create ~obs ~node_id ()) in
  Array.iteri
    (fun i t ->
      Array.iteri
        (fun j u ->
          if i <> j then TcpT.add_peer t ~node_id:j ~host:"127.0.0.1" ~port:(TcpT.port u))
        ts)
    ts;
  (* The attacker is just another TCP endpoint that knows the ports. *)
  let attacker = TcpT.create ~node_id:99 ~send_timeout:0.5 ~max_retries:1 ~retry_backoff:0.02 () in
  for sid = 0 to n - 1 do
    TcpT.add_peer attacker ~node_id:sid ~host:"127.0.0.1" ~port:(TcpT.port ts.(sid))
  done;
  let stop = Atomic.make false in
  let corrupt_frame i =
    (* Valid header and length over a CRC-corrupt body: passes stream
       framing, must die in the strict decoders. *)
    let f = Ctrl.encode (Ctrl.Barrier { iter = i }) in
    let b = Bytes.of_string f in
    let last = Bytes.length b - 1 in
    Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x40));
    Bytes.to_string b
  in
  let sprayer =
    Thread.create
      (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          incr i;
          for sid = 0 to n - 1 do
            ignore (TcpT.send attacker ~dst:sid (corrupt_frame !i));
            (* Every few frames, raw garbage: desyncs that node's reader
               for the attacker's connection, which must only cost the
               attacker its connection. *)
            if !i mod 5 = 0 then ignore (TcpT.send attacker ~dst:sid "raw garbage, no header")
          done;
          Thread.delay 0.002
        done)
      ()
  in
  let threads =
    List.init n (fun sid ->
        Thread.create
          (fun () ->
            NodeTcp.run_node ~obs ts.(sid) ~config ~node_id:sid ~coord ~recv_timeout:0.2
              ~max_idle:150 ())
          ())
  in
  let outcome =
    NodeTcp.run_coordinator ~obs ts.(coord) ~config ~users:8 ~recv_timeout:0.2 ~max_idle:150 ()
  in
  Atomic.set stop true;
  Thread.join sprayer;
  List.iter Thread.join threads;
  TcpT.close attacker;
  Array.iter TcpT.close ts;
  Alcotest.(check (option string)) "no abort" None outcome.NodeTcp.cluster_abort;
  Alcotest.(check bool) "corrupt frames were seen and dropped" true
    (Atom_obs.Metrics.counter_value (Atom_obs.Ctx.metrics obs) "node.bad_frames" >= 1.0);
  Alcotest.(check bool) "matches reference under injection" true outcome.NodeTcp.matched

let suite =
  let q t = QCheck_alcotest.to_alcotest t in
  ( "rpc",
    [
      Alcotest.test_case "tcp loopback" `Quick test_tcp_loopback;
      Alcotest.test_case "tcp typed errors" `Quick test_tcp_typed_errors;
      Alcotest.test_case "tcp re-added peer keeps its connection" `Quick
        test_tcp_add_peer_keeps_connection;
      Alcotest.test_case "reenc blob roundtrip" `Quick test_reenc_blob_roundtrip;
      Alcotest.test_case "chaos spec roundtrip" `Quick test_chaos_spec_roundtrip;
      Alcotest.test_case "chaos deterministic drops" `Quick test_chaos_deterministic_drops;
      Alcotest.test_case "chaos partition window" `Quick test_chaos_partition_window;
      Alcotest.test_case "sim cluster all variants" `Quick test_sim_cluster_all_variants;
      Alcotest.test_case "sim cluster deterministic" `Quick test_sim_cluster_deterministic;
      Alcotest.test_case "node survives bad frame" `Quick test_sim_node_survives_bad_frame;
      Alcotest.test_case "sim cluster ignores bad exits" `Quick
        test_sim_cluster_ignores_bad_exits;
      Alcotest.test_case "sim send to a dead machine fails fast" `Quick
        test_sim_send_to_dead_fails_fast;
      Alcotest.test_case "sim dead endpoint is closed" `Quick test_sim_dead_endpoint_closed;
      Alcotest.test_case "sim lossy link delivers" `Quick test_sim_lossy_link_delivers;
      Alcotest.test_case "sim fleet round" `Quick test_sim_fleet_round;
      Alcotest.test_case "tcp threaded cluster" `Quick test_tcp_threaded_cluster;
      Alcotest.test_case "tcp traced cluster stats" `Quick test_tcp_traced_cluster_stats;
      Alcotest.test_case "tcp cluster kill recovery" `Quick test_tcp_cluster_kill_recovery;
      Alcotest.test_case "tcp cluster frame injection" `Quick
        test_tcp_cluster_survives_frame_injection;
      q prop_reenc_blob_total;
    ] )
