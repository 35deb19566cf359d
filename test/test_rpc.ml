(* The RPC layer: transport implementations, the multi-process node
   runtime and the fleet driver that places it.

   Four angles:
   - the TCP transport's socket mechanics on loopback (framed delivery,
     ordering, self-send, timeouts, unknown peers);
   - a full cluster round on the simulated fleet — deterministic, so two
     runs must replay bit-identically and match the single-process
     reference for every variant;
   - the same node runtime over real TCP, with each server on its own
     thread, pinning both transports to the same semantics;
   - the same round over [atom_node] processes, through the Join → Peers
     → Ack handshake. *)

module G = (val Atom_group.Registry.zp_test ())
module SimT = Atom_rpc.Sim_transport
module TcpT = Atom_rpc.Tcp_transport
(* The simulator transport with a tap: while [tap] holds a list, every
   frame sent is pushed onto it, so a test can read what a round put on
   the wire. *)
module SimT_tap = struct
  include SimT.Check

  let tap : string list ref option ref = ref None

  let send t ~dst msg =
    Option.iter (fun l -> l := msg :: !l) !tap;
    SimT.send t ~dst msg
end

module NodeSim = Atom_rpc.Node.Make (G) (SimT_tap)
module Fleet = Atom_rpc.Fleet
module F = Fleet.Make (G)
module F_tap = Fleet.Over (G) (SimT_tap)
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

let sim = Fleet.Sim { loss = 0. }
let round users = Fleet.Round { users }
let threads = Fleet.Threads { chaos = "" }

(* Every variant at quorum q = k − (h−1) of 2, 1 and 3. At q = 1 the head
   is its own tail: it shuffles and re-encrypts alone and hands off
   directly; at q = 3 both chains pass through a middle member. *)
let test_sim_cluster_all_variants () =
  List.iter
    (fun (group_size, h) ->
      List.iter
        (fun (name, variant) ->
          let o = (F.run sim { (cluster_config variant) with group_size; h } (round 12)).outcome in
          let what = Printf.sprintf "k=%d h=%d %s" group_size h name in
          Alcotest.(check (option string)) (what ^ ": no abort") None o.NodeSim.cluster_abort;
          Alcotest.(check int) (what ^ ": all delivered") 12 (List.length o.NodeSim.delivered);
          Alcotest.(check bool) (what ^ ": matches reference") true o.NodeSim.matched)
        [ ("basic", Config.Basic); ("nizk", Config.Nizk); ("trap", Config.Trap) ])
    [ (2, 1); (2, 2); (3, 1) ]

(* A data frame carries its step's input only for a NIZK receiver's
   proof check: a Trap round sends none and still matches the
   single-process reference, a NIZK round's frames carry every input. *)
let test_sim_frames_carry_inputs_only_for_nizk () =
  let round variant =
    let frames = ref [] in
    SimT_tap.tap := Some frames;
    let o =
      Fun.protect
        ~finally:(fun () -> SimT_tap.tap := None)
        (fun () -> (F_tap.run sim (cluster_config variant) (round 12)).outcome)
    in
    Alcotest.(check bool) "matches reference" true o.NodeSim.matched;
    (* (kind, input units, output units) of every data frame *)
    List.filter_map
      (fun frame ->
        match Option.bind (NodeSim.C.decode frame) (NodeSim.C.force ?pool:None) with
        | Some (NodeSim.C.Shuffle_step { input; output; _ }) -> Some ("shuffle", input, output)
        | Some (NodeSim.C.Reenc_step { input; output; _ }) -> Some ("reenc", input, output)
        | Some (NodeSim.C.Batch { input; output; _ }) -> Some ("batch", input, output)
        | Some (NodeSim.C.Exit_batch { input; output; _ }) -> Some ("exit", input, output)
        | _ -> None)
      (List.rev !frames)
  in
  let kinds = [ "shuffle"; "reenc"; "batch"; "exit" ] in
  let check_round name data ~input_units =
    List.iter
      (fun kind ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: a %s frame with units" name kind)
          true
          (List.exists (fun (k, _, output) -> k = kind && Array.length output > 0) data))
      kinds;
    List.iter
      (fun (kind, input, output) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: %s frame input units" name kind)
          (input_units output) (Array.length input))
      data
  in
  check_round "trap" (round Config.Trap) ~input_units:(fun _ -> 0);
  check_round "nizk" (round Config.Nizk) ~input_units:Array.length

(* A shuffle frame whose input is empty used to skip the NIZK check
   whatever its output held, so a forged output would be shuffled
   onward. Only nothing in and nothing out is exempt; Trap checks no
   shuffle proofs at all. *)
let test_verify_shuffle_empty_input () =
  let verdict variant ~input ~output =
    let net = Pr.setup (Atom_util.Rng.create 5) (cluster_config variant) () in
    NodeSim.verify_shuffle net ~gid:0 ~iter:0 ~input ~output ""
  in
  let forged = [| fst (El.enc_vec (Atom_util.Rng.create 1) G.generator [| G.generator |]) |] in
  Alcotest.(check bool) "nizk: empty input, forged output, no proof: rejected" false
    (verdict Config.Nizk ~input:[||] ~output:forged);
  Alcotest.(check bool) "nizk: nothing in, nothing out: accepted" true
    (verdict Config.Nizk ~input:[||] ~output:[||]);
  Alcotest.(check bool) "trap: accepted" true (verdict Config.Trap ~input:[||] ~output:forged)

let test_sim_cluster_deterministic () =
  let o1 = (F.run sim (cluster_config Config.Nizk) (round 10)).outcome in
  let o2 = (F.run sim (cluster_config Config.Nizk) (round 10)).outcome in
  Alcotest.(check bool) "run 1 matched" true o1.NodeSim.matched;
  (* Identical seeds replay bit-identically: same plaintexts in the same
     exit order, not just the same set. *)
  Alcotest.(check (list string)) "delivery order replays" o1.NodeSim.delivered
    o2.NodeSim.delivered

(* Exit batches the coordinator must not hold: an unknown exit group, a
   layer that is not the last, a fan-out index past the topology, and an
   epoch nobody sealed, sent at time 0 by an endpoint outside the fleet.
   Each counts as a duplicate, the real batches still complete the round,
   and none of them raises. *)
let test_sim_cluster_ignores_bad_exits () =
  let config = cluster_config Config.Nizk in
  let exit_batch ~gid ~iter ~batch_idx =
    NodeSim.C.encode
      (NodeSim.C.Exit_batch { gid; iter; batch_idx; input = [||]; output = [||]; proofs = [||] })
  in
  let last = Config.iterations config - 1 in
  let obs = Atom_obs.Ctx.create () in
  let inject =
    [
      exit_batch ~gid:99 ~iter:last ~batch_idx:0;
      exit_batch ~gid:0 ~iter:0 ~batch_idx:0;
      exit_batch ~gid:0 ~iter:last ~batch_idx:99;
      exit_batch ~gid:0 ~iter:(last + Config.iterations config) ~batch_idx:0;
    ]
  in
  let injector (c : Fleet.client) =
    List.iter (fun frame -> ignore (c.send ~dst:config.Config.n_servers frame)) inject
  in
  let o = (F.run ~obs ~clients:[ injector ] sim config (round 8)).outcome in
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

(* ---- The simulated fleet ---- *)

(* A virtual-time round: real crypto through the node runtime, with
   calibrated compute and modeled links. *)
let test_sim_fleet_round () =
  let config = Config.tiny ~variant:Config.Trap ~seed:77 () in
  let r = F.run sim config (round 6) in
  Alcotest.(check (option string)) "no abort" None r.outcome.cluster_abort;
  Alcotest.(check int) "all delivered" 6 (List.length r.outcome.delivered);
  Alcotest.(check bool) "matches single-process reference" true r.outcome.matched;
  Alcotest.(check bool)
    (Printf.sprintf "latency %.3fs > pure network floor" r.latency)
    true (r.latency > 0.1);
  Alcotest.(check bool) "network carried bytes" true (r.bytes_sent > 0.)

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

let tcp_config =
  {
    (Config.tiny ~variant:Config.Basic ~seed:7 ()) with
    Config.n_servers = 4;
    n_groups = 2;
    group_size = 2;
    h = 1;
    topology = Config.Square 2;
  }

(* Every thread runs over the SAME group instance (module [G] at the top
   of this file): Modarith contexts hand out per-domain scratch via DLS
   with a per-op checkout, so concurrent threads on one shared context
   are safe. *)
let test_tcp_threaded_cluster () =
  let o = (F.run threads tcp_config (round 6)).outcome in
  Alcotest.(check (option string)) "no abort" None o.cluster_abort;
  Alcotest.(check bool) "tcp cluster matches reference" true o.matched

(* ---- wall-clock tracing + live stats over the same TCP runtime ----

   Every node gets its own tracing context and the shared wall clock;
   the coordinator harvests per-node atom-metrics/1 snapshots over
   Stats_request before shutdown. Two invariants under test: every live
   node answers with a strictly-decodable snapshot carrying its trace
   buffer, and each node's event-loop phase spans tile its round
   wall-time — the single-threaded loop is always in exactly one phase,
   so closed tid-0 spans are contiguous with no overlap. *)
let test_tcp_traced_cluster_stats () =
  let n = tcp_config.Config.n_servers in
  let outcome =
    (F.run ~obs:(Atom_obs.Ctx.create ~tracing:true ()) threads tcp_config (round 6)).outcome
  in
  Alcotest.(check (option string)) "no abort" None outcome.cluster_abort;
  Alcotest.(check bool) "matches reference" true outcome.matched;
  Alcotest.(check int) "one snapshot per node" n (List.length outcome.node_snapshots);
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
    outcome.node_snapshots

(* ---- §4.5 recovery over TCP: kill a member mid-round ---- *)

(* The victim is picked from the round's actual group formation (sampling
   is per-group, so an arbitrary server id may hold no role at all) and
   crashes as the fleet comes up, before the coordinator has derived its
   round: every one of its pipeline steps is outstanding, so the
   coordinator's sweep must detect the death, the fleet must re-route the
   dead member's roles (buddy share recovery), and the round must still
   match the reference. Chaos delays stay on to exercise recovery
   interleaved with held frames. *)
let test_tcp_cluster_kill_recovery () =
  let victim = (Fleet.members tcp_config 0).(0) in
  let r =
    F.run
      ~faults:[ Atom_sim.Faults.fail ~at:0. victim ]
      (Fleet.Threads { chaos = "delay=0.8;delay_s=0.2;seed=5" })
      tcp_config (round 8)
  in
  let o = r.outcome in
  Alcotest.(check (option string)) "no abort" None o.cluster_abort;
  Alcotest.(check bool) "kill was detected" true (List.mem victim o.failed_nodes);
  Alcotest.(check bool) "recovery sweeps ran" true (o.recovery_rounds >= 1);
  Alcotest.(check bool) "buddy share recovery ran" true
    (Fleet.counter r "node.recoveries" >= 1.0);
  Alcotest.(check bool) "matches reference despite kill" true o.matched

(* ---- malformed-frame injection at the TCP recv path, mid-round ----

   The wire fuzz vocabulary (CRC-corrupt bodies, raw garbage that desyncs
   the stream) sprayed at every node while a real round runs: every
   protocol state must reject-and-survive — frames counted, connections
   for desynced streams dropped, round unharmed. The attacker is just
   another TCP endpoint that knows the ports. *)
let test_tcp_cluster_survives_frame_injection () =
  let n = tcp_config.Config.n_servers in
  let corrupt_frame i =
    (* Valid header and length over a CRC-corrupt body: passes stream
       framing, must die in the strict decoders. *)
    let f = Ctrl.encode (Ctrl.Barrier { iter = i }) in
    let b = Bytes.of_string f in
    let last = Bytes.length b - 1 in
    Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x40));
    Bytes.to_string b
  in
  let sprayer (c : Fleet.client) =
    let i = ref 0 in
    while not (c.finished ()) do
      incr i;
      for sid = 0 to n - 1 do
        ignore (c.send ~dst:sid (corrupt_frame !i));
        (* Every few frames, raw garbage: desyncs that node's reader for
           the attacker's connection, which must only cost the attacker
           its connection. *)
        if !i mod 5 = 0 then ignore (c.send ~dst:sid "raw garbage, no header")
      done;
      Thread.delay 0.002
    done
  in
  let r = F.run ~clients:[ sprayer ] threads tcp_config (round 8) in
  Alcotest.(check (option string)) "no abort" None r.outcome.cluster_abort;
  Alcotest.(check bool) "corrupt frames were seen and dropped" true
    (Fleet.counter r "node.bad_frames" >= 1.0);
  Alcotest.(check bool) "matches reference under injection" true r.outcome.matched

(* ---- the same round over atom_node processes ----

   The Processes placement spawns one atom_node per server and runs the
   coordinator's side of the Join → Peers → Ack handshake; a traced round
   merges one lane per node, shifted by the node's Join receipt time. *)
let test_processes_cluster () =
  let n = tcp_config.Config.n_servers in
  let node_bin = Filename.concat (Filename.dirname Sys.executable_name) "../bin/atom_node.exe" in
  let placement =
    Fleet.Processes
      { chaos = ""; domains = 1; node_bin = Some node_bin; log_dir = None; label = "test";
        progress = ignore }
  in
  let r =
    F.run ~obs:(Atom_obs.Ctx.create ~tracing:true ()) ~timeout:30. placement tcp_config (round 6)
  in
  Alcotest.(check (option string)) "no abort" None r.outcome.cluster_abort;
  Alcotest.(check bool) "matches reference" true r.outcome.matched;
  Alcotest.(check (list (pair int string))) "no child failures" [] r.child_failures;
  Alcotest.(check (list (pair int string))) "every snapshot valid" [] r.snapshot_errors;
  let node_lanes = List.filter (fun l -> l.Atom_obs.Trace.lane_pid <= n) r.lanes in
  Alcotest.(check (list int)) "one lane per node" (List.init n (fun i -> i + 1))
    (List.map (fun l -> l.Atom_obs.Trace.lane_pid) node_lanes);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: Join-time offset" l.Atom_obs.Trace.lane_name)
        true
        (l.Atom_obs.Trace.lane_offset > 0. && l.Atom_obs.Trace.lane_offset < r.latency))
    node_lanes

(* ---- the entry check over a whole frame ----

   [verify_submissions] checks a frame's EncProofs as one batch, then
   runs the duplicate pass; on a failed batch it re-checks unit by unit.
   On random mixes of honest, forged, duplicate, wrong-group and
   misshapen Trap submissions its verdicts and the [seen] table it leaves
   must equal those of checking the submissions one at a time, and every
   verdict must be the one the mix was built to get — with no pool and
   with 2 domains. *)
module Entry_batch (G : Atom_group.Group_intf.GROUP) = struct
  module Pr = Atom_core.Protocol.Make (G)

  type kind = Honest | Forged_u | Forged_a | Duplicate | Wrong_gid | One_unit | Short_proofs

  let test ~(mixes : int) ~(per_mix : int) () =
    let config =
      { (Config.tiny ~variant:Config.Trap ~seed:0xe17 ()) with
        Config.n_servers = 4; n_groups = 2; group_size = 2; topology = Config.Square 2 }
    in
    let r = Atom_util.Rng.create 0xba7c in
    let net = Pr.setup r config () in
    let kinds = [| Honest; Honest; Forged_u; Forged_a; Duplicate; Wrong_gid; One_unit; Short_proofs |] in
    let bump_unit (u : Pr.unit_ct) f =
      { u with Pr.proofs = Array.mapi (fun i pi -> if i = 0 then f pi else pi) u.Pr.proofs }
    in
    let seen_bindings seen =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) seen [])
    in
    let pool2 = Atom_exec.Pool.create ~domains:2 () in
    Fun.protect ~finally:(fun () -> Atom_exec.Pool.shutdown pool2) @@ fun () ->
    for mix = 0 to mixes - 1 do
      let honest = ref [] in
      let subs =
        List.init per_mix (fun user ->
            let kind =
              match kinds.(Atom_util.Rng.int_below r (Array.length kinds)) with
              | Duplicate when !honest = [] -> Honest
              | k -> k
            in
            let s = Pr.submit r net ~user ~entry_gid:(user mod 2) (Printf.sprintf "m%d.%d" mix user) in
            let s =
              match kind with
              | Honest | One_unit | Short_proofs -> s
              | Forged_u ->
                  { s with Pr.units = [| bump_unit s.Pr.units.(0) (fun pi ->
                        { pi with Pr.P.Enc_proof.u = G.Scalar.add pi.Pr.P.Enc_proof.u G.Scalar.one });
                        s.Pr.units.(1) |] }
              | Forged_a ->
                  { s with Pr.units = [| s.Pr.units.(0); bump_unit s.Pr.units.(1) (fun pi ->
                        { pi with Pr.P.Enc_proof.a = G.mul pi.Pr.P.Enc_proof.a G.generator }) |] }
              | Duplicate ->
                  let d = List.nth !honest (Atom_util.Rng.int_below r (List.length !honest)) in
                  { s with Pr.units = d.Pr.units; entry_gid = d.Pr.entry_gid; commitment = d.Pr.commitment }
              | Wrong_gid -> { s with Pr.entry_gid = 1 - s.Pr.entry_gid }
            in
            let s =
              match kind with
              | One_unit -> { s with Pr.units = [| s.Pr.units.(0) |] }
              | Short_proofs ->
                  let u = s.Pr.units.(1) in
                  { s with Pr.units = [| s.Pr.units.(0); { u with Pr.proofs = [| u.Pr.proofs.(0) |] } |] }
              | _ -> s
            in
            if kind = Honest then honest := s :: !honest;
            (kind, s))
      in
      let want = List.map (fun (kind, _) -> kind = Honest) subs in
      let subs = List.map snd subs in
      let one_by_one = Hashtbl.create 16 in
      let elementwise = List.map (Pr.verify_submission net one_by_one) subs in
      Alcotest.(check (list bool)) (Printf.sprintf "mix %d: built verdicts" mix) want elementwise;
      List.iter
        (fun pool ->
          let tag = Printf.sprintf "mix %d (%s)" mix (if pool = None then "no pool" else "2 domains") in
          let seen = Hashtbl.create 16 in
          Alcotest.(check (list bool)) (tag ^ " verdicts") elementwise
            (Pr.verify_submissions ?pool net seen subs);
          Alcotest.(check (list (pair string int))) (tag ^ " seen") (seen_bindings one_by_one)
            (seen_bindings seen))
        [ None; Some pool2 ]
    done
end

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
      Alcotest.test_case "sim frames carry inputs only for nizk" `Quick
        test_sim_frames_carry_inputs_only_for_nizk;
      Alcotest.test_case "verify_shuffle rejects an empty input" `Quick
        test_verify_shuffle_empty_input;
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
      Alcotest.test_case "processes cluster" `Quick test_processes_cluster;
      Alcotest.test_case "verify_submissions = elementwise (zp-96)" `Quick
        (let module E = Entry_batch (G) in
         E.test ~mixes:6 ~per_mix:10);
      Alcotest.test_case "verify_submissions = elementwise (p256)" `Quick
        (let module E = Entry_batch (Atom_group.P256) in
         E.test ~mixes:2 ~per_mix:6);
      q prop_reenc_blob_total;
    ] )
