(* Churn and fault-injection coverage: the §4.5 recovery path exercised
   end to end on the node runtime over the simulated fleet, plus the
   Faults plan machinery itself.

   Fleet rounds charge calibrated per-op costs in virtual time, so latency
   is a pure function of (config, fault plan, loss) — the determinism test
   depends on it, and the comparisons between faulty and fault-free rounds
   stay meaningful across hosts. *)

module G = (val Atom_group.Registry.zp_test ())
module Pr = Atom_core.Protocol.Make (G)
module Fleet = Atom_rpc.Fleet
module F = Fleet.Make (G)
open Atom_core
open Atom_sim

let rng () = Atom_util.Rng.create 0xfa17

(* 16 servers in 3 groups of k = 4 with h = 2: quorum 3, and buddy
   recovery can stand in for any dead member. *)
let churn_config ?(variant = Config.Trap) seed : Config.t =
  {
    (Config.tiny ~variant ~seed ()) with
    Config.n_servers = 16;
    Config.n_groups = 3;
    Config.group_size = 4;
    Config.h = 2;
  }

let messages_of n = List.init n (fun i -> Printf.sprintf "fault-msg-%02d" i)

let submit_all r (net : Pr.network) msgs =
  List.mapi
    (fun i m -> Pr.submit r net ~user:i ~entry_gid:(i mod net.Pr.config.Config.n_groups) m)
    msgs

let check_delivery msgs (outcome : Pr.outcome) =
  Alcotest.(check bool) "no abort" true (outcome.Pr.aborted = None);
  Alcotest.(check (list string)) "all messages delivered" (List.sort compare msgs)
    (List.sort compare outcome.Pr.delivered)

(* A round on the simulated fleet. *)
let fleet_round ?faults ?(loss = 0.) config ~users =
  F.run ?faults (Fleet.Sim { loss }) config (Fleet.Round { users })

let check_fleet ~users (r : Atom_rpc.Node.cluster_outcome Fleet.report) =
  let o = r.Fleet.outcome in
  Alcotest.(check (option string)) "no abort" None o.cluster_abort;
  Alcotest.(check int) "all messages delivered" users (List.length o.delivered);
  Alcotest.(check bool) "matches single-process reference" true o.matched

(* ---- Faults plan machinery ---- *)

let test_sample_fraction_deterministic () =
  let pick seed = Faults.sample_fraction (Atom_util.Rng.create seed) ~fraction:0.25 ~n:64 in
  let a = pick 5 and b = pick 5 in
  Alcotest.(check (list int)) "same seed, same victims" (Array.to_list a) (Array.to_list b);
  Alcotest.(check int) "ceil(f*n) victims" 16 (Array.length a);
  let sorted = List.sort_uniq compare (Array.to_list a) in
  Alcotest.(check int) "distinct" 16 (List.length sorted);
  List.iter (fun id -> Alcotest.(check bool) "in range" true (id >= 0 && id < 64)) sorted

let test_plan_normalize () =
  let plan =
    Faults.normalize
      [ Faults.recover ~at:3. 1; Faults.fail ~at:1. 0; Faults.fail ~at:2. 1 ]
  in
  Alcotest.(check (list (float 1e-9))) "sorted by time" [ 1.; 2.; 3. ]
    (List.map (fun (ev : Faults.event) -> ev.Faults.at) plan)

let test_install_counts_liveness_flips () =
  let e = Engine.create () in
  let machines =
    Array.init 4 (fun id -> Machine.create e ~id ~cores:4 ~bandwidth:1e9 ~cluster:0)
  in
  let failed_log = ref [] in
  let plan =
    [
      Faults.fail ~at:1. 2;
      Faults.fail ~at:2. 2 (* no-op: already dead; must not count *);
      Faults.recover ~at:3. 2;
      Faults.fail ~at:4. 0;
    ]
  in
  let inj = Faults.install e ~machines plan ~on_fail:(fun sid -> failed_log := sid :: !failed_log) in
  ignore (Engine.run e);
  Alcotest.(check int) "failures counted once" 2 inj.Faults.failures_injected;
  Alcotest.(check int) "recoveries counted" 1 inj.Faults.recoveries_injected;
  Alcotest.(check (list int)) "hooks fired on real flips" [ 0; 2 ] (List.sort compare !failed_log);
  Alcotest.(check bool) "machine 0 dead" false machines.(0).Machine.alive;
  Alcotest.(check bool) "machine 2 back" true machines.(2).Machine.alive

let test_install_rejects_unknown_machine () =
  let e = Engine.create () in
  let machines =
    Array.init 2 (fun id -> Machine.create e ~id ~cores:4 ~bandwidth:1e9 ~cluster:0)
  in
  Alcotest.check_raises "out-of-range sid" (Invalid_argument "Faults.install: no machine 7")
    (fun () -> ignore (Faults.install e ~machines [ Faults.fail ~at:1. 7 ]))

(* ---- Churn matrix: one member per group fails mid-round, every variant ---- *)

let test_churn_matrix () =
  List.iter
    (fun variant ->
      let config = churn_config ~variant 31 in
      let faults =
        List.init config.Config.n_groups (fun gid ->
            Faults.fail ~at:0.05 (Fleet.members config gid).(1))
      in
      let report = fleet_round ~faults config ~users:6 in
      let vname = Config.variant_name variant in
      Alcotest.(check int)
        (Printf.sprintf "all failures injected (%s)" vname)
        config.Config.n_groups report.failures_injected;
      check_fleet ~users:6 report)
    [ Config.Basic; Config.Nizk; Config.Trap ]

(* ---- Acceptance: h-1 failures per group, round still completes ---- *)

let test_tolerated_failures () =
  let config = churn_config 32 in
  let faults =
    List.concat
      (List.init config.Config.n_groups (fun gid ->
           let members = Fleet.members config gid in
           List.init (config.Config.h - 1) (fun i -> Faults.fail ~at:0.04 members.(i))))
  in
  check_fleet ~users:6 (fleet_round ~faults config ~users:6)

(* ---- Acceptance: a fully dead group is replaced via its buddies ---- *)

let test_dead_group_buddy_recovery () =
  let config = churn_config 33 in
  let baseline = fleet_round config ~users:6 in
  check_fleet ~users:6 baseline;
  Alcotest.(check int) "no recovery sweep in the clean round" 0
    baseline.outcome.recovery_rounds;
  (* Kill every member of group 1 mid-round. *)
  let faulty =
    fleet_round ~faults:(Faults.fail_machines ~at:0.05 (Fleet.members config 1)) config ~users:6
  in
  check_fleet ~users:6 faulty;
  let recoveries = Fleet.counter faulty "node.recoveries" in
  Alcotest.(check bool) (Printf.sprintf "recoveries %.0f >= 1" recoveries) true (recoveries >= 1.);
  Alcotest.(check bool)
    (Printf.sprintf "faulty latency %.3fs > clean %.3fs" faulty.latency baseline.latency)
    true
    (faulty.latency > baseline.latency);
  Alcotest.(check bool) "recovery time accounted" true
    (List.fold_left ( +. ) 0. faulty.outcome.recovery_seconds > 0.)

(* ---- recover_group under maximal churn (synchronous engine) ---- *)

let test_recover_group_maximal_churn () =
  let r = rng () in
  let config = churn_config 34 in
  let net = Pr.setup r config () in
  let msgs = messages_of 6 in
  (* Kill the whole of group 0 — every share lost. *)
  Array.iter (fun sid -> Pr.fail_server net sid) net.Pr.groups.(0).Pr.members;
  let outcome = Pr.run r net (submit_all r net msgs) in
  (match outcome.Pr.aborted with
  | Some (Pr.Group_down { gid = 0 }) -> ()
  | _ -> Alcotest.fail "expected group 0 down");
  (* The buddy group re-shares every sub-share: full resurrection. *)
  Alcotest.(check bool) "maximal recovery succeeds" true (Pr.recover_group net 0);
  let outcome = Pr.run r net (submit_all r net msgs) in
  check_delivery msgs outcome

(* ---- Determinism: identical (seed, plan) replays bit-identically ---- *)

let test_fault_replay_deterministic () =
  let config = churn_config 35 in
  let one () =
    let members = Fleet.members config in
    let faults =
      Faults.fail_machines ~at:0.05 (members 2) @ [ Faults.fail ~at:0.02 (members 0).(0) ]
    in
    fleet_round ~faults ~loss:0.05 config ~users:5
  in
  let a = one () and b = one () in
  check_fleet ~users:5 a;
  Alcotest.(check (float 0.)) "identical latency" a.latency b.latency;
  Alcotest.(check int) "identical event counts" a.events b.events;
  Alcotest.(check (list string)) "identical deliveries" a.outcome.delivered b.outcome.delivered;
  Alcotest.(check int) "identical retransmits" a.retransmits b.retransmits;
  Alcotest.(check int) "identical recovery sweeps" a.outcome.recovery_rounds
    b.outcome.recovery_rounds

(* A fleet node stops with its machine and never restarts, so a plan that
   brings a machine back is refused rather than silently stalling. *)
let test_fleet_rejects_recover () =
  Alcotest.check_raises "recover plan"
    (Invalid_argument "Fleet.run: a stopped node cannot recover") (fun () ->
      ignore
        (fleet_round
           ~faults:[ Faults.fail ~at:0.05 0; Faults.recover ~at:1. 0 ]
           (churn_config 37) ~users:1))

(* ---- Telemetry plumbing ---- *)

let test_report_carries_drop_counters () =
  (* A lossy round surfaces link-layer telemetry in the report: every loss
     on a live link is retried, so nothing is abandoned. *)
  let report = fleet_round ~loss:0.3 (churn_config 36) ~users:5 in
  check_fleet ~users:5 report;
  Alcotest.(check bool) "retransmits observed" true (report.retransmits > 0);
  Alcotest.(check int) "nothing dropped at this loss rate" 0 report.messages_dropped

let test_controller_recovery_telemetry () =
  let c = Controller.create () in
  Alcotest.(check int) "starts at zero" 0 (Controller.total_recoveries c);
  Controller.note_recoveries c 3;
  ignore (Controller.record c ~aborted:false ~blamed:[]);
  Controller.note_recoveries c 1;
  Alcotest.(check int) "accumulates" 4 (Controller.total_recoveries c);
  Alcotest.(check bool) "churn never flips the variant" true
    (Controller.variant c = Config.Trap)

let suite =
  ( "faults",
    [
      Alcotest.test_case "sample_fraction deterministic" `Quick test_sample_fraction_deterministic;
      Alcotest.test_case "plan normalize" `Quick test_plan_normalize;
      Alcotest.test_case "install counts liveness flips" `Quick test_install_counts_liveness_flips;
      Alcotest.test_case "install rejects unknown machine" `Quick
        test_install_rejects_unknown_machine;
      Alcotest.test_case "churn matrix (all variants)" `Quick test_churn_matrix;
      Alcotest.test_case "h-1 failures tolerated" `Quick test_tolerated_failures;
      Alcotest.test_case "dead group buddy recovery" `Quick test_dead_group_buddy_recovery;
      Alcotest.test_case "recover_group maximal churn" `Quick test_recover_group_maximal_churn;
      Alcotest.test_case "fault replay determinism" `Quick test_fault_replay_deterministic;
      Alcotest.test_case "fleet rejects recover plans" `Quick test_fleet_rejects_recover;
      Alcotest.test_case "report drop counters" `Quick test_report_carries_drop_counters;
      Alcotest.test_case "controller recovery telemetry" `Quick test_controller_recovery_telemetry;
    ] )
