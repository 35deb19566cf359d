(* Fault tolerance (§4.5): many-trust groups ride out fail-stop churn, and
   buddy groups resurrect a group that lost too many members.

     dune exec examples/fault_tolerance.exe *)

module G = (val Atom_group.Registry.zp_test ())
module Proto = Atom_core.Protocol.Make (G)
module Fleet = Atom_rpc.Fleet
module F = Fleet.Make (G)
open Atom_core

let config : Config.t =
  {
    (Config.tiny ~variant:Config.Trap ~seed:11 ()) with
    Config.n_servers = 16;
    Config.n_groups = 3;
    Config.group_size = 4; (* k = 4 *)
    Config.h = 2; (* tolerate h - 1 = 1 failure; quorum = 3 *)
  }

let run_and_report label rng net msgs =
  let submissions =
    List.mapi
      (fun i m -> Proto.submit rng net ~user:i ~entry_gid:(i mod config.Config.n_groups) m)
      msgs
  in
  let outcome = Proto.run rng net submissions in
  (match outcome.Proto.aborted with
  | None -> Printf.printf "%-28s delivered %d/%d messages\n" label
               (List.length outcome.Proto.delivered) (List.length msgs)
  | Some (Proto.Group_down { gid }) ->
      Printf.printf "%-28s STALLED: group %d lacks a quorum\n" label gid
  | Some _ -> Printf.printf "%-28s aborted\n" label);
  outcome

let () =
  let rng = Atom_util.Rng.create 0xfa17 in
  let net = Proto.setup rng config () in
  Printf.printf
    "many-trust config: k=%d, h=%d => any %d of %d members can route (threshold keys via DVSS)\n\n"
    config.Config.group_size config.Config.h (Config.quorum config) config.Config.group_size;
  let msgs = List.init 6 (fun i -> Printf.sprintf "message %d" i) in

  (* Healthy round. *)
  ignore (run_and_report "all servers up:" rng net msgs);

  (* One member of group 0 crashes: within the tolerance h - 1 = 1. *)
  let victim1 = net.Proto.groups.(0).Proto.members.(1) in
  Proto.fail_server net victim1;
  Printf.printf "\n-- server %d (group 0) fails --\n" victim1;
  ignore (run_and_report "one failure (tolerated):" rng net msgs);

  (* A second member crashes: the group drops below its quorum. *)
  let victim2 = net.Proto.groups.(0).Proto.members.(2) in
  Proto.fail_server net victim2;
  Printf.printf "\n-- server %d (group 0) also fails --\n" victim2;
  ignore (run_and_report "two failures (group down):" rng net msgs);

  (* Buddy-group recovery: replacement servers collect the re-shared
     sub-shares held by the buddy group and reconstruct the dead members'
     key shares. *)
  Printf.printf "\n-- buddy-group recovery for group 0 --\n";
  assert (Proto.recover_group net 0);
  ignore (run_and_report "after recovery:" rng net msgs);

  (* The same story on the node runtime over the simulated fleet: a fault
     plan kills an entire group *mid-round* on the virtual clock, the
     survivors' failed sends report the dead servers, the coordinator's
     recovery sweep publishes them, and their buddies'
     replacements take over their roles — completing the round with
     degraded latency instead of stalling. *)
  Printf.printf "\n== simulated fleet: churn injected mid-round ==\n";
  let fleet_round label faults =
    let r =
      F.run ~faults (Fleet.Sim { loss = 0. }) config (Fleet.Round { users = List.length msgs })
    in
    Printf.printf
      "%-28s delivered %d/%d  latency %6.2fs  failures %d  sweeps %d  recoveries %d  retransmits %d\n"
      label
      (List.length r.outcome.delivered)
      (List.length msgs) r.latency r.failures_injected r.outcome.recovery_rounds
      (int_of_float (Fleet.counter r "node.recoveries"))
      r.retransmits;
    r
  in
  let clean = fleet_round "fault-free round:" [] in
  let faulty =
    fleet_round "group 1 dies at t=0.05s:"
      (Atom_sim.Faults.fail_machines ~at:0.05 (Fleet.members config 1))
  in
  Printf.printf "\nrecovery cost: %.2fs from recovery sweep to resumption; round slowed by %.2fs end to end\n"
    (List.fold_left ( +. ) 0. faulty.outcome.recovery_seconds)
    (faulty.latency -. clean.latency)
