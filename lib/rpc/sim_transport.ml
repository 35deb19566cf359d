(* The discrete-event simulator's Net, adapted behind [Transport.S].

   One endpoint per machine; frames travel through [Atom_sim.Net.send] so
   they pay the same latency / NIC-serialization / handshake costs and
   the same retransmission-with-backoff discipline as any simulated
   traffic. Everything stays deterministic: given the same seed and send
   sequence, delivery order, retry counts and virtual timestamps replay
   bit-identically, which is what lets the test suite compare a protocol
   exchange over this transport against the same exchange over real TCP.

   A machine is fail-stop, like a killed process: once it is dead its
   endpoint's [send] and [recv] return [Closed], and sends toward it fail
   within [Net.default_send_timeout], as a refused TCP connect does.

   Calls must run inside engine processes ([Engine.spawn]), like every
   blocking simulator primitive. *)

open Atom_sim

type t = {
  net : Net.t;
  machines : Machine.t array;
  boxes : (int * string) Mailbox.t array; (* per-node inbox: (src, frame) *)
  self : int;
}

(* One endpoint per machine, sharing a mailbox vector. *)
let fleet (engine : Engine.t) (net : Net.t) ~(machines : Machine.t array) : t array =
  let boxes =
    Array.init (Array.length machines) (fun i ->
        Mailbox.create ~name:(Printf.sprintf "rpc.%d" i) engine)
  in
  Array.init (Array.length machines) (fun self -> { net; machines; boxes; self })

let self (t : t) : int = t.self

let alive (t : t) : bool = t.machines.(t.self).Machine.alive

let send (t : t) ~(dst : int) (msg : string) : (unit, Transport.error) result =
  if dst < 0 || dst >= Array.length t.machines then Error (Transport.Unknown_peer dst)
  else if not (alive t) then Error Transport.Closed
  else if
    Net.send_tracked t.net ~src:t.machines.(t.self) ~dst:t.machines.(dst)
      ~bytes:(float_of_int (String.length msg))
      t.boxes.(dst) (t.self, msg)
  then Ok ()
  else
    Error
      (Transport.Send_failed
         {
           dst;
           attempts = Net.default_max_retries + 1;
           reason = "simulated link dropped every retransmission";
         })

(* The liveness check runs again after the wait: a machine that died
   while its process was parked here must not handle what arrived. *)
let recv (t : t) ~(timeout : float) : (int * string, Transport.error) result =
  if not (alive t) then Error Transport.Closed
  else
    match Mailbox.recv_timeout t.boxes.(t.self) ~timeout with
    | _ when not (alive t) -> Error Transport.Closed
    | Some m -> Ok m
    | None -> Error Transport.Timeout

let close (_ : t) : unit = ()

(* The adapter really does satisfy the signature. *)
module Check : Transport.S with type t = t = struct
  type nonrec t = t

  let self = self
  let send = send
  let recv = recv
  let close = close
end
