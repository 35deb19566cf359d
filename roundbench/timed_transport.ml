(* A timing and capture wrapper around the loopback TCP transport.

   [Node.Make] is a functor over [Transport.S], so the benchmark slips this
   module in underneath every endpoint without touching the runtime: each
   send and receive is timestamped on the wall clock, and the traced pass
   also keeps a copy of every frame sent, for the wire replay after the
   run.

   Each endpoint is driven by exactly one thread (its node's event loop,
   or the coordinator), so the recorder needs no lock. The one cross-thread
   write is [reset], which the coordinator's first send performs on every
   node's recorder while the nodes are idle in [recv] waiting for it.

   Handler time is measured from outside too: a frame's handler runs from
   the moment [recv] hands the frame over until the loop calls [recv]
   again. *)

module Tcp = Atom_rpc.Tcp_transport
module Frame = Atom_wire.Frame

type recorder = {
  mutable since : float; (* window start: waits before it are not counted *)
  mutable send_s : float;
  mutable recv_wait_s : float;
  mutable frames : string list; (* sent frames, newest first (capture only) *)
  mutable first_call : float; (* nan until the endpoint's first send... *)
  mutable first_send : float; (* ...and after [on_first_send] ran for it *)
  mutable entry_s : float; (* total handler time of entry frames *)
  mutable handling : float; (* when the entry frame in hand was received; nan if none *)
}

type t = {
  inner : Tcp.t;
  r : recorder;
  capture : bool;
  mutable on_first_send : unit -> unit;
}

(* The process-relative wall clock every timestamp of the benchmark is
   read on: the recorders here, and the tracers and [sent_at] stamps of
   the runtime, which the fleet binds to the same function. *)
let origin = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. origin

let fresh_recorder () =
  {
    since = now ();
    send_s = 0.;
    recv_wait_s = 0.;
    frames = [];
    first_call = nan;
    first_send = nan;
    entry_s = 0.;
    handling = nan;
  }

let wrap ?(capture = false) (inner : Tcp.t) : t =
  { inner; r = fresh_recorder (); capture; on_first_send = ignore }

(* Start the endpoint's measurement window now, dropping what came before. *)
let reset (t : t) : unit =
  let r = t.r in
  r.since <- now ();
  r.send_s <- 0.;
  r.recv_wait_s <- 0.;
  r.frames <- [];
  r.entry_s <- 0.;
  r.handling <- nan

let is_entry kind = kind = Frame.kind_submissions || kind = Frame.kind_submit

let self (t : t) : int = Tcp.self t.inner

let send (t : t) ~(dst : int) (frame : string) : (unit, Atom_rpc.Transport.error) result =
  let r = t.r in
  if Float.is_nan r.first_send then begin
    r.first_call <- now ();
    t.on_first_send ();
    r.first_send <- now ()
  end;
  let t0 = now () in
  let res = Tcp.send t.inner ~dst frame in
  let t1 = now () in
  r.send_s <- r.send_s +. (t1 -. t0);
  if t.capture then r.frames <- frame :: r.frames;
  res

let finish_handler (r : recorder) (t : float) : unit =
  if not (Float.is_nan r.handling) then begin
    r.entry_s <- r.entry_s +. (t -. r.handling);
    r.handling <- nan
  end

let recv (t : t) ~(timeout : float) : (int * string, Atom_rpc.Transport.error) result =
  let r = t.r in
  let t0 = now () in
  finish_handler r t0;
  let res = Tcp.recv t.inner ~timeout in
  let t1 = now () in
  if t1 > r.since then r.recv_wait_s <- r.recv_wait_s +. (t1 -. Float.max t0 r.since);
  (match res with
  | Ok (_, frame) -> (
      match Frame.kind_of frame with Some k when is_entry k -> r.handling <- t1 | _ -> ())
  | Error _ -> ());
  res

let close (t : t) : unit = Tcp.close t.inner

module Check : Atom_rpc.Transport.S with type t = t = struct
  type nonrec t = t

  let self = self
  let send = send
  let recv = recv
  let close = close
end
