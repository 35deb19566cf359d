(* Real TCP transport: framed messages over sockets.

   Shape mirrors [Sim_transport] (and therefore [Transport.S]): an endpoint
   owns a listening socket, a pool of one outgoing connection per peer, and
   a single inbox that reader threads feed. The paper's deployment runs TLS
   between servers; here the framing layer's magic/version/CRC checks stand
   in for transport integrity and the trust analysis does not change — Atom
   assumes the adversary sees all traffic anyway (DESIGN.md §transport).

   Discipline:
   - Outgoing connections are pooled and lazily (re)established. A failed
     send closes the connection and retries with exponential backoff,
     mirroring the [Atom_sim.Net] retransmission policy (max_retries,
     first-backoff-doubles), then gives up and reports the drop.
   - Every send has a per-send socket timeout (SO_SNDTIMEO), so a wedged
     peer costs bounded time, not a hung round.
   - Incoming connections identify themselves with a Hello frame; the
     reader thread validates each frame header before buffering the frame,
     and kills the connection on the first malformed byte.
   - Everything is instrumented through [Atom_obs]: byte counters both
     directions, send-size and send-latency histograms, reconnect and
     drop and protocol-error counters.

   recv timeouts use a self-pipe: reader threads signal the pipe after
   enqueueing, and recv blocks in select with the remaining deadline —
   no polling, no busy-wait. *)

type peer = {
  addr : Unix.sockaddr;
  mu : Mutex.t; (* serializes sends (and reconnects) toward this peer *)
  mutable fd : Unix.file_descr option;
}

type t = {
  node_id : int;
  listen_fd : Unix.file_descr;
  port : int;
  peers : (int, peer) Hashtbl.t;
  peers_mu : Mutex.t;
  (* Accepted incoming connections, tracked so [close] can sever them.
     Without this a "dead" node's established connections linger in the
     kernel and peers' writes keep succeeding silently — in-process kills
     (tests, chaos) would look nothing like a real crash, which RSTs
     every connection the moment the process dies. *)
  readers : (Unix.file_descr, unit) Hashtbl.t;
  readers_mu : Mutex.t;
  inbox : (int * string) Queue.t;
  inbox_mu : Mutex.t;
  max_inbox : int; (* frames buffered before overflow drops kick in *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable closed : bool;
  send_timeout : float;
  max_retries : int;
  retry_backoff : float;
  (* observability *)
  m_sends : Atom_obs.Metrics.counter;
  m_recvs : Atom_obs.Metrics.counter;
  m_bytes_out : Atom_obs.Metrics.counter;
  m_bytes_in : Atom_obs.Metrics.counter;
  m_reconnects : Atom_obs.Metrics.counter;
  m_drops : Atom_obs.Metrics.counter;
  m_accepts : Atom_obs.Metrics.counter;
  m_protocol_errors : Atom_obs.Metrics.counter;
  m_inbox_drops : Atom_obs.Metrics.counter;
  m_resets : Atom_obs.Metrics.counter;
  m_send_bytes : Atom_obs.Metrics.histogram;
  m_send_seconds : Atom_obs.Metrics.histogram;
}

(* Inbox bound: a flooding or byzantine peer must exhaust its own socket
   buffers, not this process's heap. Generous enough that healthy rounds
   never hit it (a round's whole traffic toward one node is a few hundred
   frames); overflow drops the newest frame and counts it — recovery
   retransmission makes the drop survivable. *)
let default_max_inbox = 8192

(* Mirror the simulator Net's retransmission policy. *)
let default_send_timeout = Atom_sim.Net.default_send_timeout
let default_max_retries = Atom_sim.Net.default_max_retries
let default_retry_backoff = Atom_sim.Net.default_retry_backoff

let close_quietly (fd : Unix.file_descr) = try Unix.close fd with Unix.Unix_error _ -> ()

(* Read exactly [n] bytes or raise (EOF counts as failure). *)
exception Conn_closed

let read_exact (fd : Unix.file_descr) (n : int) : string =
  let b = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    let k = Unix.read fd b !got (n - !got) in
    if k = 0 then raise Conn_closed;
    got := !got + k
  done;
  Bytes.unsafe_to_string b

let write_all (fd : Unix.file_descr) (s : string) : unit =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let sent = ref 0 in
  while !sent < n do
    let k = Unix.write fd b !sent (n - !sent) in
    if k <= 0 then raise Conn_closed;
    sent := !sent + k
  done

let wake (t : t) : unit =
  (* Nonblocking: if the pipe is full there is already a pending wakeup. *)
  try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let enqueue (t : t) (src : int) (frame : string) : unit =
  Mutex.lock t.inbox_mu;
  let dropped = Queue.length t.inbox >= t.max_inbox in
  if not dropped then Queue.add (src, frame) t.inbox;
  Mutex.unlock t.inbox_mu;
  if dropped then Atom_obs.Metrics.incr t.m_inbox_drops else wake t

let track_reader (t : t) (fd : Unix.file_descr) : unit =
  Mutex.lock t.readers_mu;
  Hashtbl.replace t.readers fd ();
  Mutex.unlock t.readers_mu

let untrack_reader (t : t) (fd : Unix.file_descr) : unit =
  Mutex.lock t.readers_mu;
  Hashtbl.remove t.readers fd;
  Mutex.unlock t.readers_mu

(* One incoming connection: Hello first, then framed messages forever. *)
let reader_loop (t : t) (fd : Unix.file_descr) : unit =
  let read_frame () =
    let header = read_exact fd Atom_wire.Frame.header_bytes in
    match Atom_wire.Frame.read_header header with
    | None ->
        Atom_obs.Metrics.incr t.m_protocol_errors;
        raise Conn_closed
    | Some h ->
        let body = read_exact fd h.Atom_wire.Frame.body_len in
        let frame = header ^ body in
        Atom_obs.Metrics.add t.m_bytes_in (float_of_int (String.length frame));
        frame
  in
  match
    (match Atom_wire.Control.decode (read_frame ()) with
    | Some (Atom_wire.Control.Hello { node_id }) -> node_id
    | _ ->
        Atom_obs.Metrics.incr t.m_protocol_errors;
        raise Conn_closed)
  with
  | src -> (
      try
        while not t.closed do
          enqueue t src (read_frame ())
        done;
        untrack_reader t fd;
        close_quietly fd
      with Conn_closed | Unix.Unix_error _ | Sys_error _ ->
        untrack_reader t fd;
        close_quietly fd)
  | exception (Conn_closed | Unix.Unix_error _ | Sys_error _) ->
      untrack_reader t fd;
      close_quietly fd

let accept_loop (t : t) : unit =
  try
    while not t.closed do
      let fd, _ = Unix.accept t.listen_fd in
      if t.closed then close_quietly fd
      else begin
        Atom_obs.Metrics.incr t.m_accepts;
        track_reader t fd;
        ignore (Thread.create (fun () -> reader_loop t fd) ())
      end
    done
  with Unix.Unix_error _ | Sys_error _ -> () (* listen socket closed: shutting down *)

let create ?(obs = Atom_obs.Ctx.noop) ?(host = "127.0.0.1") ?(port = 0)
    ?(send_timeout = default_send_timeout) ?(max_retries = default_max_retries)
    ?(retry_backoff = default_retry_backoff) ?(max_inbox = default_max_inbox)
    ~(node_id : int) () : t =
  (* A dead peer mid-write must be a catchable error, not a fatal signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let reg = Atom_obs.Ctx.metrics obs in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen listen_fd 128;
  let actual_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      node_id;
      listen_fd;
      port = actual_port;
      peers = Hashtbl.create 64;
      peers_mu = Mutex.create ();
      readers = Hashtbl.create 64;
      readers_mu = Mutex.create ();
      inbox = Queue.create ();
      inbox_mu = Mutex.create ();
      max_inbox;
      wake_r;
      wake_w;
      closed = false;
      send_timeout;
      max_retries;
      retry_backoff;
      m_sends = Atom_obs.Metrics.counter reg "rpc.sends";
      m_recvs = Atom_obs.Metrics.counter reg "rpc.recvs";
      m_bytes_out = Atom_obs.Metrics.counter reg "rpc.bytes_out";
      m_bytes_in = Atom_obs.Metrics.counter reg "rpc.bytes_in";
      m_reconnects = Atom_obs.Metrics.counter reg "rpc.reconnects";
      m_drops = Atom_obs.Metrics.counter reg "rpc.drops";
      m_accepts = Atom_obs.Metrics.counter reg "rpc.accepts";
      m_protocol_errors = Atom_obs.Metrics.counter reg "rpc.protocol_errors";
      m_inbox_drops = Atom_obs.Metrics.counter reg "rpc.inbox_drops";
      m_resets = Atom_obs.Metrics.counter reg "rpc.resets";
      m_send_bytes =
        Atom_obs.Metrics.histogram reg ~buckets:24 ~lo:0. ~hi:1e6 "rpc.send_bytes";
      m_send_seconds =
        Atom_obs.Metrics.histogram reg ~buckets:24 ~lo:0. ~hi:1. "rpc.send_seconds";
    }
  in
  ignore (Thread.create (fun () -> accept_loop t) ());
  t

let self (t : t) : int = t.node_id
let port (t : t) : int = t.port

(* Re-adding a peer at its known address keeps the pooled connection (a
   node re-registers a client on every Submit). A changed address replaces
   the entry and closes the old connection rather than leaking it. *)
let add_peer (t : t) ~(node_id : int) ~(host : string) ~(port : int) : unit =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  Mutex.lock t.peers_mu;
  let old = Hashtbl.find_opt t.peers node_id in
  let moved = match old with Some p -> p.addr <> addr | None -> true in
  if moved then Hashtbl.replace t.peers node_id { addr; mu = Mutex.create (); fd = None };
  Mutex.unlock t.peers_mu;
  match old with
  | Some p when moved ->
      Mutex.lock p.mu;
      Option.iter close_quietly p.fd;
      p.fd <- None;
      Mutex.unlock p.mu
  | _ -> ()

(* Forcibly drop the pooled outgoing connection to [dst]; the next send
   re-establishes it through the ordinary reconnect path. Chaos injection
   uses this to model mid-round connection resets, and the test suite uses
   it to pin the reconnect budget's behavior. *)
let reset_peer (t : t) ~(dst : int) : unit =
  Mutex.lock t.peers_mu;
  let peer = Hashtbl.find_opt t.peers dst in
  Mutex.unlock t.peers_mu;
  match peer with
  | None -> ()
  | Some p ->
      Mutex.lock p.mu;
      (match p.fd with
      | Some fd ->
          close_quietly fd;
          p.fd <- None;
          Atom_obs.Metrics.incr t.m_resets
      | None -> ());
      Mutex.unlock p.mu

let peer_ids (t : t) : int list =
  Mutex.lock t.peers_mu;
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.peers [] in
  Mutex.unlock t.peers_mu;
  List.sort compare ids

(* Establish the pooled connection to [p] (caller holds [p.mu]): connect,
   arm the per-send timeout, introduce ourselves. *)
let connect_peer (t : t) (p : peer) : Unix.file_descr =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd p.addr;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.send_timeout;
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     close_quietly fd;
     raise e);
  (try write_all fd (Atom_wire.Control.encode (Atom_wire.Control.Hello { node_id = t.node_id }))
   with e ->
     close_quietly fd;
     raise e);
  fd

let send (t : t) ~(dst : int) (msg : string) : (unit, Transport.error) result =
  if t.closed then Error Transport.Closed
  else if dst = t.node_id then begin
    (* Self-send: a server can hold roles in several groups (the square
       topology routinely wires a group's tail to a head on the same
       machine). Loop it through the inbox directly. *)
    Atom_obs.Metrics.incr t.m_sends;
    enqueue t t.node_id msg;
    Ok ()
  end
  else begin
  Mutex.lock t.peers_mu;
  let peer = Hashtbl.find_opt t.peers dst in
  Mutex.unlock t.peers_mu;
  match peer with
  | None -> Error (Transport.Unknown_peer dst)
  | Some p ->
      let t0 = Unix.gettimeofday () in
      Mutex.lock p.mu;
      let rec attempt tries backoff =
        if t.closed then Error Transport.Closed
        else
          match
            let fd =
              match p.fd with
              | Some fd -> fd
              | None ->
                  let fd = connect_peer t p in
                  p.fd <- Some fd;
                  fd
            in
            write_all fd msg
          with
          | () ->
              Atom_obs.Metrics.incr t.m_sends;
              Atom_obs.Metrics.add t.m_bytes_out (float_of_int (String.length msg));
              Atom_obs.Metrics.observe t.m_send_bytes (float_of_int (String.length msg));
              Ok ()
          | exception ((Conn_closed | Unix.Unix_error _ | Sys_error _) as e) ->
              (match p.fd with
              | Some fd ->
                  close_quietly fd;
                  p.fd <- None
              | None -> ());
              (* The reconnect budget is bounded in *time* as well as
                 attempts: a peer that is dead (connection refused) must
                 fail the send within [send_timeout] so callers can turn
                 the typed error into a death certificate promptly, rather
                 than sitting out the full exponential-backoff ladder. *)
              if
                tries >= t.max_retries
                || Unix.gettimeofday () -. t0 +. backoff > t.send_timeout
              then begin
                Atom_obs.Metrics.incr t.m_drops;
                Atom_obs.Log.warn "rpc: dropped %d bytes %d->%d after %d retries"
                  (String.length msg) t.node_id dst tries;
                let reason =
                  match e with Conn_closed -> "connection closed" | e -> Printexc.to_string e
                in
                Error (Transport.Send_failed { dst; attempts = tries + 1; reason })
              end
              else begin
                Atom_obs.Metrics.incr t.m_reconnects;
                Thread.delay backoff;
                attempt (tries + 1) (backoff *. 2.)
              end
      in
      let r = attempt 0 t.retry_backoff in
      Mutex.unlock p.mu;
      Atom_obs.Metrics.observe t.m_send_seconds (Unix.gettimeofday () -. t0);
      r
  end

let drain_wake (t : t) : unit =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let recv (t : t) ~(timeout : float) : (int * string, Transport.error) result =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    let item =
      Mutex.lock t.inbox_mu;
      let item = if Queue.is_empty t.inbox then None else Some (Queue.pop t.inbox) in
      Mutex.unlock t.inbox_mu;
      item
    in
    match item with
    | Some (src, frame) ->
        Atom_obs.Metrics.incr t.m_recvs;
        Ok (src, frame)
    | None ->
        if t.closed then Error Transport.Closed
        else
          let dt = deadline -. Unix.gettimeofday () in
          if dt <= 0. then Error Transport.Timeout
          else begin
            (match Unix.select [ t.wake_r ] [] [] dt with
            | [ _ ], _, _ -> drain_wake t
            | _ -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            wait ()
          end
  in
  wait ()

let close (t : t) : unit =
  if not t.closed then begin
    t.closed <- true;
    (* Shutdown before close: on Linux this wakes a thread blocked in
       accept(2) on this socket. A bare close would leave the blocked
       accept holding the kernel socket open, so new connects to this
       "dead" node would keep completing against the listen backlog. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    close_quietly t.listen_fd;
    (* Sever accepted connections too — a crashed process RSTs them, and
       peers rely on that typed send failure as the death certificate. *)
    Mutex.lock t.readers_mu;
    Hashtbl.iter
      (fun fd () -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.readers;
    Mutex.unlock t.readers_mu;
    Mutex.lock t.peers_mu;
    Hashtbl.iter
      (fun _ p ->
        match p.fd with
        | Some fd ->
            close_quietly fd;
            p.fd <- None
        | None -> ())
      t.peers;
    Mutex.unlock t.peers_mu;
    wake t;
    close_quietly t.wake_r;
    close_quietly t.wake_w
  end

(* The real transport satisfies the same signature as the simulated one. *)
module Check : Transport.S with type t = t = struct
  type nonrec t = t

  let self = self
  let send = send
  let recv = recv
  let close = close
end
