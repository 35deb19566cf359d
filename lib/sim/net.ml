(* Network model.

   The paper injects 40–160 ms pairwise latencies with tc and groups servers
   into latency clusters (Figure 8): links within a cluster take 40 ms,
   links across clusters 80–160 ms. We reproduce that: pairwise latency is a
   deterministic function of the endpoints' clusters (hashed so each cluster
   pair gets a stable value in the range), transfers are serialized on the
   sender's NIC at min(sender, receiver) bandwidth, and the first use of a
   directed pair pays a connection-setup cost (TLS handshake: one round trip
   plus a fixed CPU charge) — the overhead that makes Figure 11's trustee
   group sub-linear at huge scale.

   Delivery is retried, not fire-and-forget: a transmission toward a dead
   machine (or one eaten by probabilistic loss, sampled from a dedicated
   seeded RNG so runs replay bit-identically) is retransmitted with
   exponential backoff up to [max_retries] times (toward a dead machine,
   for at most [default_send_timeout]) before being dropped for good.
   Every retransmit and terminal drop is counted, so churn leaves an audit
   trail in the stats instead of silently vanishing traffic. *)

type t = {
  engine : Engine.t;
  intra_latency : float;
  inter_min : float;
  inter_max : float;
  tls_cpu : float; (* handshake compute cost, seconds *)
  loss_prob : float; (* per-transmission random loss probability *)
  loss_rng : Atom_util.Rng.t;
  max_retries : int;
  retry_backoff : float; (* first backoff; doubles per retry *)
  established : (int * int, unit) Hashtbl.t;
  mutable connections_opened : int;
  mutable bytes_sent : float;
  mutable retransmits : int;
  mutable messages_lost : int; (* transmissions eaten by random loss *)
  mutable messages_dropped : int; (* messages abandoned after max_retries *)
  mutable bytes_dropped : float;
  reg : Atom_obs.Metrics.t;
  m_sends : Atom_obs.Metrics.counter;
  m_bytes : Atom_obs.Metrics.counter;
  m_retransmits : Atom_obs.Metrics.counter;
  m_losses : Atom_obs.Metrics.counter;
  m_drops : Atom_obs.Metrics.counter;
  m_connections : Atom_obs.Metrics.counter;
  m_send_bytes : Atom_obs.Metrics.histogram;
}

let default_tls_cpu = 0.001
let default_max_retries = 8
let default_retry_backoff = 0.25

(* A send toward a dead machine gives up once its retries would outlast
   this, as a TCP connect to a refused peer does: the typed failure is a
   death certificate, so it must come promptly. Random loss on a live
   link keeps the full retry ladder. *)
let default_send_timeout = 5.0

let create ?(intra_latency = 0.040) ?(inter_min = 0.080) ?(inter_max = 0.160)
    ?(tls_cpu = default_tls_cpu) ?(loss_prob = 0.) ?(loss_seed = 0x10ad)
    ?(max_retries = default_max_retries) ?(retry_backoff = default_retry_backoff)
    (engine : Engine.t) : t =
  if loss_prob < 0. || loss_prob >= 1. then invalid_arg "Net.create: need 0 <= loss_prob < 1";
  let reg = Atom_obs.Ctx.metrics (Engine.obs engine) in
  {
    reg;
    m_sends = Atom_obs.Metrics.counter reg "net.sends";
    m_bytes = Atom_obs.Metrics.counter reg "net.bytes_sent";
    m_retransmits = Atom_obs.Metrics.counter reg "net.retransmits";
    m_losses = Atom_obs.Metrics.counter reg "net.losses";
    m_drops = Atom_obs.Metrics.counter reg "net.drops";
    m_connections = Atom_obs.Metrics.counter reg "net.connections";
    m_send_bytes =
      Atom_obs.Metrics.histogram reg ~buckets:24 ~lo:0. ~hi:1e6 "net.send_bytes";
    engine;
    intra_latency;
    inter_min;
    inter_max;
    tls_cpu;
    loss_prob;
    loss_rng = Atom_util.Rng.create loss_seed;
    max_retries;
    retry_backoff;
    established = Hashtbl.create 4096;
    connections_opened = 0;
    bytes_sent = 0.;
    retransmits = 0;
    messages_lost = 0;
    messages_dropped = 0;
    bytes_dropped = 0.;
  }

(* One-way propagation latency between two machines. *)
let latency (net : t) (src : Machine.t) (dst : Machine.t) : float =
  if src.Machine.cluster = dst.Machine.cluster then net.intra_latency
  else begin
    let key =
      Printf.sprintf "lat:%d:%d"
        (min src.Machine.cluster dst.Machine.cluster)
        (max src.Machine.cluster dst.Machine.cluster)
    in
    let h = Atom_util.Rng.hash_string key in
    let frac = float_of_int (h land 0xffff) /. 65536. in
    net.inter_min +. (frac *. (net.inter_max -. net.inter_min))
  end

let transfer_time (src : Machine.t) (dst : Machine.t) ~(bytes : float) : float =
  bytes /. Float.min src.Machine.bandwidth dst.Machine.bandwidth

(* Ensure a connection exists; charges the sender for the handshake on first
   use. Must run inside a process. *)
let ensure_connection (net : t) (src : Machine.t) (dst : Machine.t) : unit =
  let key = (src.Machine.id, dst.Machine.id) in
  if not (Hashtbl.mem net.established key) then begin
    Hashtbl.add net.established key ();
    net.connections_opened <- net.connections_opened + 1;
    Atom_obs.Metrics.incr net.m_connections;
    Machine.compute net.engine src ~serial:net.tls_cpu ~parallel:0.;
    Engine.sleep net.engine (2. *. latency net src dst)
  end

(* Send [bytes] from [src] to [dst], delivering [msg] into [mailbox] after
   serialization + propagation. Blocks the caller for the NIC serialization
   time (back-pressure) and for any retransmission backoff; propagation
   happens asynchronously. Returns [true] iff delivery was scheduled. *)
let send_tracked (net : t) ~(src : Machine.t) ~(dst : Machine.t) ~(bytes : float)
    (mailbox : 'a Mailbox.t) (msg : 'a) : bool =
  let give_up tries =
    net.messages_dropped <- net.messages_dropped + 1;
    net.bytes_dropped <- net.bytes_dropped +. bytes;
    Atom_obs.Metrics.incr net.m_drops;
    Atom_obs.Log.warn "net: dropped %.0f bytes %d->%d after %d retries" bytes src.Machine.id
      dst.Machine.id tries;
    false
  in
  let t0 = Engine.now net.engine in
  let rec attempt tries backoff =
    let retry ~dead =
      if
        tries >= net.max_retries
        || (dead && Engine.now net.engine -. t0 +. backoff > default_send_timeout)
      then give_up tries
      else begin
        Engine.sleep net.engine backoff;
        net.retransmits <- net.retransmits + 1;
        Atom_obs.Metrics.incr net.m_retransmits;
        attempt (tries + 1) (backoff *. 2.)
      end
    in
    if not dst.Machine.alive then retry ~dead:true (* fail-stop peer: back off, re-probe *)
    else begin
      ensure_connection net src dst;
      let tx = transfer_time src dst ~bytes in
      Resource.with_resource src.Machine.nic (fun () -> Engine.sleep net.engine tx);
      net.bytes_sent <- net.bytes_sent +. bytes;
      Atom_obs.Metrics.incr net.m_sends;
      Atom_obs.Metrics.add net.m_bytes bytes;
      Atom_obs.Metrics.observe net.m_send_bytes bytes;
      (* Per-edge byte accounting at latency-cluster granularity (bounded
         cardinality); label construction only when the registry is live. *)
      if Atom_obs.Metrics.enabled net.reg then
        Atom_obs.Metrics.add
          (Atom_obs.Metrics.counter net.reg
             (Printf.sprintf "net.edge.%d->%d.bytes" src.Machine.cluster dst.Machine.cluster))
          bytes;
      if net.loss_prob > 0. && Atom_util.Rng.float net.loss_rng < net.loss_prob then begin
        net.messages_lost <- net.messages_lost + 1;
        Atom_obs.Metrics.incr net.m_losses;
        retry ~dead:false
      end
      else begin
        let lat = latency net src dst in
        Engine.schedule net.engine ~delay:lat (fun () -> Mailbox.send mailbox msg);
        true
      end
    end
  in
  attempt 0 net.retry_backoff

let send (net : t) ~(src : Machine.t) ~(dst : Machine.t) ~(bytes : float) (mailbox : 'a Mailbox.t)
    (msg : 'a) : unit =
  ignore (send_tracked net ~src ~dst ~bytes mailbox msg)

(* Fire-and-forget variant usable from outside a process context. *)
let send_async (net : t) ~(src : Machine.t) ~(dst : Machine.t) ~(bytes : float)
    (mailbox : 'a Mailbox.t) (msg : 'a) : unit =
  Engine.spawn net.engine (fun () -> send net ~src ~dst ~bytes mailbox msg)
