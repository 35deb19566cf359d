(** Network model: clustered pairwise latency (40 ms intra, 80–160 ms
    inter, as injected by the paper with tc — Figure 8), bandwidth-limited
    transfers serialized on the sender's NIC, per-directed-pair TLS
    connection setup (one RTT + a CPU charge on first use), and
    retransmission with exponential backoff toward dead or lossy peers.

    Message loss is sampled from a dedicated seeded RNG, so lossy runs
    replay bit-identically; retransmits, random losses and terminal drops
    are all counted. *)

type t = {
  engine : Engine.t;
  intra_latency : float;
  inter_min : float;
  inter_max : float;
  tls_cpu : float;
  loss_prob : float;
  loss_rng : Atom_util.Rng.t;
  max_retries : int;
  retry_backoff : float;
  established : (int * int, unit) Hashtbl.t;
  mutable connections_opened : int;
  mutable bytes_sent : float;
  mutable retransmits : int;
  mutable messages_lost : int;
  mutable messages_dropped : int;
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

val default_tls_cpu : float
val default_max_retries : int
val default_retry_backoff : float

val default_send_timeout : float
(** Seconds after which retries toward a dead machine stop (5 s, as for a
    refused TCP peer); random loss on a live link keeps the full ladder. *)

val create :
  ?intra_latency:float ->
  ?inter_min:float ->
  ?inter_max:float ->
  ?tls_cpu:float ->
  ?loss_prob:float ->
  ?loss_seed:int ->
  ?max_retries:int ->
  ?retry_backoff:float ->
  Engine.t ->
  t

val latency : t -> Machine.t -> Machine.t -> float
(** One-way propagation latency; deterministic and symmetric per cluster
    pair. *)

val transfer_time : Machine.t -> Machine.t -> bytes:float -> float
(** Serialization time at min(sender, receiver) bandwidth. *)

val ensure_connection : t -> Machine.t -> Machine.t -> unit
(** Charge the TLS handshake on first use of a directed pair. Must run
    inside a process. *)

val send : t -> src:Machine.t -> dst:Machine.t -> bytes:float -> 'a Mailbox.t -> 'a -> unit
(** Blocking send (back-pressure on the sender's NIC); delivery is
    scheduled after propagation. Transmissions toward a dead machine (or
    eaten by random loss) are retried with exponential backoff up to
    [max_retries] times — toward a dead machine only while the next retry
    starts within {!default_send_timeout} — then dropped and counted in
    [messages_dropped] / [bytes_dropped]. Must run inside a process. *)

val send_tracked :
  t -> src:Machine.t -> dst:Machine.t -> bytes:float -> 'a Mailbox.t -> 'a -> bool
(** Like {!send}, but reports whether delivery was scheduled ([false] means
    the message was dropped after exhausting retries). *)

val send_async : t -> src:Machine.t -> dst:Machine.t -> bytes:float -> 'a Mailbox.t -> 'a -> unit
(** Fire-and-forget wrapper usable outside a process. *)
