(** Large-scale modeled execution over the discrete-event simulator — the
    engine behind Figures 5–11.

    The protocol's structure (sequential shuffle/reencrypt chains within
    each group, machines staggered across many groups, square-network layer
    barriers, pairwise latencies, NIC serialization, TLS setup, trustee
    endgame) executes event by event; cryptographic payloads are replaced
    by calibrated virtual CPU charges ({!Calibration.paper} by default).
    The paper uses this same technique for its Figure 11. Modeling notes
    and cross-checks against the paper's own arithmetic are in the
    implementation header. *)

type params = {
  config : Config.t;
  cal : Calibration.t;
  n_messages : int;
  points_per_msg : int;  (** paper packing: ceil(msg_bytes / 32) *)
  dummies : int;  (** differential-privacy dummy messages (dialing) *)
  intra_parallel : bool;  (** Figure-7 mode: spread one batch across cores *)
  parallel_fraction : float;
  clusters : int;
  wire_bytes_per_point : float;
  layer_overhead : float;
      (** Fixed extra seconds per mixing layer; the Figure 11 bench sets the
          value fitted to the paper's measured sub-linearity (≈2,000 s at
          billion-message scale, attributed to connection management). *)
}

val microblog : ?cal:Calibration.t -> Config.t -> n_messages:int -> params
(** 160-byte messages (5 points), no dummies. *)

val dialing : ?cal:Calibration.t -> Config.t -> n_messages:int -> params
(** 80-byte messages plus µ-per-trustee DP dummies (§5). *)

val one_iteration_seconds :
  cal:Calibration.t ->
  variant:Config.variant ->
  k:int ->
  units:int ->
  points:int ->
  ?cores:int ->
  ?intra_parallel:bool ->
  ?include_network:bool ->
  ?hop_latency:float ->
  ?bandwidth:float ->
  ?wire_bytes_per_point:float ->
  unit ->
  float
(** Closed-form single-group mixing-iteration time (Figures 5, 6, 7). *)

type result = {
  latency : float;
  iteration_times : float array;
  bytes_sent : float;
  connections : int;
  events : int;
  max_server_bandwidth : float;
  retransmits : int;  (** link-layer retries (loss / dead receivers) *)
  messages_dropped : int;  (** messages abandoned after max retries *)
  bytes_dropped : float;
}

val recovery_seconds :
  cal:Calibration.t ->
  quorum:int ->
  dead:int ->
  ?hop_latency:float ->
  ?bandwidth:float ->
  ?share_bytes:float ->
  unit ->
  float
(** Closed-form cost of §4.5 buddy-group recovery for [dead] lost members:
    per member, one sub-share transfer round from the buddy group plus a
    Lagrange reconstruction charged like [quorum] re-encryptions. *)

val run : ?obs:Atom_obs.Ctx.t -> params -> result
(** One full round, end to end (entry verification through trustee
    release). Deterministic in [config.seed]: with a tracing [obs] (default
    no-op) the per-(group, iteration) spans and exclusive phase tracks
    (verify/shuffle/decrypt/network/barrier/exit) are stamped in virtual
    time, so identical parameters yield byte-identical traces. *)

type pipeline_result = {
  first_output : float;
  last_output : float;
  output_gap : float;
  pipelined_rounds : int;
}

val run_pipelined : params -> rounds:int -> pipeline_result
(** §4.7 pipelining: layer-dedicated server slices, consecutive rounds in
    flight; the network emits one round per layer-latency. *)
