(** Control-plane messages: node bring-up, group assignment, iteration
    barriers, aborts, stats, and the client submission plane. These are
    independent of the group backend, so they decode without a functor —
    and they carry no group elements, so the {!Validation} policies of the
    data-plane codec do not apply here: everything is fully validated by
    the structural decode itself. Submission blobs and stats snapshots are
    opaque at this layer and strictly decoded by their consumers
    ([Protocol.Wire.submission_of_bytes], [Atom_obs.Snapshot]).

    Decoders are strict and total: arbitrary bytes yield [None], never an
    exception. *)

type t =
  | Hello of { node_id : int }
  | Join of { node_id : int; port : int }
  | Peers of { peers : (int * int) array  (** (node_id, port) pairs. *) }
  | Group_assign of { gid : int; members : int array }
  | Barrier of { iter : int }
  | Abort of { code : int; detail : string }
  | Shutdown
  | Ack of { token : int }
  | Submissions of { gid : int; blobs : string array }
  | Trap_commitments of { gid : int; commitments : string array }
  | Published of { plaintexts : string array }
  | Failed of { sids : int array }
      (** These servers are presumed dead: reroute their roles (§4.5). *)
  | Retransmit  (** Re-send retained in-flight frames (recovery nudge). *)
  | Stats_request of { token : int }
      (** Serve your observability snapshot now; echoed in the reply. *)
  | Stats_reply of { token : int; node_id : int; snapshot : string }
      (** [snapshot] is an atom-metrics/1 JSON document ([Atom_obs.Snapshot]);
          opaque at this layer, strictly decoded by the receiver. *)
  | Submit of {
      client : int;
      port : int;  (** Client's listen port (return path for the ack). *)
      token : int;  (** Client-chosen, echoed verbatim in the ack. *)
      gid : int;  (** Entry group the onion targets. *)
      epoch : int;  (** Advisory; the node assigns the actual epoch. *)
      blob : string;  (** Opaque onion ([Protocol.Wire] submission bytes). *)
      pow : string;  (** Hashcash nonce; empty when PoW is disabled. *)
    }
  | Submit_ack of {
      token : int;
      status : int;  (** [submit_accepted] / [submit_retry] / [submit_rejected]. *)
      epoch : int;  (** Epoch the submission was admitted into (accept). *)
      retry_ms : int;  (** Backpressure hint (retry status). *)
      queue_len : int;  (** Serving node's current epoch-queue depth. *)
    }
  | Epoch_info of { epoch : int; pow_bits : int; queue_cap : int; queue_len : int }
      (** Collecting epoch plus the admission parameters a client needs. *)
  | Bulletin_announce of {
      epoch : int;
      digest : string;  (** 32-byte sealed-bulletin digest. *)
      signature : string;  (** Publisher's Schnorr signature over the digest. *)
      posts : string array;  (** The sealed epoch output, in bulletin order. *)
    }

(** {2 Abort codes} (carried on the wire; the detail string is for humans) *)

val abort_proof_rejected : int
val abort_bad_assignment : int
val abort_internal : int

(** {2 Submit_ack statuses} *)

val submit_accepted : int
val submit_retry : int
val submit_rejected : int

(** {2 Codec} *)

val max_blob : int
(** Largest submission blob, plaintext, post or abort detail a decoded
    frame may carry. *)

val encode : t -> string
(** A complete frame (header + body), ready for the transport.
    @raise Invalid_argument on malformed fixed-width fields (a digest or
    commitment that is not 32 bytes) — programming errors, not wire
    input. *)

val decode_body : int -> string -> t option
(** [decode_body kind body] — for callers that already split the frame. *)

val decode : string -> t option
(** Full strict decode of one frame. *)
