(* Control-plane messages: node bring-up, group assignment, iteration
   barriers, abort notices. These are independent of the group backend, so
   they decode without a functor — the transport layer itself uses [Hello]
   to identify peers, and the coordinator drives the round with the rest.

   Body layouts (big-endian; see Frame for the header):

     hello             u32 node_id
     join              u32 node_id ‖ u16 port
     peers             u32 n ‖ n × (u32 node_id ‖ u16 port)
     group_assign      u32 gid ‖ u32 n ‖ n × u32 member
     barrier           u32 iter
     abort             u16 code ‖ str32 detail
     shutdown          (empty)
     ack               u32 token
     submissions       u32 gid ‖ u32 n ‖ n × str32 blob
     trap_commitments  u32 gid ‖ u32 n ‖ n × 32-byte commitment
     published         u32 n ‖ n × str32 plaintext
     failed            u32 n ‖ n × u32 sid
     retransmit        (empty)
     stats_request     u32 token
     stats_reply       u32 token ‖ u32 node_id ‖ str32 snapshot
     submit            u32 client ‖ u16 port ‖ u32 token ‖ u32 gid ‖
                       u32 epoch ‖ str32 blob ‖ str32 pow
     submit_ack        u32 token ‖ u8 status ‖ u32 epoch ‖ u32 retry_ms ‖
                       u32 queue_len
     epoch_info        u32 epoch ‖ u32 pow_bits ‖ u32 queue_cap ‖
                       u32 queue_len
     bulletin_announce u32 epoch ‖ 32-byte digest ‖ str32 signature ‖
                       u32 n ‖ n × str32 post

   Submission blobs are opaque at this layer (their group elements are
   validated by [Protocol.Wire.submission_of_bytes] at the protocol
   boundary); everything else is fully validated here. A [Submit] with an
   empty blob is an epoch query: the serving node answers [Epoch_info]
   instead of admitting anything. [port] is the client's own listen port,
   so the node can register a return path for the ack on transports that
   need explicit peer wiring. *)

module W = Atom_util.Bin.W
module R = Atom_util.Bin.R

type t =
  | Hello of { node_id : int }
  | Join of { node_id : int; port : int }
  | Peers of { peers : (int * int) array (* node_id, port *) }
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

(* Abort codes (carried on the wire; the detail string is for humans).
   Code 1 stays unassigned: a node drops and counts a bad frame rather
   than aborting the round. *)
let abort_proof_rejected = 2
let abort_bad_assignment = 3
let abort_internal = 4

let max_nodes = 1 lsl 16
let max_items = 1 lsl 16
let max_blob = 1 lsl 20

(* A stats snapshot carrying a full trace buffer outgrows [max_blob]; its
   own cap still keeps a hostile length prefix from driving allocation
   beyond the frame-level [Frame.max_body]. *)
let max_snapshot = 1 lsl 24
let commitment_bytes = 32

(* Submission-plane bounds: a hostile client must not drive allocation
   past one blob; PoW nonces and signatures are small fixed-cost items. *)
let max_pow = 64
let max_sig = 256

(* Submit_ack statuses. *)
let submit_accepted = 0
let submit_retry = 1
let submit_rejected = 2

let encode (msg : t) : string =
  let b = Buffer.create 64 in
  let kind =
    match msg with
    | Hello { node_id } ->
        W.u32 b node_id;
        Frame.kind_hello
    | Join { node_id; port } ->
        W.u32 b node_id;
        W.u16 b port;
        Frame.kind_join
    | Peers { peers } ->
        W.u32 b (Array.length peers);
        Array.iter
          (fun (id, port) ->
            W.u32 b id;
            W.u16 b port)
          peers;
        Frame.kind_peers
    | Group_assign { gid; members } ->
        W.u32 b gid;
        W.u32 b (Array.length members);
        Array.iter (W.u32 b) members;
        Frame.kind_group_assign
    | Barrier { iter } ->
        W.u32 b iter;
        Frame.kind_barrier
    | Abort { code; detail } ->
        W.u16 b code;
        W.str32 b detail;
        Frame.kind_abort
    | Shutdown -> Frame.kind_shutdown
    | Ack { token } ->
        W.u32 b token;
        Frame.kind_ack
    | Submissions { gid; blobs } ->
        W.u32 b gid;
        W.u32 b (Array.length blobs);
        Array.iter (W.str32 b) blobs;
        Frame.kind_submissions
    | Trap_commitments { gid; commitments } ->
        W.u32 b gid;
        W.u32 b (Array.length commitments);
        Array.iter
          (fun c ->
            if String.length c <> commitment_bytes then
              invalid_arg "Control.encode: commitment must be 32 bytes";
            Buffer.add_string b c)
          commitments;
        Frame.kind_trap_commitments
    | Published { plaintexts } ->
        W.u32 b (Array.length plaintexts);
        Array.iter (W.str32 b) plaintexts;
        Frame.kind_published
    | Failed { sids } ->
        W.u32 b (Array.length sids);
        Array.iter (W.u32 b) sids;
        Frame.kind_failed
    | Retransmit -> Frame.kind_retransmit
    | Stats_request { token } ->
        W.u32 b token;
        Frame.kind_stats_request
    | Stats_reply { token; node_id; snapshot } ->
        W.u32 b token;
        W.u32 b node_id;
        W.str32 b snapshot;
        Frame.kind_stats_reply
    | Submit { client; port; token; gid; epoch; blob; pow } ->
        W.u32 b client;
        W.u16 b port;
        W.u32 b token;
        W.u32 b gid;
        W.u32 b epoch;
        W.str32 b blob;
        W.str32 b pow;
        Frame.kind_submit
    | Submit_ack { token; status; epoch; retry_ms; queue_len } ->
        W.u32 b token;
        W.u8 b status;
        W.u32 b epoch;
        W.u32 b retry_ms;
        W.u32 b queue_len;
        Frame.kind_submit_ack
    | Epoch_info { epoch; pow_bits; queue_cap; queue_len } ->
        W.u32 b epoch;
        W.u32 b pow_bits;
        W.u32 b queue_cap;
        W.u32 b queue_len;
        Frame.kind_epoch_info
    | Bulletin_announce { epoch; digest; signature; posts } ->
        if String.length digest <> commitment_bytes then
          invalid_arg "Control.encode: bulletin digest must be 32 bytes";
        W.u32 b epoch;
        Buffer.add_string b digest;
        W.str32 b signature;
        W.u32 b (Array.length posts);
        Array.iter (W.str32 b) posts;
        Frame.kind_bulletin_announce
  in
  Frame.encode ~kind (Buffer.contents b)

let decode_body (kind : int) (body : string) : t option =
  let open R in
  decode body (fun r ->
      if kind = Frame.kind_hello then Hello { node_id = u32 r }
      else if kind = Frame.kind_join then
        let node_id = u32 r in
        Join { node_id; port = u16 r }
      else if kind = Frame.kind_peers then
        let n = count r ~max:max_nodes in
        Peers
          {
            peers =
              Array.init n (fun _ ->
                  let id = u32 r in
                  (id, u16 r));
          }
      else if kind = Frame.kind_group_assign then
        let gid = u32 r in
        let n = count r ~max:max_nodes in
        Group_assign { gid; members = Array.init n (fun _ -> u32 r) }
      else if kind = Frame.kind_barrier then Barrier { iter = u32 r }
      else if kind = Frame.kind_abort then
        let code = u16 r in
        Abort { code; detail = str32 ~max:max_blob r }
      else if kind = Frame.kind_shutdown then Shutdown
      else if kind = Frame.kind_ack then Ack { token = u32 r }
      else if kind = Frame.kind_submissions then
        let gid = u32 r in
        let n = count r ~max:max_items in
        Submissions { gid; blobs = Array.init n (fun _ -> str32 ~max:max_blob r) }
      else if kind = Frame.kind_trap_commitments then
        let gid = u32 r in
        let n = count r ~max:max_items in
        Trap_commitments { gid; commitments = Array.init n (fun _ -> bytes r commitment_bytes) }
      else if kind = Frame.kind_published then
        let n = count r ~max:max_items in
        Published { plaintexts = Array.init n (fun _ -> str32 ~max:max_blob r) }
      else if kind = Frame.kind_failed then
        let n = count r ~max:max_nodes in
        Failed { sids = Array.init n (fun _ -> u32 r) }
      else if kind = Frame.kind_retransmit then Retransmit
      else if kind = Frame.kind_stats_request then Stats_request { token = u32 r }
      else if kind = Frame.kind_stats_reply then
        let token = u32 r in
        let node_id = u32 r in
        Stats_reply { token; node_id; snapshot = str32 ~max:max_snapshot r }
      else if kind = Frame.kind_submit then
        let client = u32 r in
        let port = u16 r in
        let token = u32 r in
        let gid = u32 r in
        let epoch = u32 r in
        let blob = str32 ~max:max_blob r in
        Submit { client; port; token; gid; epoch; blob; pow = str32 ~max:max_pow r }
      else if kind = Frame.kind_submit_ack then
        let token = u32 r in
        let status = u8 r in
        if status > submit_rejected then fail ();
        let epoch = u32 r in
        let retry_ms = u32 r in
        Submit_ack { token; status; epoch; retry_ms; queue_len = u32 r }
      else if kind = Frame.kind_epoch_info then
        let epoch = u32 r in
        let pow_bits = u32 r in
        let queue_cap = u32 r in
        Epoch_info { epoch; pow_bits; queue_cap; queue_len = u32 r }
      else if kind = Frame.kind_bulletin_announce then
        let epoch = u32 r in
        let digest = bytes r commitment_bytes in
        let signature = str32 ~max:max_sig r in
        let n = count r ~max:max_items in
        Bulletin_announce
          { epoch; digest; signature; posts = Array.init n (fun _ -> str32 ~max:max_blob r) }
      else fail ())

let decode (framed : string) : t option =
  match Frame.decode framed with
  | None -> None
  | Some (kind, body) -> decode_body kind body
