(* Versioned, length-prefixed binary framing for everything that crosses a
   machine boundary.

   Frame layout (all integers big-endian):

     offset  size  field
     0       4     magic     "ATOM" (0x41544F4D)
     4       1     version   (currently 2)
     5       1     kind      (registered message kind)
     6       2     flags     (reserved, must be 0)
     8       4     body_len
     12      4     crc32     (IEEE CRC-32 of the body)
     16      ...   body

   Version policy: a decoder accepts exactly the versions it knows
   (currently only 2) and rejects everything else — there is no silent
   downgrade. Adding a message kind is a same-version change (old peers
   reject unknown kinds loudly); changing the layout of an existing kind
   bumps [version]. Version 2 added send-timestamps to the data-plane
   step frames and an absolute iteration index to exit batches (epoch
   pipelining).

   Decoders are strict and total: truncated, oversized, trailing-garbage,
   bad-checksum, unknown-kind, and non-zero-flag inputs all return [None];
   no exception escapes on arbitrary bytes. *)

let magic = 0x41544F4D
let version = 2
let header_bytes = 16

(* Frames larger than this are rejected outright — a malicious length
   prefix must not make a node allocate unbounded memory. 64 MiB clears a
   1M-message batch at paper scale while still bounding allocation. *)
let max_body = 1 lsl 26

(* ---- Message kinds ----

   One byte on the wire. Control-plane kinds (node bring-up, barriers,
   aborts) are G-independent and decoded by [Control]; data-plane kinds
   (ciphertext batches, proof-carrying steps) depend on the group backend
   and are decoded by [Codec.Make]. *)

let kind_hello = 0x01
let kind_join = 0x02
let kind_peers = 0x03
let kind_group_assign = 0x04
let kind_barrier = 0x05
let kind_abort = 0x06
let kind_shutdown = 0x07
let kind_ack = 0x08
let kind_submissions = 0x09
let kind_trap_commitments = 0x0a
let kind_published = 0x0b
let kind_failed = 0x0c
let kind_retransmit = 0x0d
let kind_stats_request = 0x0e
let kind_stats_reply = 0x0f
let kind_group_key = 0x10
let kind_batch = 0x11
let kind_shuffle_step = 0x12
let kind_reenc_step = 0x13
let kind_exit_batch = 0x14

(* Client-facing submission plane (ingest). Control-plane: G-independent,
   onion payloads travel as opaque blobs validated at the protocol layer. *)
let kind_submit = 0x15
let kind_submit_ack = 0x16
let kind_epoch_info = 0x17
let kind_bulletin_announce = 0x18

let kind_names : (int * string) list =
  [
    (kind_hello, "hello");
    (kind_join, "join");
    (kind_peers, "peers");
    (kind_group_assign, "group_assign");
    (kind_barrier, "barrier");
    (kind_abort, "abort");
    (kind_shutdown, "shutdown");
    (kind_ack, "ack");
    (kind_submissions, "submissions");
    (kind_trap_commitments, "trap_commitments");
    (kind_published, "published");
    (kind_failed, "failed");
    (kind_retransmit, "retransmit");
    (kind_stats_request, "stats_request");
    (kind_stats_reply, "stats_reply");
    (kind_group_key, "group_key");
    (kind_batch, "batch");
    (kind_shuffle_step, "shuffle_step");
    (kind_reenc_step, "reenc_step");
    (kind_exit_batch, "exit_batch");
    (kind_submit, "submit");
    (kind_submit_ack, "submit_ack");
    (kind_epoch_info, "epoch_info");
    (kind_bulletin_announce, "bulletin_announce");
  ]

let kind_name (k : int) : string =
  match List.assoc_opt k kind_names with
  | Some n -> n
  | None -> Printf.sprintf "unknown(0x%02x)" k

let kind_known (k : int) : bool = List.mem_assoc k kind_names

(* ---- Framing ---- *)

module W = Atom_util.Bin.W
module R = Atom_util.Bin.R

let encode ~(kind : int) (body : string) : string =
  if String.length body > max_body then invalid_arg "Frame.encode: body too large";
  if not (kind_known kind) then invalid_arg "Frame.encode: unregistered kind";
  let b = Buffer.create (header_bytes + String.length body) in
  W.u32 b magic;
  W.u8 b version;
  W.u8 b kind;
  W.u16 b 0;
  W.u32 b (String.length body);
  W.u32 b (Crc32.string body);
  Buffer.add_string b body;
  Buffer.contents b

type header = { kind : int; body_len : int; crc : int }

(* Parse and validate the fixed 16-byte prefix (streaming receive path:
   read 16 bytes, learn [body_len], read the body, then [decode] the whole
   frame). Rejects bad magic/version/flags and oversized bodies. *)
let read_header (s : string) : header option =
  if String.length s < header_bytes then None
  else
    R.decode (String.sub s 0 header_bytes) (fun r ->
        if R.u32 r <> magic then R.fail ();
        if R.u8 r <> version then R.fail ();
        let kind = R.u8 r in
        if R.u16 r <> 0 then R.fail ();
        let body_len = R.u32 r in
        if body_len > max_body then R.fail ();
        let crc = R.u32 r in
        if not (kind_known kind) then R.fail ();
        { kind; body_len; crc })

(* Full strict decode of one frame: header valid, body length exact (no
   trailing garbage), checksum matches. *)
let decode (s : string) : (int * string) option =
  match read_header s with
  | None -> None
  | Some h ->
      if String.length s <> header_bytes + h.body_len then None
      else
        let body = String.sub s header_bytes h.body_len in
        if Crc32.string body <> h.crc then None else Some (h.kind, body)

let kind_of (s : string) : int option =
  match read_header s with Some h -> Some h.kind | None -> None
