(* Big-endian byte writer and strict reader: the one codec toolkit every
   binary decoder of untrusted bytes runs on — wire frame bodies, proofs,
   ciphertexts, KEM envelopes, client submissions and signatures. *)

module W = struct
  let u8 (b : Buffer.t) (v : int) = Buffer.add_char b (Char.chr (v land 0xff))

  let u16 (b : Buffer.t) (v : int) =
    u8 b (v lsr 8);
    u8 b v

  let u32 (b : Buffer.t) (v : int) =
    u8 b (v lsr 24);
    u8 b (v lsr 16);
    u8 b (v lsr 8);
    u8 b v

  (* Length-prefixed byte string. *)
  let str32 (b : Buffer.t) (s : string) =
    u32 b (String.length s);
    Buffer.add_string b s
end

(* A cursor over an immutable string. Every read checks bounds and raises
   the private [Malformed] exception, which only [decode] catches — so a
   decoder body reads linearly and totality is enforced at the boundary. *)
module R = struct
  exception Malformed

  type t = { s : string; mutable pos : int }

  let fail () = raise Malformed
  let remaining (r : t) : int = String.length r.s - r.pos
  let need (r : t) (n : int) = if n < 0 || n > remaining r then fail ()

  let u8 (r : t) : int =
    need r 1;
    let v = Char.code r.s.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u16 (r : t) : int =
    let a = u8 r in
    let b = u8 r in
    (a lsl 8) lor b

  let u32 (r : t) : int =
    let a = u16 r in
    let b = u16 r in
    (a lsl 16) lor b

  let bytes (r : t) (n : int) : string =
    need r n;
    let s = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    s

  (* Zero-copy slice: consume [n] bytes and return their start offset in
     [src] instead of materializing a substring — decoders that parse a
     fixed-width field in place skip the per-field allocation. *)
  let src (r : t) : string = r.s

  let view (r : t) (n : int) : int =
    need r n;
    let pos = r.pos in
    r.pos <- pos + n;
    pos

  let str32 ?(max = max_int) (r : t) : string =
    let n = u32 r in
    if n > max then fail ();
    bytes r n

  (* Bounded count prefix. Every counted item takes at least one byte, so
     a count above the bytes still present is rejected before it can
     drive an allocation. *)
  let count (r : t) ~(max : int) : int =
    let n = u32 r in
    if n > max || n > remaining r then fail ();
    n

  let decode (s : string) (f : t -> 'a) : 'a option =
    let r = { s; pos = 0 } in
    match f r with
    | v when r.pos = String.length s -> Some v
    | _ -> None
    | exception Malformed -> None
end
