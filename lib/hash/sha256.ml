(* SHA-256 (FIPS 180-4).

   The round constants are the fractional parts of cube roots of the first 64
   primes and the initial state the fractional parts of square roots of the
   first 8 primes; we derive both with exact integer root extraction over
   [Atom_nat.Nat] rather than hardcoding 72 magic numbers, and the test suite
   pins the official FIPS test vectors. *)

open Atom_nat

let mask32 = 0xffffffff

(* floor(n-th root of x) by binary search. *)
let integer_root (x : Nat.t) (n : int) : Nat.t =
  let rec pow_nat b e = if e = 0 then Nat.one else Nat.mul b (pow_nat b (e - 1)) in
  let hi_bits = (Nat.bit_length x / n) + 1 in
  let rec search lo hi =
    (* invariant: lo^n <= x < hi^n *)
    if Nat.compare (Nat.add lo Nat.one) hi >= 0 then lo
    else
      let mid = Nat.shift_right (Nat.add lo hi) 1 in
      if Nat.compare (pow_nat mid n) x <= 0 then search mid hi else search lo mid
  in
  search Nat.zero (Nat.shift_left Nat.one hi_bits)

let first_primes count =
  let primes = ref [] and n = ref 2 in
  while List.length !primes < count do
    if Atom_nat.Prime.is_probable_prime (Nat.of_int !n) then primes := !n :: !primes;
    incr n
  done;
  List.rev !primes

(* frac(p^(1/root)) * 2^32, i.e. floor(root-th root of p * 2^(32*root)) mod 2^32 *)
let frac_root_constant p ~root =
  let scaled = Nat.shift_left (Nat.of_int p) (32 * root) in
  Nat.to_int_exn (integer_root scaled root) land mask32

(* Built at module initialisation, not on first use: a lazy constant
   forced by two pool domains at once raises [CamlinternalLazy.Undefined]. *)
let k = Array.of_list (List.map (frac_root_constant ~root:3) (first_primes 64))
let h0 = Array.of_list (List.map (frac_root_constant ~root:2) (first_primes 8))

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

type t = {
  mutable h : int array;
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
}

let init () = { h = Array.copy h0; buf = Bytes.create 64; buf_len = 0; total = 0 }

let compress (st : t) (block : Bytes.t) (off : int) : unit =
  let w = Array.make 64 0 in
  for i = 0 to 15 do
    w.(i) <-
      (Char.code (Bytes.get block (off + (4 * i))) lsl 24)
      lor (Char.code (Bytes.get block (off + (4 * i) + 1)) lsl 16)
      lor (Char.code (Bytes.get block (off + (4 * i) + 2)) lsl 8)
      lor Char.code (Bytes.get block (off + (4 * i) + 3))
  done;
  for i = 16 to 63 do
    let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
    let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask32
  done;
  let a = ref st.h.(0) and b = ref st.h.(1) and c = ref st.h.(2) and d = ref st.h.(3) in
  let e = ref st.h.(4) and f = ref st.h.(5) and g = ref st.h.(6) and h = ref st.h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot !e land !g) in
    let temp1 = (!h + s1 + ch + k.(i) + w.(i)) land mask32 in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
    let temp2 = (s0 + maj) land mask32 in
    h := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + temp2) land mask32
  done;
  st.h.(0) <- (st.h.(0) + !a) land mask32;
  st.h.(1) <- (st.h.(1) + !b) land mask32;
  st.h.(2) <- (st.h.(2) + !c) land mask32;
  st.h.(3) <- (st.h.(3) + !d) land mask32;
  st.h.(4) <- (st.h.(4) + !e) land mask32;
  st.h.(5) <- (st.h.(5) + !f) land mask32;
  st.h.(6) <- (st.h.(6) + !g) land mask32;
  st.h.(7) <- (st.h.(7) + !h) land mask32

let feed_bytes (st : t) (s : Bytes.t) (pos : int) (len : int) : unit =
  st.total <- st.total + len;
  let pos = ref pos and remaining = ref len in
  (* Fill a partial buffer first. *)
  if st.buf_len > 0 then begin
    let take = min !remaining (64 - st.buf_len) in
    Bytes.blit s !pos st.buf st.buf_len take;
    st.buf_len <- st.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if st.buf_len = 64 then begin
      compress st st.buf 0;
      st.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress st s !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit s !pos st.buf 0 !remaining;
    st.buf_len <- !remaining
  end

let feed st s = feed_bytes st (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize (st : t) : string =
  let bit_len = st.total * 8 in
  let pad_len =
    let rem = (st.total + 1 + 8) mod 64 in
    if rem = 0 then 1 + 8 else 1 + 8 + (64 - rem)
  in
  let pad = Bytes.make pad_len '\000' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad (pad_len - 1 - i) (Char.chr ((bit_len lsr (8 * i)) land 0xff))
  done;
  feed_bytes st pad 0 pad_len;
  assert (st.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set out (4 * i) (Char.chr ((st.h.(i) lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((st.h.(i) lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((st.h.(i) lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (st.h.(i) land 0xff))
  done;
  Bytes.unsafe_to_string out

let digest (s : string) : string =
  let st = init () in
  feed st s;
  finalize st

let digest_list (parts : string list) : string =
  let st = init () in
  List.iter (feed st) parts;
  finalize st

let hex s = Atom_util.Hex.encode (digest s)
