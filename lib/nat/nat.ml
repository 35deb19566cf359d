(* Arbitrary-precision natural numbers.

   Representation: little-endian [int array] of limbs in base 2^26.  The
   canonical form has no trailing zero limbs; zero is the empty array.  Base
   2^26 keeps every limb product below 2^52, so schoolbook multiplication can
   accumulate in OCaml's 63-bit native ints without overflow. *)

let limb_bits = 26
let limb_mask = (1 lsl limb_bits) - 1
let limb_base = 1 lsl limb_bits

type t = int array

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int (x : int) : t =
  if x < 0 then invalid_arg "Nat.of_int: negative";
  let rec limbs x = if x = 0 then [] else (x land limb_mask) :: limbs (x lsr limb_bits) in
  Array.of_list (limbs x)

let one = of_int 1
let two = of_int 2

let to_int_opt (a : t) : int option =
  (* max_int has 62 usable bits: at most 3 limbs of 26 bits, checked. *)
  let n = Array.length a in
  if n > 3 then None
  else begin
    let v = ref 0 and ok = ref true in
    for i = n - 1 downto 0 do
      if !v > (max_int - a.(i)) lsr limb_bits then ok := false
      else v := (!v lsl limb_bits) lor a.(i)
    done;
    if !ok then Some !v else None
  end

let to_int_exn a =
  match to_int_opt a with
  | Some v -> v
  | None -> invalid_arg "Nat.to_int_exn: does not fit"

let compare (a : t) (b : t) : int =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let equal a b = compare a b = 0

let bit_length (a : t) : int =
  let n = Array.length a in
  if n = 0 then 0
  else
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0

let test_bit (a : t) (i : int) : bool =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let is_even a = not (test_bit a 0)

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize out

(* a - b; raises if b > a. *)
let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      out.(i) <- s + limb_base;
      borrow := 1
    end
    else begin
      out.(i) <- s;
      borrow := 0
    end
  done;
  normalize out

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = out.(i + j) + (ai * b.(j)) + !carry in
          out.(i + j) <- s land limb_mask;
          carry := s lsr limb_bits
        done;
        (* Propagate the final carry (may span several limbs). *)
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = out.(!k) + !carry in
          out.(!k) <- s land limb_mask;
          carry := s lsr limb_bits;
          incr k
        done
      end
    done;
    normalize out
  end

let shift_left (a : t) (bits : int) : t =
  if bits < 0 then invalid_arg "Nat.shift_left";
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    let out = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl off in
      out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
      out.(i + limbs + 1) <- v lsr limb_bits
    done;
    normalize out
  end

let shift_right (a : t) (bits : int) : t =
  if bits < 0 then invalid_arg "Nat.shift_right";
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr off in
        let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - off)) land limb_mask else 0 in
        out.(i) <- if off = 0 then a.(i + limbs) else lo lor hi
      done;
      normalize out
    end
  end

(* Long division, binary shift-and-subtract.  O(bits * limbs): fine for the
   cold paths (parameter generation, conversions); hot modular arithmetic
   goes through Montgomery contexts in [Modarith]. *)
let div_rem (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let shift = bit_length a - bit_length b in
    let q = Array.make (Array.length a) 0 in
    let r = ref a in
    for i = shift downto 0 do
      let shifted = shift_left b i in
      if compare !r shifted >= 0 then begin
        r := sub !r shifted;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (normalize q, !r)
  end

let rem a b = snd (div_rem a b)

(* Remainder by a small positive int (must be < 2^31 so the accumulator
   (r * limb_base + limb) stays within native int range). *)
let mod_small (a : t) (m : int) : int =
  if m <= 0 then invalid_arg "Nat.mod_small";
  if m >= 1 lsl 31 then invalid_arg "Nat.mod_small: modulus too large";
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    r := (((!r lsl limb_bits) lor a.(i)) mod m)
  done;
  !r

let div_small (a : t) (d : int) : t * int =
  if d <= 0 then invalid_arg "Nat.div_small";
  if d >= 1 lsl 31 then invalid_arg "Nat.div_small: divisor too large";
  let n = Array.length a in
  let out = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    out.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize out, !r)

let of_bytes_be (s : string) : t =
  let len = String.length s in
  let limbs = ((len * 8) + limb_bits - 1) / limb_bits in
  let out = Array.make limbs 0 in
  let acc = ref 0 and acc_bits = ref 0 and limb = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (Char.code s.[i] lsl !acc_bits);
    acc_bits := !acc_bits + 8;
    while !acc_bits >= limb_bits do
      out.(!limb) <- !acc land limb_mask;
      acc := !acc lsr limb_bits;
      acc_bits := !acc_bits - limb_bits;
      incr limb
    done
  done;
  if !acc_bits > 0 then out.(!limb) <- !acc;
  normalize out

let to_bytes_be ?(length : int option) (a : t) : string =
  let byte_len = (bit_length a + 7) / 8 in
  let len = match length with None -> max byte_len 1 | Some l -> l in
  if byte_len > len then invalid_arg "Nat.to_bytes_be: does not fit";
  let out = Bytes.make len '\000' in
  for i = 0 to byte_len - 1 do
    (* i-th byte from the little end. *)
    let bit = i * 8 in
    let limb = bit / limb_bits and off = bit mod limb_bits in
    let v = a.(limb) lsr off in
    let v =
      if off > limb_bits - 8 && limb + 1 < Array.length a then v lor (a.(limb + 1) lsl (limb_bits - off))
      else v
    in
    Bytes.set out (len - 1 - i) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

let of_hex (h : string) : t = of_bytes_be (Atom_util.Hex.decode (if String.length h mod 2 = 1 then "0" ^ h else h))

let to_hex (a : t) : string =
  let s = Atom_util.Hex.encode (to_bytes_be a) in
  (* Strip leading zeros but keep at least one digit. *)
  let n = String.length s in
  let i = ref 0 in
  while !i < n - 1 && s.[!i] = '0' do
    incr i
  done;
  String.sub s !i (n - !i)

let to_decimal (a : t) : string =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go a =
      if not (is_zero a) then begin
        let q, r = div_small a 1_000_000_000 in
        if is_zero q then Buffer.add_string buf (string_of_int r)
        else begin
          go q;
          Buffer.add_string buf (Printf.sprintf "%09d" r)
        end
      end
    in
    go a;
    Buffer.contents buf
  end

let of_decimal (s : string) : t =
  let acc = ref zero and ten = of_int 10 in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
      | '_' -> ()
      | _ -> invalid_arg "Nat.of_decimal")
    s;
  !acc

let pp fmt a = Format.pp_print_string fmt (to_decimal a)

(* Uniform value in [0, bound) by rejection sampling over [bit_length bound]
   random bits. *)
let random_below (rng : Atom_util.Rng.t) (bound : t) : t =
  if is_zero bound then invalid_arg "Nat.random_below: zero bound";
  let bits = bit_length bound in
  let bytes = (bits + 7) / 8 in
  let excess = (bytes * 8) - bits in
  let rec go () =
    let raw = Bytes.of_string (Atom_util.Rng.bytes rng bytes) in
    (* Mask excess high bits so the rejection rate is below 1/2. *)
    Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) land (0xff lsr excess)));
    let v = of_bytes_be (Bytes.unsafe_to_string raw) in
    if compare v bound < 0 then v else go ()
  in
  go ()

let random_bits (rng : Atom_util.Rng.t) (bits : int) : t =
  if bits <= 0 then invalid_arg "Nat.random_bits";
  let bytes = (bits + 7) / 8 in
  let excess = (bytes * 8) - bits in
  let raw = Bytes.of_string (Atom_util.Rng.bytes rng bytes) in
  Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) land (0xff lsr excess)));
  (* Force the top bit so the result has exactly [bits] bits. *)
  Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) lor (1 lsl (7 - excess))));
  of_bytes_be (Bytes.unsafe_to_string raw)
