(* NIST P-256 (secp256r1), the curve used by the paper's prototype (§5).

   Short Weierstrass y² = x³ − 3x + b over the P-256 field prime. Internal
   arithmetic uses Jacobian projective coordinates over the Montgomery
   contexts of [Atom_nat.Modarith], whose field context runs the kernels
   specialized to p ([Atom_nat.P256_field]); the public element type is
   the canonical affine form so that [equal] and [to_bytes] are structural.

   The Jacobian engine is allocation-free in steady state: a working point
   ([jp]) is three preallocated flat limb buffers, the curve formulas write
   through [Modarith.S] sessions, and every temporary comes from the
   per-domain arena — a whole scalar ladder allocates nothing beyond its
   destination point, its scalar's plain limbs (one REDC out of Montgomery
   form, [Scalar.exponent]) and their 65-digit recoding, which reads them
   through [Modarith.window]. The boxed affine world exists only at the
   public API edge ([to_affine]/[to_affine_batch] canonicalize whatever
   Jacobian representative the in-place schedule produced, so public
   results are unchanged).

   Message embedding is try-and-increment: a 28-byte payload is placed in a
   fixed slice of the x-coordinate together with a 16-bit counter, and the
   counter is advanced until x³ − 3x + b is a square (probability 1/2 per
   attempt). The paper packs 32 bytes per point; we reserve 4 bytes of
   framing, and the modeled cost tables use the paper's packing so figure
   shapes are unaffected (see DESIGN.md, Known deviations). *)

open Atom_nat

let p = Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"
let n = Nat.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"
let b_const = Nat.of_hex "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"
let gx = Nat.of_hex "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
let gy = Nat.of_hex "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"

let fp = Modarith.create p
let fb = Modarith.of_nat fp b_const

module Scalar = struct
  type t = Modarith.el

  let fq = Modarith.create n
  let zero = Modarith.zero fq
  let one = Modarith.one fq
  let of_int i = Modarith.of_int fq i
  let add = Modarith.add fq
  let sub = Modarith.sub fq
  let mul = Modarith.mul fq
  let neg = Modarith.neg fq
  let inv = Modarith.inv fq
  let equal = Modarith.equal
  let is_zero = Modarith.is_zero
  let random rng = Modarith.random fq rng
  let of_bytes_mod s = Modarith.of_bytes_mod fq s
  let to_bytes s = Modarith.plain_to_bytes (Modarith.to_plain fq s) ~len:32

  (* The exponent every ladder recodes: the scalar's plain limbs. *)
  let exponent s = Modarith.to_plain fq s
end

type t = Inf | Aff of Modarith.el * Modarith.el
type scalar = Scalar.t

let name = "p256"
let one = Inf
let equal a b =
  match (a, b) with
  | Inf, Inf -> true
  | Aff (x1, y1), Aff (x2, y2) -> Modarith.equal x1 x2 && Modarith.equal y1 y2
  | _ -> false

let is_one = function Inf -> true | Aff _ -> false

(* y² = x³ - 3x + b *)
let rhs_of_x (x : Modarith.el) : Modarith.el =
  let x3 = Modarith.mul fp (Modarith.sqr fp x) x in
  let three_x = Modarith.add fp (Modarith.add fp x x) x in
  Modarith.add fp (Modarith.sub fp x3 three_x) fb

let on_curve = function
  | Inf -> true
  | Aff (x, y) -> Modarith.equal (Modarith.sqr fp y) (rhs_of_x x)

(* ---- Jacobian internals, in place over flat field buffers ----

   A [jp] is a Jacobian point whose coordinates are preallocated limb
   buffers: [jp_fresh] allocates a long-lived point, [jp_take] checks one
   out of the session arena (valid until the enclosing release point).
   Infinity is z = 0. The formulas below stage new coordinates in arena
   temporaries and copy back at the end, so every read of the old point
   precedes the writes and a point can safely be its own destination. *)

type jp = { x : Modarith.el; y : Modarith.el; z : Modarith.el }

let jp_fresh () = { x = Modarith.alloc fp; y = Modarith.alloc fp; z = Modarith.alloc fp }

let jp_take s = { x = Modarith.S.take s; y = Modarith.S.take s; z = Modarith.S.take s }

let jp_is_inf pt = Modarith.is_zero pt.z

let jp_set_inf pt =
  Modarith.set_one fp pt.x;
  Modarith.set_one fp pt.y;
  Modarith.set_zero pt.z

let jp_set_aff pt xa ya =
  Modarith.copy_into ~dst:pt.x xa;
  Modarith.copy_into ~dst:pt.y ya;
  Modarith.set_one fp pt.z

let jp_copy ~dst src =
  Modarith.copy_into ~dst:dst.x src.x;
  Modarith.copy_into ~dst:dst.y src.y;
  Modarith.copy_into ~dst:dst.z src.z

(* pt <- 2·pt: dbl-2001-b for a = -3. *)
let jdbl (s : Modarith.S.t) (pt : jp) : unit =
  if jp_is_inf pt || Modarith.is_zero pt.y then jp_set_inf pt
  else begin
    let m = Modarith.S.mark s in
    let delta = Modarith.S.take s and gamma = Modarith.S.take s and beta = Modarith.S.take s in
    let alpha = Modarith.S.take s and t = Modarith.S.take s and u = Modarith.S.take s in
    let x3 = Modarith.S.take s and y3 = Modarith.S.take s and z3 = Modarith.S.take s in
    Modarith.S.sqr s ~dst:delta pt.z;
    Modarith.S.sqr s ~dst:gamma pt.y;
    Modarith.S.mul s ~dst:beta pt.x gamma;
    Modarith.S.sub s ~dst:t pt.x delta;
    Modarith.S.add s ~dst:u pt.x delta;
    Modarith.S.mul s ~dst:t t u;
    (* α = 3(x − δ)(x + δ), tripled by two additions *)
    Modarith.S.add s ~dst:alpha t t;
    Modarith.S.add s ~dst:alpha alpha t;
    (* x3 = α² − 8β *)
    Modarith.S.add s ~dst:t beta beta;
    Modarith.S.add s ~dst:t t t;
    (* t = 4β, kept for y3 *)
    Modarith.S.add s ~dst:u t t;
    Modarith.S.sqr s ~dst:x3 alpha;
    Modarith.S.sub s ~dst:x3 x3 u;
    (* z3 = (y+z)² − γ − δ *)
    Modarith.S.add s ~dst:z3 pt.y pt.z;
    Modarith.S.sqr s ~dst:z3 z3;
    Modarith.S.sub s ~dst:z3 z3 gamma;
    Modarith.S.sub s ~dst:z3 z3 delta;
    (* y3 = α·(4β − x3) − 8γ² *)
    Modarith.S.sub s ~dst:t t x3;
    Modarith.S.mul s ~dst:y3 alpha t;
    Modarith.S.sqr s ~dst:u gamma;
    Modarith.S.add s ~dst:u u u;
    Modarith.S.add s ~dst:u u u;
    Modarith.S.add s ~dst:u u u;
    Modarith.S.sub s ~dst:y3 y3 u;
    Modarith.copy_into ~dst:pt.x x3;
    Modarith.copy_into ~dst:pt.y y3;
    Modarith.copy_into ~dst:pt.z z3;
    Modarith.S.release s m
  end

(* p1 <- p1 + (x2, y2), affine second operand (z2 = 1): madd-2004-hmv,
   ~4 field mults cheaper than the general Jacobian add. *)
let jadd_aff (s : Modarith.S.t) (p1 : jp) (x2 : Modarith.el) (y2 : Modarith.el) : unit =
  if jp_is_inf p1 then jp_set_aff p1 x2 y2
  else begin
    let m = Modarith.S.mark s in
    let z1z1 = Modarith.S.take s and u2 = Modarith.S.take s and s2 = Modarith.S.take s in
    let h = Modarith.S.take s and r = Modarith.S.take s in
    Modarith.S.sqr s ~dst:z1z1 p1.z;
    Modarith.S.mul s ~dst:u2 x2 z1z1;
    Modarith.S.mul s ~dst:s2 p1.z z1z1;
    Modarith.S.mul s ~dst:s2 y2 s2;
    Modarith.S.sub s ~dst:h u2 p1.x;
    Modarith.S.sub s ~dst:r s2 p1.y;
    if Modarith.is_zero h then begin
      let dbl = Modarith.is_zero r in
      Modarith.S.release s m;
      if dbl then jdbl s p1 else jp_set_inf p1
    end
    else begin
      let hh = Modarith.S.take s and hhh = Modarith.S.take s and v = Modarith.S.take s in
      let x3 = Modarith.S.take s and y3 = Modarith.S.take s and t = Modarith.S.take s in
      Modarith.S.sqr s ~dst:hh h;
      Modarith.S.mul s ~dst:hhh h hh;
      Modarith.S.mul s ~dst:v p1.x hh;
      Modarith.S.sqr s ~dst:x3 r;
      Modarith.S.sub s ~dst:x3 x3 hhh;
      Modarith.S.add s ~dst:t v v;
      Modarith.S.sub s ~dst:x3 x3 t;
      Modarith.S.sub s ~dst:y3 v x3;
      Modarith.S.mul s ~dst:y3 r y3;
      Modarith.S.mul s ~dst:t p1.y hhh;
      Modarith.S.sub s ~dst:y3 y3 t;
      Modarith.S.mul s ~dst:p1.z p1.z h;
      Modarith.copy_into ~dst:p1.x x3;
      Modarith.copy_into ~dst:p1.y y3;
      Modarith.S.release s m
    end
  end

(* p1 <- p1 + p2; p2 is only read. (p1 == p2 degenerates to h = r = 0 and
   takes the doubling branch, so physical aliasing is still correct.) *)
let jadd (s : Modarith.S.t) (p1 : jp) (p2 : jp) : unit =
  if jp_is_inf p1 then jp_copy ~dst:p1 p2
  else if jp_is_inf p2 then ()
  else begin
    let m = Modarith.S.mark s in
    let z1z1 = Modarith.S.take s and z2z2 = Modarith.S.take s in
    let u1 = Modarith.S.take s and u2 = Modarith.S.take s in
    let s1 = Modarith.S.take s and s2 = Modarith.S.take s in
    let h = Modarith.S.take s and r = Modarith.S.take s in
    Modarith.S.sqr s ~dst:z1z1 p1.z;
    Modarith.S.sqr s ~dst:z2z2 p2.z;
    Modarith.S.mul s ~dst:u1 p1.x z2z2;
    Modarith.S.mul s ~dst:u2 p2.x z1z1;
    Modarith.S.mul s ~dst:s1 p2.z z2z2;
    Modarith.S.mul s ~dst:s1 p1.y s1;
    Modarith.S.mul s ~dst:s2 p1.z z1z1;
    Modarith.S.mul s ~dst:s2 p2.y s2;
    Modarith.S.sub s ~dst:h u2 u1;
    Modarith.S.sub s ~dst:r s2 s1;
    if Modarith.is_zero h then begin
      let dbl = Modarith.is_zero r in
      Modarith.S.release s m;
      if dbl then jdbl s p1 else jp_set_inf p1
    end
    else begin
      let hh = Modarith.S.take s and hhh = Modarith.S.take s and v = Modarith.S.take s in
      let x3 = Modarith.S.take s and y3 = Modarith.S.take s and t = Modarith.S.take s in
      Modarith.S.sqr s ~dst:hh h;
      Modarith.S.mul s ~dst:hhh h hh;
      Modarith.S.mul s ~dst:v u1 hh;
      Modarith.S.sqr s ~dst:x3 r;
      Modarith.S.sub s ~dst:x3 x3 hhh;
      Modarith.S.add s ~dst:t v v;
      Modarith.S.sub s ~dst:x3 x3 t;
      Modarith.S.sub s ~dst:y3 v x3;
      Modarith.S.mul s ~dst:y3 r y3;
      Modarith.S.mul s ~dst:t s1 hhh;
      Modarith.S.sub s ~dst:y3 y3 t;
      Modarith.S.mul s ~dst:p1.z p1.z p2.z;
      Modarith.S.mul s ~dst:p1.z p1.z h;
      Modarith.copy_into ~dst:p1.x x3;
      Modarith.copy_into ~dst:p1.y y3;
      Modarith.S.release s m
    end
  end

let zero_fp = Modarith.zero fp

(* Canonicalization back to the boxed affine world, a whole batch of
   Jacobian points with one inversion. This runs outside any session
   (Fermat inversion and the public allocating ops), and its results are
   fresh buffers — never aliases of the (reusable) jp ones. *)
let to_affine_batch (js : jp array) : t array =
  let zinvs = Modarith.inv_batch fp (Array.map (fun j -> j.z) js) in
  Array.mapi
    (fun i j ->
      if jp_is_inf j then Inf
      else begin
        let zinv = zinvs.(i) in
        let zinv2 = Modarith.sqr fp zinv in
        Aff (Modarith.mul fp j.x zinv2, Modarith.mul fp j.y (Modarith.mul fp zinv2 zinv))
      end)
    js

let to_affine (j : jp) : t = (to_affine_batch [| j |]).(0)

let mul a b =
  match (a, b) with
  | Inf, _ -> b
  | _, Inf -> a
  | Aff (ax, ay), Aff (bx, by) ->
      let r = jp_fresh () in
      Modarith.with_session fp (fun s ->
          jp_set_aff r ax ay;
          jadd_aff s r bx by);
      to_affine r

let inv = function Inf -> Inf | Aff (x, y) -> Aff (x, Modarith.neg fp y)

(* Inversion is a negation of y, so a batch needs no shared work. *)
let inv_batch (xs : t array) : t array = Array.map inv xs

let div a b = mul a (inv b)

(* Batch affine addition: every lane's slope denominator (x2 − x1, or 2y
   for a doubling) joins one [Modarith.inv_batch], so n products cost one
   inversion plus about six field multiplications each, where [mul]
   spends a Jacobian addition and an inversion per product. Lanes with an
   identity operand, or whose operands are mutual inverses (equal x,
   opposite y: the result is the identity), need no slope. *)
let mul_batch (xs : t array) (ys : t array) : t array =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "P256.mul_batch: length mismatch";
  let out = Array.make n Inf in
  let num = Array.make n zero_fp and den = Array.make n zero_fp in
  for i = 0 to n - 1 do
    match (xs.(i), ys.(i)) with
    | Inf, b -> out.(i) <- b
    | a, Inf -> out.(i) <- a
    | Aff (x1, y1), Aff (x2, y2) ->
        if not (Modarith.equal x1 x2) then begin
          num.(i) <- Modarith.sub fp y2 y1;
          den.(i) <- Modarith.sub fp x2 x1
        end
        else if Modarith.equal y1 y2 && not (Modarith.is_zero y1) then begin
          (* a = b: λ = (3x² − 3) / 2y *)
          let u = Modarith.sub fp (Modarith.sqr fp x1) (Modarith.one fp) in
          num.(i) <- Modarith.add fp (Modarith.add fp u u) u;
          den.(i) <- Modarith.add fp y1 y1
        end
  done;
  let dinv = Modarith.inv_batch fp den in
  for i = 0 to n - 1 do
    if not (Modarith.is_zero den.(i)) then
      match (xs.(i), ys.(i)) with
      | Aff (x1, y1), Aff (x2, _) ->
          let l = Modarith.mul fp num.(i) dinv.(i) in
          let x3 = Modarith.sub fp (Modarith.sub fp (Modarith.sqr fp l) x1) x2 in
          out.(i) <- Aff (x3, Modarith.sub fp (Modarith.mul fp l (Modarith.sub fp x1 x3)) y1)
      | _ -> assert false
  done;
  out

let generator = Aff (Modarith.of_nat fp gx, Modarith.of_nat fp gy)

(* ---- Fast-path scalar-multiplication engine ----

   Four ingredients (see DESIGN.md, "Performance engineering"):
   - mixed Jacobian+affine addition, ~4 field mults cheaper than the
     general Jacobian add, used everywhere a precomputed table is affine;
   - batch affine normalization (Montgomery's simultaneous-inversion
     trick): k points cost one Fermat inversion instead of k;
   - fixed-base comb tables (65 signed 4-bit windows × 8 entries in one
     flat limb buffer), making a power of the generator or of a promoted
     long-lived base a doubling-free sum of ≤ 65 table lookups;
   - two per-domain tiers of tables for the other long-lived bases
     (public keys): one-row window tables from a base's second scalar on,
     and a comb from its sixteenth. *)

(* ---- Flat affine tables ----

   A table is [rows] rows of 8 affine points in one flat limb buffer: row
   w holds d·16^w·B for d = 1..8, entry (w, d) at word offset
   (8w + d − 1)·2k, x then y. Signed digits (below) make 8 entries cover a
   4-bit window: −P = (x, −y) is negated on read. A comb table has
   [comb_rows] rows; a window table is its first row alone. Every entry
   is finite: for a base B ≠ O, d·16^w·B = O would need the prime order
   n > 8 to divide d·2^{4w}. *)

type table = int array

let limbs = Array.length (Modarith.alloc fp)
let entry_words = 2 * limbs
let comb_rows = 65 (* the 64 nibbles of a scalar < 2^256, plus the recoding carry *)

(* Signed 4-bit recoding: e = Σ d_w·16^w with every d_w in [−8, 7]; a
   window that would reach 8 borrows 16 from the next one. *)
let signed_digits (e : Modarith.plain) : int array =
  let ds = Array.make comb_rows 0 in
  let carry = ref 0 in
  for w = 0 to comb_rows - 1 do
    let v = Modarith.window e ~pos:(4 * w) ~width:4 + !carry in
    if v >= 8 then begin
      ds.(w) <- v - 16;
      carry := 1
    end
    else begin
      ds.(w) <- v;
      carry := 0
    end
  done;
  ds

(* Index of the highest nonzero digit, or −1 for e = 0. *)
let top_digit (ds : int array) : int =
  let w = ref (Array.length ds - 1) in
  while !w >= 0 && ds.(!w) = 0 do
    decr w
  done;
  !w

(* Normalize finite Jacobian points into a flat table: one inversion for
   the lot ([Modarith.inv_batch], outside any session), then x·z⁻² and
   y·z⁻³ of each entry written straight into the table from session
   temporaries, with no boxed affine point in between. *)
let flat_of_jps (js : jp array) : table =
  let zinvs = Modarith.inv_batch fp (Array.map (fun j -> j.z) js) in
  let data = Array.make (Array.length js * entry_words) 0 in
  Modarith.with_session fp (fun s ->
      let zz = Modarith.S.take s and t = Modarith.S.take s in
      Array.iteri
        (fun i pt ->
          assert (not (jp_is_inf pt));
          Modarith.S.sqr s ~dst:zz zinvs.(i);
          Modarith.S.mul s ~dst:t pt.x zz;
          Array.blit t 0 data (i * entry_words) limbs;
          Modarith.S.mul s ~dst:zz zz zinvs.(i);
          Modarith.S.mul s ~dst:t pt.y zz;
          Array.blit t 0 data ((i * entry_words) + limbs) limbs)
        js);
  data

(* The one-row signed window tables (d·B for d = 1..8) of many fresh
   bases, affine, in one flat buffer, row j for bases.(j). The entries are
   built with mixed additions into heap points, not arena slots (a
   session that finds its domain's working state held by another
   systhread runs on a throwaway one, whose arena would grow to the whole
   batch's size), and [flat_of_jps] normalizes them together with one
   inversion after the session has closed. *)
let window_rows (bases : t array) : table =
  let js = Array.init (Array.length bases * 8) (fun _ -> jp_fresh ()) in
  Modarith.with_session fp (fun s ->
      Array.iteri
        (fun j b ->
          match b with
          | Inf -> invalid_arg "P256.window_rows: the identity has no table"
          | Aff (bx, by) ->
              jp_set_aff js.(j * 8) bx by;
              for d = 1 to 7 do
                jp_copy ~dst:js.((j * 8) + d) js.((j * 8) + d - 1);
                jadd_aff s js.((j * 8) + d) bx by
              done)
        bases);
  flat_of_jps js

let comb_count = Atomic.make 0
let window_count = Atomic.make 0
let comb_builds () = Atomic.get comb_count
let window_builds () = Atomic.get window_count

(* One builder for every table's entries, still in Jacobian form: within
   a row each entry adds 16^w·B to the previous one, and the next row
   starts at 2·(8·16^w·B) — 7 additions and 1 doubling per row. *)
let table_jps ~(rows : int) (base : t) : jp array =
  match base with
  | Inf -> invalid_arg "P256.table_of: the identity has no table"
  | Aff (bx, by) ->
      let js = Array.init (rows * 8) (fun _ -> jp_fresh ()) in
      let b = jp_fresh () in
      Modarith.with_session fp (fun s ->
          jp_set_aff b bx by;
          for w = 0 to rows - 1 do
            let row = w * 8 in
            jp_copy ~dst:js.(row) b;
            for d = 2 to 8 do
              jp_copy ~dst:js.(row + d - 1) js.(row + d - 2);
              jadd s js.(row + d - 1) b
            done;
            if w < rows - 1 then begin
              jp_copy ~dst:b js.(row + 7);
              jdbl s b
            end
          done);
      js

let table_of ~(rows : int) (base : t) : table =
  Atomic.incr (if rows = 1 then window_count else comb_count);
  flat_of_jps (table_jps ~rows base)

let comb_table_of (base : t) : table = table_of ~rows:comb_rows base

(* The generator's comb, built on first use (about 5 ms on a 2-vCPU
   shared host, once); [Once] rather than [lazy] because pool workers may
   race to force it. *)
let gen_table : table Atom_exec.Once.t = Atom_exec.Once.make (fun () -> comb_table_of generator)

(* dst <- dst + d·16^w·B for a signed digit d ≠ 0, read from row [w];
   [ex]/[ey] are scratch for the entry. *)
let add_entry (s : Modarith.S.t) (dst : jp) (tab : table) (w : int) (d : int) (ex : Modarith.el)
    (ey : Modarith.el) : unit =
  let off = ((w * 8) + abs d - 1) * entry_words in
  Array.blit tab off ex 0 limbs;
  Array.blit tab (off + limbs) ey 0 limbs;
  if d < 0 then Modarith.S.sub s ~dst:ey zero_fp ey;
  jadd_aff s dst ex ey

(* acc <- acc + B^e over B's comb: one mixed addition per nonzero signed
   digit and no doublings at all. *)
let comb_add_into (s : Modarith.S.t) (acc : jp) (tab : table) (e : Modarith.plain) : unit =
  let ds = signed_digits e in
  let m = Modarith.S.mark s in
  let ex = Modarith.S.take s and ey = Modarith.S.take s in
  for w = 0 to comb_rows - 1 do
    if ds.(w) <> 0 then add_entry s acc tab w ds.(w) ex ey
  done;
  Modarith.S.release s m

(* dst <- B^e, signed 4-bit windowed double-and-add over the window row
   [row] of [tab] (B's window table is row 0 of its own), given e's
   signed digits [ds]. *)
let windowed_into (s : Modarith.S.t) (dst : jp) (tab : table) ~(row : int) (ds : int array) :
    unit =
  let top = top_digit ds in
  let m = Modarith.S.mark s in
  let ex = Modarith.S.take s and ey = Modarith.S.take s in
  jp_set_inf dst;
  for w = top downto 0 do
    if w <> top then begin
      jdbl s dst;
      jdbl s dst;
      jdbl s dst;
      jdbl s dst
    end;
    if ds.(w) <> 0 then add_entry s dst tab row ds.(w) ex ey
  done;
  Modarith.S.release s m

(* One-shot path: per-call Jacobian table on the arena, no inversion spent
   on it. *)
let windowed_oneshot_into (s : Modarith.S.t) (dst : jp) (bx : Modarith.el) (by : Modarith.el)
    (e : Modarith.plain) : unit =
  let m = Modarith.S.mark s in
  let table = Array.init 16 (fun _ -> jp_take s) in
  jp_set_aff table.(1) bx by;
  for i = 2 to 15 do
    jp_copy ~dst:table.(i) table.(i - 1);
    jadd_aff s table.(i) bx by
  done;
  let windows = (Modarith.plain_bit_length e + 3) / 4 in
  jp_set_inf dst;
  for w = windows - 1 downto 0 do
    if w <> windows - 1 then begin
      jdbl s dst;
      jdbl s dst;
      jdbl s dst;
      jdbl s dst
    end;
    let d = Modarith.window e ~pos:(4 * w) ~width:4 in
    if d <> 0 then jadd s dst table.(d)
  done;
  Modarith.S.release s m

(* ---- Per-domain tables for long-lived bases ----

   Two tiers, both domain-local: each pool worker warms its own, so there
   is no cross-domain sharing to synchronize, and systhread interleavings
   within a domain can at worst waste a rebuild (tables are deterministic
   in the base).
   - The window tier is a 16-slot MRU that counts the scalars each base
     has carried. A base's first single-scalar sighting only records its
     key, so one-shot bases raised by [pow] (shuffle commitments) cost
     an O(cap) key scan and no inversion. From 2 scalars on the base has a
     window table.
   - The comb tier holds at most 4 comb tables. A base moves there once it
     has carried ≥ 16 scalars in total ([pow_many] counts all of a
     call's). Only another promotion evicts a comb, so a flood of one-shot
     bases through the window tier cannot push a group key out. A comb
     costs ~1.6 ms and saves ~0.26 ms per exponentiation over the window
     table, so the threshold sits above the ~6-scalar break-even. *)

type cover = Comb of table | Window of table * int (* row *) | Miss
type window_entry = { key : t; mutable scalars : int; mutable window : table option }
type tiers = { mutable windows : window_entry list; mutable combs : (t * table) list }

let tiers_key : tiers Domain.DLS.key = Domain.DLS.new_key (fun () -> { windows = []; combs = [] })
let window_cap = 16
let comb_cap = 4
let promote_at = 16

(* The table to raise [base] (≠ generator, identity) by, given that the
   caller is about to use it for [scalars] exponents. *)
let lookup (base : t) ~(scalars : int) : cover =
  let tr = Domain.DLS.get tiers_key in
  match List.find_opt (fun (key, _) -> equal key base) tr.combs with
  | Some ((_, tab) as hit) ->
      tr.combs <- hit :: List.filter (fun c -> c != hit) tr.combs;
      Comb tab
  | None ->
      let entry, rest =
        match List.find_opt (fun e -> equal e.key base) tr.windows with
        | Some e -> (e, List.filter (fun e' -> e' != e) tr.windows)
        | None ->
            ( { key = base; scalars = 0; window = None },
              List.filteri (fun i _ -> i < window_cap - 1) tr.windows )
      in
      entry.scalars <- entry.scalars + scalars;
      if entry.scalars >= promote_at then begin
        let tab = comb_table_of base in
        (* Re-read both tiers: another systhread may have moved them
           during the build. *)
        tr.windows <- List.filter (fun e -> not (equal e.key base)) tr.windows;
        tr.combs <-
          (base, tab)
          :: List.filteri
               (fun i _ -> i < comb_cap - 1)
               (List.filter (fun (key, _) -> not (equal key base)) tr.combs);
        Comb tab
      end
      else begin
        tr.windows <- entry :: rest;
        if entry.scalars < 2 then Miss
        else
          match entry.window with
          | Some tab -> Window (tab, 0)
          | None ->
              let tab = table_of ~rows:1 base in
              entry.window <- Some tab;
              Window (tab, 0)
      end

let cover_of (base : t) ~(scalars : int) : cover =
  if equal base generator then Comb (Atom_exec.Once.get gen_table) else lookup base ~scalars

(* dst <- base^e for e ≠ 0, on the ladder [cover] selects. Callers take
   the cover before entering the session, so any table build runs
   outside it. *)
let ladder_into (base : t) (cover : cover) (s : Modarith.S.t) (dst : jp) (e : Modarith.plain) :
    unit =
  match (cover, base) with
  | Comb tab, _ ->
      jp_set_inf dst;
      comb_add_into s dst tab e
  | Window (tab, row), _ -> windowed_into s dst tab ~row (signed_digits e)
  | Miss, Aff (bx, by) -> windowed_oneshot_into s dst bx by e
  | Miss, Inf -> jp_set_inf dst

let pow_cover (base : t) (cover : cover) (e : Modarith.plain) : t =
  let r = jp_fresh () in
  Modarith.with_session fp (fun s -> ladder_into base cover s r e);
  to_affine r

let pow_gen (k : scalar) : t =
  Atom_obs.Opcount.note_pow_gen ();
  if Scalar.is_zero k then Inf
  else pow_cover generator (cover_of generator ~scalars:1) (Scalar.exponent k)

let pow (base : t) (k : scalar) : t =
  Atom_obs.Opcount.note_pow ();
  if Scalar.is_zero k || is_one base then Inf
  else pow_cover base (cover_of base ~scalars:1) (Scalar.exponent k)

(* ---- Multi-scalar multiplication ---- *)

(* Straus (shared doublings, per-base 4-bit window tables) for small
   batches, over the pair slice [lo, hi). A pair's window table is its
   base's cached flat table, or a one-row signed window table built for
   this call: when [affine_rows_from] or more bases need one, all their
   rows are normalized together (one inversion) into one flat buffer, so
   the ladder adds them as affine points and they take no arena slots.
   Otherwise, and for scalars of one digit, a base gets a per-call
   Jacobian table on the arena (unsigned nibbles), built only up to the
   largest nibble the scalar can produce — tiny scalars (e.g. the
   all-ones MSM of combine_pks) skip table construction entirely. *)
type straus_tab = T_win of table * int * int array | T_jac of jp array

let affine_rows_from = 4

let msm_straus (bases : t array) (exps : Modarith.plain array) (wins : table option array)
    ~(lo : int) ~(hi : int) : jp =
  let n = hi - lo in
  let fresh =
    List.filter
      (fun i ->
        Option.is_none wins.(i) && Modarith.plain_bit_length exps.(i) > 4 && not (is_one bases.(i)))
      (List.init n (fun j -> lo + j))
  in
  let rows = Array.make n (-1) in
  let fresh_tab =
    if List.length fresh < affine_rows_from then [||]
    else begin
      List.iteri (fun row i -> rows.(i - lo) <- row) fresh;
      window_rows (Array.of_list (List.map (fun i -> bases.(i)) fresh))
    end
  in
  let acc = jp_fresh () in
  Modarith.with_session fp (fun s ->
      let m0 = Modarith.S.mark s in
      let windows = ref 0 in
      let signed tab row i =
        let ds = signed_digits exps.(i) in
        windows := max !windows (top_digit ds + 1);
        T_win (tab, row, ds)
      in
      let tabs =
        Array.init n (fun j ->
            let i = lo + j in
            match wins.(i) with
            | Some tab -> signed tab 0 i
            | None when rows.(j) >= 0 -> signed fresh_tab rows.(j) i
            | None ->
                let bits = Modarith.plain_bit_length exps.(i) in
                windows := max !windows ((bits + 3) / 4);
                let max_d = if bits > 4 then 15 else Modarith.window exps.(i) ~pos:0 ~width:4 in
                let table = Array.init (max_d + 1) (fun _ -> jp_take s) in
                (match bases.(i) with
                | Inf -> Array.iter jp_set_inf table
                | Aff (bx, by) ->
                    if max_d >= 1 then jp_set_aff table.(1) bx by;
                    for d = 2 to max_d do
                      jp_copy ~dst:table.(d) table.(d - 1);
                      jadd_aff s table.(d) bx by
                    done);
                T_jac table)
      in
      let ex = Modarith.S.take s and ey = Modarith.S.take s in
      let windows = !windows in
      jp_set_inf acc;
      for w = windows - 1 downto 0 do
        if w <> windows - 1 then begin
          jdbl s acc;
          jdbl s acc;
          jdbl s acc;
          jdbl s acc
        end;
        for j = 0 to n - 1 do
          match tabs.(j) with
          | T_win (tab, row, ds) -> if ds.(w) <> 0 then add_entry s acc tab row ds.(w) ex ey
          | T_jac table ->
              let d = Modarith.window exps.(lo + j) ~pos:(4 * w) ~width:4 in
              if d <> 0 then jadd s acc table.(d)
        done
      done;
      Modarith.S.release s m0);
  acc

(* Pippenger bucket method for large batches: per window, drop each point
   into the bucket of its digit, then aggregate buckets with two running
   sums. ~(256/c)·(n + 2^{c+1}) additions overall. Windows are mutually
   independent, so a pool computes the per-window sums in parallel (each
   worker in its own session, buckets on its own arena); the combine
   (c doublings between windows, ≈256 doublings total) stays on the caller
   and is negligible next to the bucket work. The affine result is
   identical either way — [to_affine] canonicalizes whatever Jacobian
   representative the addition order produced. *)
let msm_pippenger ?pool (bases : t array) (exps : Modarith.plain array) : jp =
  let n = Array.length bases in
  let c = if n < 512 then 6 else if n < 2048 then 7 else 8 in
  let max_bits = ref 0 in
  for i = 0 to n - 1 do
    max_bits := max !max_bits (Modarith.plain_bit_length exps.(i))
  done;
  let nwin = (!max_bits + c - 1) / c in
  let nbuckets = (1 lsl c) - 1 in
  let window_sum w =
    let sum = jp_fresh () in
    Modarith.with_session fp (fun s ->
        let m = Modarith.S.mark s in
        let buckets =
          Array.init nbuckets (fun _ ->
              let b = jp_take s in
              jp_set_inf b;
              b)
        in
        for i = 0 to n - 1 do
          let d = Modarith.window exps.(i) ~pos:(w * c) ~width:c in
          if d <> 0 then
            match bases.(i) with Inf -> () | Aff (x, y) -> jadd_aff s buckets.(d - 1) x y
        done;
        let run = jp_take s in
        jp_set_inf run;
        jp_set_inf sum;
        for d = nbuckets - 1 downto 0 do
          jadd s run buckets.(d);
          jadd s sum run
        done;
        Modarith.S.release s m);
    sum
  in
  let wsums = Atom_exec.Pool.tabulate ?pool nwin window_sum in
  let acc = jp_fresh () in
  Modarith.with_session fp (fun s ->
      jp_set_inf acc;
      for w = nwin - 1 downto 0 do
        if w <> nwin - 1 then
          for _ = 1 to c do
            jdbl s acc
          done;
        jadd s acc wsums.(w)
      done);
  acc

let pippenger_threshold = 200

(* Below the Pippenger threshold a pooled MSM splits the pairs into
   contiguous chunks, runs Straus on each slice independently (no sub-array
   materialization), and adds the chunk partials in index order on the
   caller. Every chunk repeats the 256 doublings, so a small MSM (a
   round-sized shuffle verification is ~60 terms) gets one chunk per
   domain; from [msm_pool_threshold] terms on, four per domain balance
   the load better than the doublings cost. *)
let msm_small_pool_threshold = 16
let msm_pool_threshold = 64

let msm_straus_pooled pool (bases : t array) (exps : Modarith.plain array) : jp =
  let n = Array.length bases in
  let per_domain = if n >= msm_pool_threshold then 4 else 1 in
  let nchunks = min n (Atom_exec.Pool.size pool * per_domain) in
  let wins = Array.make n None in
  let partials =
    Atom_exec.Pool.tabulate ~pool nchunks (fun ci ->
        let lo = ci * n / nchunks and hi = (ci + 1) * n / nchunks in
        msm_straus bases exps wins ~lo ~hi)
  in
  let acc = jp_fresh () in
  Modarith.with_session fp (fun s ->
      jp_set_inf acc;
      Array.iter (fun partial -> jadd s acc partial) partials);
  acc

let msm_raw ?pool (pairs : (t * scalar) array) : t =
  (* Terms on a comb are added doubling-free after the rest: the
     generator's (its scalars summed first, g^a·g^b = g^{a+b}) and, in
     small MSMs, every promoted base's. Identity bases and zero scalars
     drop out. The tiers are consulted only for small MSMs — flooding them
     with a shuffle-sized batch of one-shot bases would evict the
     long-lived public keys. *)
  let small = Array.length pairs <= 8 in
  let gen_k = ref Scalar.zero in
  let combs = ref [] and rest = ref [] in
  Array.iter
    (fun (x, k) ->
      if is_one x || Scalar.is_zero k then ()
      else if equal x generator then gen_k := Scalar.add !gen_k k
      else begin
        let e = Scalar.exponent k in
        match if small then lookup x ~scalars:1 else Miss with
        | Comb tab -> combs := (tab, e) :: !combs
        | Window (tab, _) -> rest := (x, e, Some tab) :: !rest
        | Miss -> rest := (x, e, None) :: !rest
      end)
    pairs;
  let combs =
    if Scalar.is_zero !gen_k then !combs
    else (Atom_exec.Once.get gen_table, Scalar.exponent !gen_k) :: !combs
  in
  let rest = Array.of_list !rest in
  let n = Array.length rest in
  let acc =
    if n = 0 then begin
      let j = jp_fresh () in
      jp_set_inf j;
      j
    end
    else begin
      let bases = Array.map (fun (x, _, _) -> x) rest
      and exps = Array.map (fun (_, e, _) -> e) rest
      and wins = Array.map (fun (_, _, w) -> w) rest in
      if n > pippenger_threshold then msm_pippenger ?pool bases exps
      else begin
        match Atom_exec.Pool.resolve pool with
        | Some pl when n >= msm_small_pool_threshold && Atom_exec.Pool.size pl > 1 ->
            (* No tables here: the tiers only serve MSMs of <= 8 pairs, far
               below the pooling threshold. *)
            msm_straus_pooled pl bases exps
        | _ -> msm_straus bases exps wins ~lo:0 ~hi:n
      end
    end
  in
  (match combs with
  | [] -> ()
  | _ ->
      Modarith.with_session fp (fun s ->
          List.iter (fun (tab, e) -> comb_add_into s acc tab e) combs));
  to_affine acc

let msm ?pool (pairs : (t * scalar) array) : t =
  Atom_obs.Opcount.note_msm ~terms:(Array.length pairs);
  msm_raw ?pool pairs

(* pow2 goes through [msm_raw] so it tallies as one composite op, not also
   as an msm call. *)
let pow2 (a : t) (j : scalar) (b : t) (k : scalar) : t =
  Atom_obs.Opcount.note_pow2 ();
  msm_raw [| (a, j); (b, k) |]

(* ---- Batched exponentiation: every ladder of a proof phase in one job ----

   A keyed base takes the cover [pow] would give it, counted with all its
   scalars in the call. Each distinct fresh base gets a one-row window
   ([window_rows], all rows under one inversion) and never touches the
   tiers: recording one-shot bases would only evict the counts of
   long-lived keys. Tables are chosen on the caller; the ladders run as
   one pooled job, each worker in its own session, and one more
   inversion normalizes every result. *)
let pow_many ?pool ~(fresh : (t * scalar) array) (keyed : (t * scalar) array) :
    t array * t array =
  Atom_obs.Opcount.note_batch ~scalars:(Array.length keyed + Array.length fresh);
  let nk = Array.length keyed and nf = Array.length fresh in
  let covers = ref [] in
  let cover x =
    match List.find_opt (fun (b, _) -> equal b x) !covers with
    | Some (_, c) -> c
    | None ->
        let scalars = Array.fold_left (fun n (b, _) -> if equal b x then n + 1 else n) 0 keyed in
        let c = cover_of x ~scalars in
        covers := (x, c) :: !covers;
        c
  in
  let rows = Hashtbl.create 16 and bases = ref [] in
  let row x =
    match Hashtbl.find_opt rows x with
    | Some row -> row
    | None ->
        Hashtbl.add rows x (Hashtbl.length rows);
        bases := x :: !bases;
        Hashtbl.length rows - 1
  in
  let frow = Array.map (fun (x, k) -> if is_one x || Scalar.is_zero k then -1 else row x) fresh in
  let tab = if !bases = [] then [||] else window_rows (Array.of_list (List.rev !bases)) in
  (* Fresh ladders (double-and-add) first, keyed ones (mostly
     doubling-free combs) last, claimed one at a time: the job ends on
     short items. *)
  let on_row i (x, k) = (x, k, if frow.(i) < 0 then Miss else Window (tab, frow.(i))) in
  let items =
    Array.append (Array.mapi on_row fresh)
      (Array.map (fun (x, k) -> (x, k, if is_one x then Miss else cover x)) keyed)
  in
  let ladder (x, k, cover) =
    let r = jp_fresh () in
    if Scalar.is_zero k then jp_set_inf r
    else Modarith.with_session fp (fun s -> ladder_into x cover s r (Scalar.exponent k));
    r
  in
  let all = to_affine_batch (Atom_exec.Pool.map ?pool ~chunk:1 ladder items) in
  (Array.sub all nf nk, Array.sub all 0 nf)

include Group_intf.Keyed_batches (struct
  type nonrec t = t
  type nonrec scalar = scalar

  let generator = generator
  let pow_many = pow_many
end)

let element_bytes = 33

let y_odd (y : Modarith.el) : bool = Modarith.window (Modarith.to_plain fp y) ~pos:0 ~width:1 = 1
let x_bytes (x : Modarith.el) : string = Modarith.plain_to_bytes (Modarith.to_plain fp x) ~len:32

let to_bytes = function
  | Inf -> String.make element_bytes '\000'
  | Aff (x, y) -> String.make 1 (if y_odd y then '\003' else '\002') ^ x_bytes x

(* Square root mod p via (p+1)/4 (p ≡ 3 mod 4), by the fixed addition
   chain of [P256_field]; returns None if the input is a non-residue. *)
let sqrt (v : Modarith.el) : Modarith.el option =
  let r = Modarith.chain fp P256_field.sqrt_into v in
  if Modarith.equal (Modarith.sqr fp r) v then Some r else None

(* Decode [element_bytes] at [pos] without materializing the slice (the
   x-coordinate is read straight out of the buffer). Decompression solves
   the curve equation for y and the cofactor is 1, so a decoded point is
   on the curve by construction — decode is inherently validating. *)
let of_bytes_sub s ~pos =
  if pos < 0 || pos + element_bytes > String.length s then None
  else
    match s.[pos] with
    | '\000' ->
        let rec all_zero i = i >= element_bytes || (s.[pos + i] = '\000' && all_zero (i + 1)) in
        if all_zero 1 then Some Inf else None
    | '\002' | '\003' -> begin
        match Modarith.parse_be_sub fp s ~pos:(pos + 1) ~len:32 with
        | None -> None
        | Some xv -> (
            let x = Modarith.mont_of_plain fp xv in
            match sqrt (rhs_of_x x) with
            | None -> None
            | Some y ->
                let want_odd = s.[pos] = '\003' in
                Some (Aff (x, if y_odd y = want_odd then y else Modarith.neg fp y)))
      end
    | _ -> None

let of_bytes s = if String.length s <> element_bytes then None else of_bytes_sub s ~pos:0

(* Membership is the curve equation; [Inf] is the group identity and a
   member. Only hand-built [Aff] values can fail (the type is exposed for
   known-answer tests), so the batch check over decoded frames is pure
   defense in depth — but it is cheap (two squarings and two
   multiplications per point, no inversion) and pools above the
   [Naive_check] threshold. *)
let is_member = on_curve

include Group_intf.Naive_check (struct
  type nonrec t = t

  let is_member = is_member
end)

(* Decode already validates (see [of_bytes_sub]), so there is nothing
   left to defer: [elt] is the point itself and discharge re-runs the
   curve equation only as a cross-check on hand-built values that could
   enter through the exposed constructor. *)
module Unverified = struct
  type elt = t

  let of_bytes = of_bytes
  let of_bytes_sub = of_bytes_sub
  let discharge (e : elt) : t option = if on_curve e then Some e else None

  let discharge_batch ?pool (els : elt array) : (t array, int) result =
    if check_batch ?pool els then Ok els
    else Error (match find_non_member els with Some i -> i | None -> 0)
end

let embed_bytes = 28
let embed_marker = '\x01'

let embed payload =
  if String.length payload > embed_bytes then None
  else begin
    let padded = String.make (embed_bytes - String.length payload) '\000' ^ payload in
    let rec try_counter counter =
      if counter > 0xffff then None (* probability 2^-65536: unreachable *)
      else begin
        let x =
          Modarith.of_bytes_mod fp
            (String.concat ""
               [
                 "\000"; padded;
                 String.init 2 (fun i -> Char.chr ((counter lsr (8 * (1 - i))) land 0xff));
                 String.make 1 embed_marker;
               ])
        in
        match sqrt (rhs_of_x x) with
        | Some y -> Some (Aff (x, y))
        | None -> try_counter (counter + 1)
      end
    in
    try_counter 0
  end

let extract = function
  | Inf -> None
  | Aff (x, _) ->
      let xb = x_bytes x in
      if xb.[0] = '\000' && xb.[31] = embed_marker then Some (String.sub xb 1 embed_bytes)
      else None

let random rng = pow_gen (Scalar.random rng)
let hash_to_scalar msg = Scalar.of_bytes_mod (Atom_hash.Sha256.digest msg)

(* Hash-to-curve by try-and-increment on hashed x candidates; the resulting
   point has a publicly unknown discrete log. *)
let of_hash label =
  let rec go ctr =
    let digest = Atom_hash.Sha256.digest_list [ "p256-of-hash"; label; string_of_int ctr ] in
    match Modarith.parse_be_sub fp digest ~pos:0 ~len:32 with
    | None -> go (ctr + 1)
    | Some xv -> (
        let x = Modarith.mont_of_plain fp xv in
        match sqrt (rhs_of_x x) with
        | Some y when not (Modarith.is_zero y) -> Aff (x, y)
        | _ -> go (ctr + 1))
  in
  go 0
