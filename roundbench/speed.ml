(* Host-speed reference.

   Shared machines drift: other tenants' load slows the same work by up to
   2x for minutes at a time, so raw wall times of identical runs spread by
   20% and more. The benchmark reads a fixed reference kernel around each
   measurement and reports durations scaled by [k_ref / k]: seconds on a
   host where the kernel takes [k_ref].

   The kernel has two halves, because contention reaches the work through
   two resources: a pseudo-random walk over a 4 MiB array (cache and
   memory) and chains of limb multiplications (the execution units bignum
   arithmetic uses). It allocates nothing, so GC settings do not move it,
   and it is this file's own code, so no change to the repository's
   libraries moves it either; only the host does. The array lives outside
   the OCaml heap: 4 MiB of live heap would raise the GC's heap target and
   inflate the memory metric. *)

let buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 19)
let () = Bigarray.Array1.fill buf 0

let walk () : int =
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (Bigarray.Array1.dim buf - 1) in
    acc := !acc + Bigarray.Array1.unsafe_get buf j;
    Bigarray.Array1.unsafe_set buf j !acc
  done;
  !acc

let limbs = Array.init 16 (fun i -> (i * 0x9e3779b9) land 0xffffffff)

(* Schoolbook products of two 8-limb numbers, folded back in. *)
let mul () : int =
  for _ = 1 to 2_000 do
    for i = 0 to 7 do
      let a = Array.unsafe_get limbs i in
      for j = 0 to 7 do
        let p = a * Array.unsafe_get limbs (8 + j) in
        let k = (i + j) land 15 in
        Array.unsafe_set limbs k
          ((Array.unsafe_get limbs k + (p land 0xffffffff) + (p lsr 32)) land 0xffffffff)
      done
    done
  done;
  limbs.(0)

let time (f : unit -> int) : float =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

(* The fastest of three runs, so a thread switch landing inside one run
   does not count as a slow host. *)
let best (f : unit -> int) : float = Float.min (time f) (Float.min (time f) (time f))

(* One reading, in seconds. *)
let probe () : float = best walk +. best mul

(* A reading's typical value on the quiet host the baseline was recorded
   on. *)
let k_ref = 0.6e-3

(* Factor turning durations measured between readings [k0] and [k1] into
   reference seconds. *)
let factor (k0 : float) (k1 : float) : float = k_ref /. ((k0 +. k1) /. 2.)

let factor_of (readings : float list) : float =
  k_ref /. (List.fold_left ( +. ) 0. readings /. float_of_int (List.length readings))

(* A meter for a stretch of bench-side work (building or admitting
   onions): it reads the host whenever 20 ms of work has gone by, so each
   slice is scaled by the readings around it, and the readings themselves
   are not counted. *)
type meter = { mutable k : float; mutable since : float; mutable total : float }

let meter () : meter =
  let k = probe () in
  { k; since = Unix.gettimeofday (); total = 0. }

let read (m : meter) : unit =
  let t = Unix.gettimeofday () in
  let k = probe () in
  m.total <- m.total +. ((t -. m.since) *. factor m.k k);
  m.k <- k;
  m.since <- Unix.gettimeofday ()

(* Call after each item of work. *)
let step (m : meter) : unit = if Unix.gettimeofday () -. m.since >= 0.02 then read m

(* Reference seconds of work since the last [take]. *)
let take (m : meter) : float =
  read m;
  let v = m.total in
  m.total <- 0.;
  v

(* The latest reading. *)
let last (m : meter) : float = m.k
