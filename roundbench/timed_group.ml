(* A timing wrapper around a GROUP backend, for the traced pass.

   It wraps only the exponentiation-shaped operations — [pow], [pow_gen],
   [pow2], [msm], [pow_batch], [pow_gen_batch] — which carry nearly all
   of the group layer's cost; everything else is the backend's own
   function. Instantiating the protocol stack over [Make (G)] instead of
   [G] makes every call the runtime makes through the group interface
   visible, without changing the runtime.

   Calls run on pool worker domains as well as the event-loop threads, so
   the tallies are atomic, and [s] sums busy time across domains (core
   seconds, not wall seconds). A backend's internal calls do not pass
   through the wrapper, so nothing is counted twice. *)

type op = Pow | Pow_gen | Pow2 | Msm | Pow_batch | Pow_gen_batch

let ops = [ Pow; Pow_gen; Pow2; Msm; Pow_batch; Pow_gen_batch ]

let name = function
  | Pow -> "pow"
  | Pow_gen -> "pow_gen"
  | Pow2 -> "pow2"
  | Msm -> "msm"
  | Pow_batch -> "pow_batch"
  | Pow_gen_batch -> "pow_gen_batch"

let index = function
  | Pow -> 0
  | Pow_gen -> 1
  | Pow2 -> 2
  | Msm -> 3
  | Pow_batch -> 4
  | Pow_gen_batch -> 5

let calls = Array.init 6 (fun _ -> Atomic.make 0)
let nanos = Array.init 6 (fun _ -> Atomic.make 0)

(* msm terms and batch scalars, per op *)
let items = Array.init 6 (fun _ -> Atomic.make 0)

type tally = { t_calls : int; t_s : float; t_items : int }

let snapshot () : (op * tally) list =
  List.map
    (fun op ->
      let i = index op in
      ( op,
        {
          t_calls = Atomic.get calls.(i);
          t_s = float_of_int (Atomic.get nanos.(i)) *. 1e-9;
          t_items = Atomic.get items.(i);
        } ))
    ops

let diff (after : (op * tally) list) (before : (op * tally) list) : (op * tally) list =
  List.map
    (fun (op, a) ->
      let b = List.assoc op before in
      (op, { t_calls = a.t_calls - b.t_calls; t_s = a.t_s -. b.t_s; t_items = a.t_items - b.t_items }))
    after

let timed (op : op) ~(n : int) (f : unit -> 'a) : 'a =
  let i = index op in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Atomic.incr calls.(i);
  ignore (Atomic.fetch_and_add nanos.(i) (int_of_float (dt *. 1e9)));
  if n > 0 then ignore (Atomic.fetch_and_add items.(i) n);
  v

module Make (G : Atom_group.Group_intf.GROUP) : Atom_group.Group_intf.GROUP = struct
  include G

  let pow x k = timed Pow ~n:0 (fun () -> G.pow x k)
  let pow_gen k = timed Pow_gen ~n:0 (fun () -> G.pow_gen k)
  let pow2 a j b k = timed Pow2 ~n:0 (fun () -> G.pow2 a j b k)
  let msm ?pool terms = timed Msm ~n:(Array.length terms) (fun () -> G.msm ?pool terms)
  let pow_batch ?pool x ks = timed Pow_batch ~n:(Array.length ks) (fun () -> G.pow_batch ?pool x ks)

  let pow_gen_batch ?pool ks =
    timed Pow_gen_batch ~n:(Array.length ks) (fun () -> G.pow_gen_batch ?pool ks)
end
