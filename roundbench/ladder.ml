(* Per-layer accounting helpers that need no group: phase and step totals
   from trace events inside a time window, and counter sums across the
   fleet's registries. *)

module Trace = Atom_obs.Trace
module Metrics = Atom_obs.Metrics

(* Seconds of [ts, ts + dur] that fall inside [w0, w1]. *)
let clip ~w0 ~w1 (e : Trace.event) : float =
  Float.max 0. (Float.min w1 (e.Trace.ts +. e.Trace.dur) -. Float.max w0 e.Trace.ts)

(* Event-loop phase seconds inside the window, summed over [events] (one
   or more loops' buffers), keyed by phase name. *)
let phase_totals ~w0 ~w1 (events : Trace.event list) : (string, float) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.ph = 'X' && e.Trace.tid = 0 && e.Trace.cat = Trace.Phase.cat then begin
        let d = clip ~w0 ~w1 e in
        if d > 0. then
          Hashtbl.replace tbl e.Trace.name
            (d +. Option.value ~default:0. (Hashtbl.find_opt tbl e.Trace.name))
      end)
    events;
  tbl

let get (tbl : (string, float) Hashtbl.t) (k : string) : float =
  Option.value ~default:0. (Hashtbl.find_opt tbl k)

(* Phases in which a loop is idle rather than working. *)
let waiting = [ "barrier"; "recv-wait" ]

(* Seconds of the window during which at least one loop was in a working
   phase: the union of their working intervals. Summing the phases
   instead would count twice the time a loop spends blocked in a system
   call while another loop computes on the shared domain. *)
let busy_union ~w0 ~w1 (events : Trace.event list) : float =
  let spans =
    List.filter_map
      (fun (e : Trace.event) ->
        if
          e.Trace.ph = 'X' && e.Trace.tid = 0 && e.Trace.cat = Trace.Phase.cat
          && (not (List.mem e.Trace.name waiting))
          && clip ~w0 ~w1 e > 0.
        then Some (Float.max w0 e.Trace.ts, Float.min w1 (e.Trace.ts +. e.Trace.dur))
        else None)
      events
  in
  fst
    (List.fold_left
       (fun (total, last_end) (a, b) ->
         let a = Float.max a last_end in
         if b > a then (total +. (b -. a), b) else (total, last_end))
       (0., w0) (List.sort compare spans))

(* Pipeline step spans that start inside the window: (count, seconds). *)
let step_totals ~w0 ~w1 (events : Trace.event list) (name : string) : int * float =
  List.fold_left
    (fun (n, s) (e : Trace.event) ->
      if e.Trace.ph = 'X' && e.Trace.cat = "step" && e.Trace.name = name
         && e.Trace.ts >= w0 && e.Trace.ts <= w1
      then (n + 1, s +. e.Trace.dur)
      else (n, s))
    (0, 0.) events

let step_names = [ "shuffle_head"; "shuffle_step"; "reenc_step"; "head_reenc"; "batch_verify" ]

let counter_sum (regs : Metrics.t list) (name : string) : float =
  List.fold_left (fun acc r -> acc +. Metrics.counter_value r name) 0. regs

let hist_sum (reg : Metrics.t) (name : string) : float =
  match Metrics.find reg name with Some (Metrics.V_histogram h) -> Metrics.hist_sum h | _ -> 0.
