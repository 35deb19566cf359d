(* Metrics registry: named counters, gauges, and fixed-bucket histograms.

   Built for hot paths: a counter is one mutable float cell, so recording
   costs a load and a store. Disabling goes through the registry, not the
   call sites — [noop] hands out shared scratch cells (counters, gauges)
   and inactive histograms, so instrumented code runs unchanged and
   branch-free whether observability is on or off. Metric objects are
   find-or-create by name, letting independent subsystems accumulate into
   the same cell; name enumeration is sorted so dumps are deterministic.

   Histograms use equal-width buckets over [lo, hi] with the same bucket
   convention as [Atom_util.Stats.bucket_index] (last bucket closed at
   [hi]); out-of-range observations are tallied separately rather than
   dropped, and sum/count/min/max are exact regardless of bucketing. *)

type counter = { mutable c : float }
type gauge = { mutable g : float }

type histogram = {
  active : bool;
  lo : float;
  hi : float;
  counts : int array;
  mutable sum : float;
  mutable n : int;
  mutable minv : float;
  mutable maxv : float;
  mutable below : int; (* observations < lo *)
  mutable above : int; (* observations > hi *)
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  enabled : bool;
  tbl : (string, metric) Hashtbl.t;
}

let create () : t = { enabled = true; tbl = Hashtbl.create 64 }
let noop : t = { enabled = false; tbl = Hashtbl.create 1 }
let enabled (t : t) : bool = t.enabled

(* Shared scratch cells handed out by the noop registry: writes land
   somewhere harmless instead of paying a branch at every record site. *)
let scratch_counter : counter = { c = 0. }
let scratch_gauge : gauge = { g = 0. }

let scratch_histogram : histogram =
  {
    active = false;
    lo = 0.;
    hi = 1.;
    counts = [||];
    sum = 0.;
    n = 0;
    minv = infinity;
    maxv = neg_infinity;
    below = 0;
    above = 0;
  }

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let find_or_create (t : t) (name : string) (make : unit -> metric) (want : string) : metric =
  match Hashtbl.find_opt t.tbl name with
  | Some m ->
      if kind_name m <> want then
        invalid_arg
          (Printf.sprintf "Metrics: %S already registered as a %s, requested as a %s" name
             (kind_name m) want);
      m
  | None ->
      let m = make () in
      Hashtbl.add t.tbl name m;
      m

let counter (t : t) (name : string) : counter =
  if not t.enabled then scratch_counter
  else
    match find_or_create t name (fun () -> Counter { c = 0. }) "counter" with
    | Counter c -> c
    | _ -> assert false

let gauge (t : t) (name : string) : gauge =
  if not t.enabled then scratch_gauge
  else
    match find_or_create t name (fun () -> Gauge { g = 0. }) "gauge" with
    | Gauge g -> g
    | _ -> assert false

let histogram (t : t) ?(buckets = 16) ~(lo : float) ~(hi : float) (name : string) : histogram =
  if buckets <= 0 || hi <= lo then invalid_arg "Metrics.histogram";
  if not t.enabled then scratch_histogram
  else
    match
      find_or_create t name
        (fun () ->
          Histogram
            {
              active = true;
              lo;
              hi;
              counts = Array.make buckets 0;
              sum = 0.;
              n = 0;
              minv = infinity;
              maxv = neg_infinity;
              below = 0;
              above = 0;
            })
        "histogram"
    with
    | Histogram h -> h
    | _ -> assert false

let incr (c : counter) : unit = c.c <- c.c +. 1.
let add (c : counter) (v : float) : unit = c.c <- c.c +. v
let value (c : counter) : float = c.c
let set (g : gauge) (v : float) : unit = g.g <- v
let gauge_value (g : gauge) : float = g.g

let observe (h : histogram) (x : float) : unit =
  if h.active then begin
    h.sum <- h.sum +. x;
    h.n <- h.n + 1;
    if x < h.minv then h.minv <- x;
    if x > h.maxv then h.maxv <- x;
    match Atom_util.Stats.bucket_index ~buckets:(Array.length h.counts) ~lo:h.lo ~hi:h.hi x with
    | Some b -> h.counts.(b) <- h.counts.(b) + 1
    | None -> if x < h.lo then h.below <- h.below + 1 else h.above <- h.above + 1
  end

let hist_count (h : histogram) : int = h.n
let hist_sum (h : histogram) : float = h.sum
let hist_mean (h : histogram) : float = if h.n = 0 then 0. else h.sum /. float_of_int h.n

(* Structural accessors for serializers (the JSON snapshot codec): the
   bucket bounds and raw tallies, with the empty-histogram min/max
   normalized to 0 so no infinity ever reaches a wire format. *)
let hist_lo (h : histogram) : float = h.lo
let hist_hi (h : histogram) : float = h.hi
let hist_buckets (h : histogram) : int array = Array.copy h.counts
let hist_min (h : histogram) : float = if h.n = 0 then 0. else h.minv
let hist_max (h : histogram) : float = if h.n = 0 then 0. else h.maxv
let hist_below (h : histogram) : int = h.below
let hist_above (h : histogram) : int = h.above

(* Percentile estimate from the bucket counts: linear interpolation inside
   the bucket containing the target rank; under/overflow tallies clamp to
   lo/hi. Exact min/max are used for the extreme ranks. *)
let hist_quantile (h : histogram) (p : float) : float =
  if h.n = 0 then 0.
  else if p <= 0. then h.minv
  else if p >= 100. then h.maxv
  else begin
    let buckets = Array.length h.counts in
    let width = (h.hi -. h.lo) /. float_of_int buckets in
    let target = p /. 100. *. float_of_int h.n in
    let rec walk b acc =
      if b >= buckets then h.maxv
      else begin
        let acc' = acc +. float_of_int h.counts.(b) in
        if acc' >= target && h.counts.(b) > 0 then
          let frac = (target -. acc) /. float_of_int h.counts.(b) in
          h.lo +. (width *. (float_of_int b +. frac))
        else walk (b + 1) acc'
      end
    in
    (* Interpolation assumes observations spread through the bucket; clamp
       to the observed range so coarse buckets never report a quantile
       outside [min, max]. *)
    Float.min h.maxv (Float.max h.minv (walk 0 (float_of_int h.below)))
  end

type view =
  | V_counter of float
  | V_gauge of float
  | V_histogram of histogram

let dump (t : t) : (string * view) list =
  Hashtbl.fold
    (fun name m acc ->
      let v =
        match m with
        | Counter c -> V_counter c.c
        | Gauge g -> V_gauge g.g
        | Histogram h -> V_histogram h
      in
      (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find (t : t) (name : string) : view option =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> Some (V_counter c.c)
  | Some (Gauge g) -> Some (V_gauge g.g)
  | Some (Histogram h) -> Some (V_histogram h)
  | None -> None

(* Counter value by name, 0 if absent — the "registry read" shape used by
   report builders (e.g. the simulated fleet's per-node recovery sum). *)
let counter_value (t : t) (name : string) : float =
  match Hashtbl.find_opt t.tbl name with Some (Counter c) -> c.c | _ -> 0.

let pp (fmt : Format.formatter) (t : t) : unit =
  let entries = dump t in
  if entries = [] then Format.fprintf fmt "(no metrics recorded)@."
  else begin
    Format.fprintf fmt "%-44s %14s@." "metric" "value";
    List.iter
      (fun (name, v) ->
        match v with
        | V_counter c ->
            if Float.is_integer c then Format.fprintf fmt "%-44s %14.0f@." name c
            else Format.fprintf fmt "%-44s %14.4f@." name c
        | V_gauge g -> Format.fprintf fmt "%-44s %14.4g@." name g
        | V_histogram h ->
            Format.fprintf fmt
              "%-44s count %-8d mean %.3e  p50 %.3e  p90 %.3e  p99 %.3e  max %.3e@." name h.n
              (hist_mean h) (hist_quantile h 50.) (hist_quantile h 90.) (hist_quantile h 99.)
              (if h.n = 0 then 0. else h.maxv))
      entries
  end
