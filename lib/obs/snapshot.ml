(* atom-metrics/1: the machine-readable observability snapshot.

   One JSON document captures a process's whole observability surface at
   an instant: every metric in the registry (with histogram quantiles
   computed at encode time), the open-span summary (what each phase
   tracker is doing right now), and optionally the full trace buffer.
   It is what a node serves over Ctrl.Stats_request, writes periodically
   with --stats-every, and dumps at exit — one format everywhere.

   Through [Json] the decoder is total (malformed, type-confused,
   schema-mismatched or over-deep input returns [Error]) and strict:
   unknown fields in known objects are rejected. [of_json (to_json s) =
   Ok s], bit-exact, trace-arg [I]/[F] kept; a nan or ±inf value encodes
   as null, which the decoder rejects. *)

let schema = "atom-metrics/1"

type hist = {
  h_lo : float;
  h_hi : float;
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_below : int;
  h_above : int;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
  h_buckets : int array;
}

type metric = Counter of float | Gauge of float | Histogram of hist

type open_span = { os_tid : int; os_phase : string; os_since : float }

type t = {
  node_id : int;
  now : float; (* the process clock at snapshot time (s) *)
  metrics : (string * metric) list; (* name-sorted, as Metrics.dump *)
  open_spans : open_span list;
  events : Trace.event list; (* trace buffer; [] unless requested *)
}

let of_ctx ~(node_id : int) ?now ?(include_trace = false) (ctx : Ctx.t) : t =
  let tr = Ctx.tracer ctx in
  let now =
    match now with Some n -> n | None -> if Trace.enabled tr then Trace.now tr else 0.
  in
  let metrics =
    List.map
      (fun (name, v) ->
        match v with
        | Metrics.V_counter c -> (name, Counter c)
        | Metrics.V_gauge g -> (name, Gauge g)
        | Metrics.V_histogram h ->
            ( name,
              Histogram
                {
                  h_lo = Metrics.hist_lo h;
                  h_hi = Metrics.hist_hi h;
                  h_count = Metrics.hist_count h;
                  h_sum = Metrics.hist_sum h;
                  h_min = Metrics.hist_min h;
                  h_max = Metrics.hist_max h;
                  h_below = Metrics.hist_below h;
                  h_above = Metrics.hist_above h;
                  h_p50 = Metrics.hist_quantile h 50.;
                  h_p90 = Metrics.hist_quantile h 90.;
                  h_p99 = Metrics.hist_quantile h 99.;
                  h_buckets = Metrics.hist_buckets h;
                } ))
      (Metrics.dump (Ctx.metrics ctx))
  in
  let open_spans =
    List.map
      (fun (tid, phase, since) -> { os_tid = tid; os_phase = phase; os_since = since })
      (Trace.open_phases tr)
  in
  let events = if include_trace then Trace.events tr else [] in
  { node_id; now; metrics; open_spans; events }

let counters (s : t) : (string * float) list =
  List.filter_map (function name, Counter c -> Some (name, c) | _ -> None) s.metrics

let counter_value (s : t) (name : string) : float =
  match List.assoc_opt name s.metrics with Some (Counter c) -> c | _ -> 0.

(* ---- codec ---- *)

let metric_json ((name, m) : string * metric) : Json.t =
  let open Json in
  let kind k rest = Obj (("name", Str name) :: ("kind", Str k) :: rest) in
  match m with
  | Counter c -> kind "counter" [ ("value", number c) ]
  | Gauge g -> kind "gauge" [ ("value", number g) ]
  | Histogram h ->
      kind "histogram"
        [ ("lo", number h.h_lo); ("hi", number h.h_hi); ("count", Int h.h_count); ("sum", number h.h_sum);
          ("min", number h.h_min); ("max", number h.h_max); ("below", Int h.h_below); ("above", Int h.h_above);
          ("p50", number h.h_p50); ("p90", number h.h_p90); ("p99", number h.h_p99);
          ("buckets", Arr (List.map (fun b -> Int b) (Array.to_list h.h_buckets))) ]

let event_json (ev : Trace.event) : Json.t =
  let arg = function Trace.S s -> Json.Str s | Trace.I n -> Json.Int n | Trace.F f -> Json.number f in
  Json.(
    Obj
      [ ("name", Str ev.Trace.name); ("cat", Str ev.Trace.cat); ("ph", Str (String.make 1 ev.Trace.ph));
        ("ts", number ev.Trace.ts); ("dur", number ev.Trace.dur); ("tid", Int ev.Trace.tid);
        ("args", Obj (List.map (fun (k, v) -> (k, arg v)) ev.Trace.args)) ])

let to_json (s : t) : string =
  let span os = Json.(Obj [ ("tid", Int os.os_tid); ("phase", Str os.os_phase); ("since", number os.os_since) ]) in
  Json.(
    to_string
      (Obj
         [ ("schema", Str schema); ("node_id", Int s.node_id); ("now", number s.now);
           ("metrics", Arr (List.map metric_json s.metrics)); ("open_spans", Arr (List.map span s.open_spans));
           ("trace", Arr (List.map event_json s.events)) ]))

(* Schema destructuring: every known object must carry exactly its
   fields, so encoder/decoder drift cannot pass silently. *)

let num k c = Json.float (Json.field k c)
let int k c = Json.int (Json.field k c)
let str k c = Json.string (Json.field k c)

let decode_metric (c : Json.cursor) : string * metric =
  let scalar mk = Json.keys [ "name"; "kind"; "value" ] c; mk (num "value" c) in
  match str "kind" c with
  | "counter" -> (str "name" c, scalar (fun v -> Counter v))
  | "gauge" -> (str "name" c, scalar (fun v -> Gauge v))
  | "histogram" ->
      Json.keys
        [ "name"; "kind"; "lo"; "hi"; "count"; "sum"; "min"; "max"; "below"; "above"; "p50"; "p90"; "p99";
          "buckets" ]
        c;
      let f k = num k c and i k = int k c in
      ( str "name" c,
        Histogram
          { h_lo = f "lo"; h_hi = f "hi"; h_count = i "count"; h_sum = f "sum"; h_min = f "min"; h_max = f "max";
            h_below = i "below"; h_above = i "above"; h_p50 = f "p50"; h_p90 = f "p90"; h_p99 = f "p99";
            h_buckets = Array.of_list (List.map Json.int (Json.list (Json.field "buckets" c))) } )
  | k -> Json.fail c "unknown metric kind %S" k

let decode_open_span (c : Json.cursor) : open_span =
  Json.keys [ "tid"; "phase"; "since" ] c;
  { os_tid = int "tid" c; os_phase = str "phase" c; os_since = num "since" c }

let decode_event (c : Json.cursor) : Trace.event =
  Json.keys [ "name"; "cat"; "ph"; "ts"; "dur"; "tid"; "args" ] c;
  let arg (k, a) =
    match Json.value a with
    | Json.Str s -> (k, Trace.S s)
    | Json.Int n -> (k, Trace.I n)
    | Json.Float f -> (k, Trace.F f)
    | _ -> Json.fail a "expected string or number"
  in
  let ph = str "ph" c in
  if String.length ph <> 1 then Json.fail c "ph: expected one character";
  { Trace.name = str "name" c; cat = str "cat" c; ph = ph.[0]; ts = num "ts" c; dur = num "dur" c; tid = int "tid" c;
    args = List.map arg (Json.assoc (Json.field "args" c)) }

let of_json (doc : string) : (t, string) result =
  Result.bind (Json.parse doc) @@ Json.decode (fun c ->
      Json.keys [ "schema"; "node_id"; "now"; "metrics"; "open_spans"; "trace" ] c;
      if str "schema" c <> schema then Json.fail c "schema mismatch: expected %S, got %S" schema (str "schema" c);
      let items k f = List.map f (Json.list (Json.field k c)) in
      { node_id = int "node_id" c; now = num "now" c; metrics = items "metrics" decode_metric;
        open_spans = items "open_spans" decode_open_span; events = items "trace" decode_event })
