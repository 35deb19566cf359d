(* Observability layer: metrics-registry semantics, virtual-time span
   tracing and exclusive phase accounting, Chrome trace_event JSON
   well-formedness, leveled logging, group-op tallies — and the end-to-end
   guarantee the layer is built around: a simulated fleet round's merged
   trace is a pure function of (seed, fault plan), and the critical lane's
   per-phase breakdown tiles the round latency. *)

module G = (val Atom_group.Registry.zp_test ())
module Fleet = Atom_rpc.Fleet
module F = Fleet.Make (G)
open Atom_obs

(* ---- metrics registry ---- *)

let test_counter_gauge () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "a.count" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 2.5;
  Alcotest.(check (float 1e-9)) "counter accumulates" 4.5 (Metrics.value c);
  (* find-or-create returns the same cell. *)
  Metrics.incr (Metrics.counter reg "a.count");
  Alcotest.(check (float 1e-9)) "aliased by name" 5.5 (Metrics.counter_value reg "a.count");
  let g = Metrics.gauge reg "a.gauge" in
  Metrics.set g 3.;
  Metrics.set g 7.;
  Alcotest.(check (float 1e-9)) "gauge keeps last" 7. (Metrics.gauge_value g);
  (* Same name, different kind: refused. *)
  (match Metrics.gauge reg "a.count" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch should raise");
  Alcotest.(check int) "dump lists both" 2 (List.length (Metrics.dump reg));
  Alcotest.(check (float 1e-9)) "absent counter reads 0" 0. (Metrics.counter_value reg "nope")

let test_histogram_semantics () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:4 ~lo:0. ~hi:4. "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 1.7; 3.9; 4.0; -1.0; 9.0 ];
  Alcotest.(check int) "count includes out-of-range" 7 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 19.6 (Metrics.hist_sum h);
  Alcotest.(check (float 1e-9)) "mean" (19.6 /. 7.) (Metrics.hist_mean h);
  Alcotest.(check (float 1e-9)) "p0 is exact min" (-1.0) (Metrics.hist_quantile h 0.);
  Alcotest.(check (float 1e-9)) "p100 is exact max" 9.0 (Metrics.hist_quantile h 100.);
  (* Interior quantiles are bucket estimates but never leave [min, max]. *)
  List.iter
    (fun p ->
      let q = Metrics.hist_quantile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f in range" p)
        true
        (q >= -1.0 && q <= 9.0))
    [ 10.; 50.; 90.; 99. ]

let test_noop_registry () =
  let reg = Metrics.noop in
  Alcotest.(check bool) "disabled" false (Metrics.enabled reg);
  let c = Metrics.counter reg "x" in
  Metrics.incr c;
  Metrics.add c 10.;
  Metrics.observe (Metrics.histogram reg ~lo:0. ~hi:1. "h") 0.5;
  Alcotest.(check (float 1e-9)) "records nothing" 0. (Metrics.counter_value reg "x");
  Alcotest.(check int) "dump empty" 0 (List.length (Metrics.dump reg));
  Alcotest.(check bool) "live registry is enabled" true (Metrics.enabled (Metrics.create ()))

(* ---- tracer against a fake clock ---- *)

let test_span_nesting () =
  let tr = Trace.create () in
  let now = ref 0. in
  Trace.set_clock tr (fun () -> !now);
  let outer = Trace.begin_span tr ~tid:1 "outer" in
  now := 1.;
  Trace.with_span tr ~tid:1 "inner" (fun () -> now := 3.);
  now := 5.;
  Trace.end_span tr outer;
  Trace.end_span tr outer;
  (* idempotent: emitted once *)
  let evs = Trace.events tr in
  Alcotest.(check int) "two spans" 2 (List.length evs);
  (* Complete events are emitted at close, so the child precedes the
     parent, each stamped from the bound clock. *)
  (match evs with
  | [ inner; outer ] ->
      Alcotest.(check string) "child first" "inner" inner.Trace.name;
      Alcotest.(check (float 1e-9)) "child ts" 1. inner.Trace.ts;
      Alcotest.(check (float 1e-9)) "child dur" 2. inner.Trace.dur;
      Alcotest.(check string) "parent last" "outer" outer.Trace.name;
      Alcotest.(check (float 1e-9)) "parent ts" 0. outer.Trace.ts;
      Alcotest.(check (float 1e-9)) "parent dur" 5. outer.Trace.dur
  | _ -> Alcotest.fail "unexpected event shape");
  (* The noop tracer records nothing. *)
  let sp = Trace.begin_span Trace.noop ~tid:0 "x" in
  Trace.end_span Trace.noop sp;
  Alcotest.(check int) "noop records nothing" 0 (Trace.event_count Trace.noop)

let test_phase_tiling () =
  let tr = Trace.create () in
  let now = ref 0. in
  Trace.set_clock tr (fun () -> !now);
  let ph = Trace.Phase.start tr ~tid:3 "a" in
  now := 2.;
  Trace.Phase.switch ph "b";
  Trace.Phase.switch ph "b";
  (* same phase: no segment break *)
  now := 3.;
  Trace.Phase.switch ph "a";
  Trace.Phase.switch ph "c";
  (* zero-length "a" segment: dropped *)
  Alcotest.(check string) "current" "c" (Trace.Phase.current ph);
  now := 7.;
  Trace.Phase.stop ph;
  let evs = Trace.events tr in
  Alcotest.(check int) "three segments" 3 (List.length evs);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check string) "phase category" Trace.Phase.cat e.Trace.cat)
    evs;
  (* Segments tile [0, 7]: no gaps, no overlap, in order. *)
  let total = List.fold_left (fun acc (e : Trace.event) -> acc +. e.Trace.dur) 0. evs in
  Alcotest.(check (float 1e-9)) "durations tile lifetime" 7. total;
  match Trace.Breakdown.tracks evs with
  | [ t ] ->
      Alcotest.(check int) "track tid" 3 t.Trace.Breakdown.tid;
      Alcotest.(check (float 1e-9)) "track total" 7. t.Trace.Breakdown.total;
      Alcotest.(check (float 1e-9)) "track end" 7. t.Trace.Breakdown.t_end;
      Alcotest.(check (float 1e-9)) "phase a" 2.
        (List.assoc "a" t.Trace.Breakdown.phases);
      Alcotest.(check (float 1e-9)) "phase c" 4.
        (List.assoc "c" t.Trace.Breakdown.phases)
  | _ -> Alcotest.fail "expected one track"

(* ---- Chrome trace JSON ---- *)

(* Minimal JSON validator: accepts exactly the grammar (objects, arrays,
   strings with escapes, numbers, literals) and fails loudly on anything
   malformed — enough to guarantee Perfetto can load what we emit. *)
let validate_json (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.fail (Printf.sprintf "json: %s at byte %d" msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let lit w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l else fail w
  in
  let str () =
    expect '"';
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            pos := !pos + 2;
            go ()
        | c when Char.code c < 0x20 -> fail "unescaped control char"
        | _ ->
            incr pos;
            go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | _ -> fail "value"
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let rec items () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            items ()
        | Some ']' -> incr pos
        | _ -> fail "array"
      in
      items ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            members ()
        | Some '}' -> incr pos
        | _ -> fail "object"
      in
      members ()
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let count_occurrences needle hay =
  let rec go from acc =
    match String.index_from_opt hay from needle.[0] with
    | None -> acc
    | Some i ->
        if i + String.length needle <= String.length hay
           && String.sub hay i (String.length needle) = needle
        then go (i + 1) (acc + 1)
        else go (i + 1) acc
  in
  go 0 0

let test_chrome_json_well_formed () =
  let tr = Trace.create () in
  let now = ref 0. in
  Trace.set_clock tr (fun () -> !now);
  Trace.thread_name tr ~tid:1 "group \"one\"\nnasty";
  (* escaping *)
  Trace.instant tr ~cat:"fault" ~tid:1 ~args:[ ("machine", Trace.I 3) ] "fail";
  now := 0.5;
  Trace.with_span tr ~tid:1
    ~args:[ ("group", Trace.I 1); ("note", Trace.S "a\\b"); ("x", Trace.F 1.5) ]
    "iter 0"
    (fun () -> now := 1.);
  let json = Trace.to_chrome_json tr in
  validate_json json;
  Alcotest.(check int) "one json object per event" (Trace.event_count tr)
    (count_occurrences "\"ph\":" json);
  Alcotest.(check bool) "perfetto preamble" true
    (String.length json > 20 && String.sub json 0 20 = "{\"displayTimeUnit\":\"")

let test_merged_lanes () =
  let mk name ts dur = { Trace.name; cat = "phase"; ph = 'X'; ts; dur; tid = 0; args = [] } in
  let lanes =
    [
      {
        Trace.lane_pid = 1;
        lane_name = "node 0";
        lane_offset = 2.5;
        lane_events =
          [
            {
              Trace.name = "thread_name";
              cat = "";
              ph = 'M';
              ts = 9.;
              dur = 0.;
              tid = 0;
              args = [ ("name", Trace.S "event loop") ];
            };
            mk "verify" 1.0 0.5;
          ];
      };
      {
        Trace.lane_pid = 2;
        lane_name = "coordinator";
        lane_offset = 0.;
        lane_events = [ mk "send" 0.25 0.125 ];
      };
    ]
  in
  let json = Trace.to_chrome_json_lanes lanes in
  validate_json json;
  (* Each lane opens with its own process_name metadata record. *)
  Alcotest.(check int) "one process_name per lane" 2 (count_occurrences "\"process_name\"" json);
  (* The node lane's span is shifted onto the coordinator timebase:
     (1.0 + 2.5) s = 3500000 µs. Its duration is not shifted. *)
  Alcotest.(check int) "offset applied to span ts" 1 (count_occurrences "\"ts\":3500000.0" json);
  Alcotest.(check int) "dur unshifted" 1 (count_occurrences "\"dur\":500000.0" json);
  (* Metadata records keep their own timestamps — offsets apply only to
     real events, so lane labels don't wander off ts 0. *)
  Alcotest.(check int) "metadata never shifted" 0
    (count_occurrences "\"ts\":11500000.0" json);
  Alcotest.(check int) "metadata ts intact" 1 (count_occurrences "\"ts\":9000000.0" json);
  (* Every event lands in its lane's pid group. *)
  Alcotest.(check int) "pid 1 events" 3 (count_occurrences "\"pid\":1" json);
  Alcotest.(check int) "pid 2 events" 2 (count_occurrences "\"pid\":2" json)

let test_open_phases () =
  let tr = Trace.create () in
  let now = ref 1. in
  Trace.set_clock tr (fun () -> !now);
  Alcotest.(check int) "none open initially" 0 (List.length (Trace.open_phases tr));
  let p0 = Trace.Phase.start tr ~tid:0 "barrier" in
  now := 2.;
  let p1 = Trace.Phase.start tr ~tid:4 "recv-wait" in
  (match Trace.open_phases tr with
  | [ (0, "barrier", s0); (4, "recv-wait", s1) ] ->
      Alcotest.(check (float 1e-9)) "since of first" 1. s0;
      Alcotest.(check (float 1e-9)) "since of second" 2. s1
  | l -> Alcotest.failf "unexpected open phases (%d entries)" (List.length l));
  now := 3.;
  Trace.Phase.switch p0 "verify";
  (match Trace.open_phases tr with
  | (0, "verify", s) :: _ -> Alcotest.(check (float 1e-9)) "switch resets since" 3. s
  | _ -> Alcotest.fail "expected open verify phase");
  Trace.Phase.stop p0;
  Trace.Phase.stop p1;
  Alcotest.(check int) "all closed after stop" 0 (List.length (Trace.open_phases tr))

(* ---- atom-metrics/1 snapshots ---- *)

let test_snapshot_roundtrip () =
  let obs = Ctx.create ~tracing:true () in
  let now = ref 0. in
  Ctx.bind_clock obs (fun () -> !now);
  let reg = Ctx.metrics obs in
  Metrics.incr (Metrics.counter reg "round.count");
  Metrics.add (Metrics.counter reg "bytes.sent") 1234.5;
  Metrics.set (Metrics.gauge reg "peers.live") 7.;
  let h = Metrics.histogram reg ~buckets:4 ~lo:0. ~hi:4. "lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.9; -1.; 9. ];
  let tr = Ctx.tracer obs in
  Trace.thread_name tr ~tid:0 "event loop";
  Trace.instant tr ~cat:"fault" ~tid:0 ~args:[ ("machine", Trace.I 3) ] "kill";
  now := 0.25;
  Trace.with_span tr ~tid:1 ~cat:"step"
    ~args:[ ("s", Trace.S "a\"b\\c\nd"); ("i", Trace.I (-2)); ("f", Trace.F 1.5) ]
    "shuffle_step"
    (fun () -> now := 1.);
  let ph = Trace.Phase.start tr ~tid:0 "barrier" in
  now := 2.;
  Trace.Phase.switch ph "verify";
  (* [ph] is left open, so the snapshot must carry it as an open span. *)
  let snap = Snapshot.of_ctx ~node_id:5 ~include_trace:true obs in
  Alcotest.(check int) "node id" 5 snap.Snapshot.node_id;
  Alcotest.(check (float 1e-9)) "now read from the bound clock" 2. snap.Snapshot.now;
  Alcotest.(check (float 1e-9)) "counter carried" 1. (Snapshot.counter_value snap "round.count");
  Alcotest.(check bool) "open span captured" true
    (List.exists
       (fun os -> os.Snapshot.os_tid = 0 && os.Snapshot.os_phase = "verify")
       snap.Snapshot.open_spans);
  Alcotest.(check bool) "trace buffer included" true (List.length snap.Snapshot.events >= 3);
  let j = Snapshot.to_json snap in
  validate_json j;
  (match Snapshot.of_json j with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok snap' -> Alcotest.(check bool) "bit-exact roundtrip" true (snap' = snap));
  (* Encoding is deterministic and the trace buffer stays opt-in. *)
  Alcotest.(check string) "deterministic encode" j (Snapshot.to_json snap);
  let snap2 = Snapshot.of_ctx ~node_id:0 ~now:0.5 obs in
  Alcotest.(check int) "no events unless requested" 0 (List.length snap2.Snapshot.events);
  (match Snapshot.of_json (Snapshot.to_json snap2) with
  | Error e -> Alcotest.failf "decode failed (no trace): %s" e
  | Ok s' -> Alcotest.(check bool) "roundtrip without trace" true (s' = snap2));
  Trace.Phase.stop ph

let find_sub (hay : string) (needle : string) : int option =
  let n = String.length hay and m = String.length needle in
  let rec go i =
    if i + m > n then None else if String.sub hay i m = needle then Some i else go (i + 1)
  in
  go 0

let replace_once ~(sub : string) ~(by : string) (s : string) : string =
  match find_sub s sub with
  | None -> Alcotest.failf "substring %S not found" sub
  | Some i ->
      String.sub s 0 i ^ by ^ String.sub s (i + String.length sub) (String.length s - i - String.length sub)

let test_snapshot_strict_decode () =
  let obs = Ctx.create () in
  Metrics.incr (Metrics.counter (Ctx.metrics obs) "c");
  Metrics.observe (Metrics.histogram (Ctx.metrics obs) ~lo:0. ~hi:1. "h") 0.5;
  let j = Snapshot.to_json (Snapshot.of_ctx ~node_id:1 obs) in
  let ok s = match Snapshot.of_json s with Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "baseline decodes" true (ok j);
  (* Strictness: schema pinning, unknown fields, trailing bytes. *)
  Alcotest.(check bool) "wrong schema rejected" false
    (ok (replace_once ~sub:"atom-metrics/1" ~by:"atom-metrics/9" j));
  Alcotest.(check bool) "renamed field rejected" false
    (ok (replace_once ~sub:"\"node_id\"" ~by:"\"bogus_id\"" j));
  Alcotest.(check bool) "injected unknown field rejected" false
    (ok (replace_once ~sub:"{\"schema\"" ~by:"{\"extra\":1,\"schema\"" j));
  Alcotest.(check bool) "trailing garbage rejected" false (ok (j ^ "x"));
  Alcotest.(check bool) "not json rejected" false (ok "atom");
  (* Totality: every strict prefix is an [Error], never an exception. *)
  for i = 0 to String.length j - 1 do
    if ok (String.sub j 0 i) then Alcotest.failf "prefix of %d bytes accepted" i
  done

(* The \uXXXX escapes the encoder writes for control bytes, and surrogate
   pairs, decode in digit order; a lone surrogate is an error. *)
let metrics_doc ?(now = "0") (name : string) : string =
  Printf.sprintf
    {|{"schema":"atom-metrics/1","node_id":0,"now":%s,"metrics":[{"name":"%s","kind":"counter","value":1}],"open_spans":[],"trace":[]}|}
    now name

let test_snapshot_escapes () =
  let ctl = String.init 32 Char.chr in
  let snap =
    {
      Snapshot.node_id = 0;
      now = 0.;
      metrics = [ ("a" ^ ctl ^ "b", Snapshot.Counter 1.) ];
      open_spans = [];
      events = [ { Trace.name = "e"; cat = ""; ph = 'i'; ts = 0.; dur = 0.; tid = 0; args = [ ("s", Trace.S ctl) ] } ];
    }
  in
  (match Snapshot.of_json (Snapshot.to_json snap) with
  | Ok s -> Alcotest.(check bool) "control bytes round-trip" true (s = snap)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (match Snapshot.of_json (metrics_doc {|\ud83d\ude00|}) with
  | Ok s -> Alcotest.(check (list string)) "surrogate pair" [ "\xf0\x9f\x98\x80" ] (List.map fst s.Snapshot.metrics)
  | Error e -> Alcotest.failf "surrogate pair rejected: %s" e);
  Alcotest.(check bool) "lone surrogate rejected" true (Result.is_error (Snapshot.of_json (metrics_doc {|\ud83d|})))

(* A number that overflows to infinity has no JSON spelling to re-encode
   to, so the decoder rejects it. *)
let test_snapshot_overflow () =
  Alcotest.(check bool) "finite baseline" true (Result.is_ok (Snapshot.of_json (metrics_doc ~now:"1e300" "c")));
  Alcotest.(check bool) "1e999 rejected" true (Result.is_error (Snapshot.of_json (metrics_doc ~now:"1e999" "c")));
  (* A nan gauge still encodes (as null), and the decoder rejects it. *)
  let obs = Ctx.create () in
  Metrics.set (Metrics.gauge (Ctx.metrics obs) "g") Float.nan;
  Alcotest.(check bool) "nan encodes, decode rejects" true
    (Result.is_error (Snapshot.of_json (Snapshot.to_json (Snapshot.of_ctx ~node_id:0 obs))))

(* ---- leveled logging ---- *)

let test_log_levels () =
  let seen = ref [] in
  Log.set_sink (fun lvl msg -> seen := (lvl, msg) :: !seen);
  (* Off by default: nothing reaches the sink. *)
  Log.debug "dropped %d" 1;
  Log.error "also dropped";
  Alcotest.(check int) "silent by default" 0 (List.length !seen);
  Log.set_level (Some Log.Warn);
  Log.info "below level";
  Log.warn "kept %s" "w";
  Log.error "kept e";
  Log.set_level None;
  Log.reset_sink ();
  Alcotest.(check int) "level filter" 2 (List.length !seen);
  Alcotest.(check bool) "message formatted" true
    (List.exists (fun (_, m) -> m = "kept w") !seen)

(* ---- group-op tallies ---- *)

let test_opcount () =
  let rng = Atom_util.Rng.create 99 in
  let k = G.Scalar.random rng in
  let x = G.pow_gen (G.Scalar.random rng) in
  let s0 = Opcount.snapshot () in
  let (_ : G.t) = G.pow_gen k in
  let (_ : G.t) = G.pow x k in
  let (_ : G.t) = G.pow2 x k x k in
  let (_ : G.t) = G.msm [| (x, k); (x, k); (x, k) |] in
  let (_ : G.t array) = G.pow_batch x [| k; k |] in
  let (_ : G.t array) = G.pow_gen_batch [| k; k; k |] in
  (* pow_many is one batch of all its pairs, keyed and fresh, and the
     batch wrappers above count once each; mul_batch is no
     exponentiation. *)
  let (_ : G.t array * G.t array) = G.pow_many ~fresh:[| (x, k); (G.one, k); (x, k) |] [| (x, k) |] in
  let (_ : G.t array) = G.mul_batch [| x |] [| x |] in
  let d = Opcount.diff (Opcount.snapshot ()) s0 in
  Alcotest.(check int) "pow_gen" 1 d.Opcount.pow_gen;
  Alcotest.(check int) "pow" 1 d.Opcount.pow;
  (* Composite calls count once at their own level. *)
  Alcotest.(check int) "pow2" 1 d.Opcount.pow2;
  Alcotest.(check int) "msm calls" 1 d.Opcount.msm_calls;
  Alcotest.(check int) "msm terms" 3 d.Opcount.msm_terms;
  Alcotest.(check int) "batch calls" 3 d.Opcount.batch_calls;
  Alcotest.(check int) "batch scalars" 9 d.Opcount.batch_scalars;
  Alcotest.(check int) "total calls" 7 (Opcount.total_calls d)

(* ---- end-to-end: traced simulated fleet round ---- *)

let traced_round seed =
  let config = Atom_core.Config.tiny ~variant:Atom_core.Config.Trap ~seed () in
  let obs = Ctx.create ~tracing:true () in
  (config, F.run ~obs (Fleet.Sim { loss = 0. }) config (Fleet.Round { users = 6 }))

let test_trace_determinism () =
  let run () =
    let _, report = traced_round 11 in
    (report.Fleet.latency, Trace.to_chrome_json_lanes report.Fleet.lanes)
  in
  let l1, j1 = run () in
  let l2, j2 = run () in
  Alcotest.(check (float 0.)) "same latency" l1 l2;
  Alcotest.(check string) "byte-identical traces" j1 j2;
  validate_json j1

let test_trace_coverage () =
  let config, report = traced_round 11 in
  let topo = Atom_core.Config.topology config in
  let iters = topo.Atom_topology.Topology.iterations in
  let n_groups = config.Atom_core.Config.n_groups in
  let head_reencs =
    List.concat_map
      (fun (l : Trace.lane) ->
        List.filter
          (fun (e : Trace.event) -> e.Trace.name = "head_reenc" && e.Trace.ph = 'X')
          l.Trace.lane_events)
      report.Fleet.lanes
  in
  (* Every (group, iteration, batch) head step gets exactly one span:
     n_groups x T x beta of them. *)
  let expected = ref 0 in
  for iter = 0 to iters - 1 do
    for group = 0 to n_groups - 1 do
      expected :=
        !expected + Array.length (topo.Atom_topology.Topology.neighbors ~iter ~group)
    done
  done;
  Alcotest.(check int) "head_reenc spans" !expected (List.length head_reencs);
  let triples =
    List.sort_uniq compare
      (List.map
         (fun (e : Trace.event) ->
           List.map (fun k -> List.assoc k e.Trace.args) [ "gid"; "iter"; "batch" ])
         head_reencs)
  in
  Alcotest.(check int) "all (gid, iter, batch) distinct" !expected (List.length triples);
  (* The critical lane's phase durations sum to the round latency. *)
  let latency = report.Fleet.latency in
  match Trace.Breakdown.critical report.Fleet.lanes with
  | None -> Alcotest.fail "no phase tracks"
  | Some (_, crit) ->
      let cover = crit.Trace.Breakdown.total /. latency in
      Alcotest.(check bool)
        (Printf.sprintf "coverage within 1%% (got %.4f)" cover)
        true
        (Float.abs (cover -. 1.) <= 0.01);
      (* The breakdown table renders and agrees with the totals line. *)
      let table = Trace.Breakdown.render ~latency report.Fleet.lanes in
      Alcotest.(check bool) "table mentions every canonical phase seen" true
        (List.for_all
           (fun (name, _) -> count_occurrences name table >= 1)
           crit.Trace.Breakdown.phases)

let test_noop_obs_round () =
  (* With the noop context the run still works; node-side telemetry reads
     0 because there is no registry to accumulate into. *)
  let config = Atom_core.Config.tiny ~variant:Atom_core.Config.Trap ~seed:11 () in
  let report =
    F.run ~obs:Ctx.noop (Fleet.Sim { loss = 0. }) config (Fleet.Round { users = 1 })
  in
  Alcotest.(check bool) "round completes" true (report.Fleet.latency > 0.);
  Alcotest.(check bool) "matches reference" true report.outcome.matched;
  Alcotest.(check (float 0.)) "no recoveries recorded" 0.
    (Fleet.counter report "node.recoveries")

(* ---- engine binding ---- *)

let test_engine_virtual_clock () =
  let obs = Ctx.create ~tracing:true () in
  let engine = Atom_sim.Engine.create ~obs () in
  let tr = Ctx.tracer obs in
  Atom_sim.Engine.spawn engine (fun () ->
      Atom_sim.Engine.sleep engine 1.5;
      Trace.with_span tr ~tid:0 "work" (fun () -> Atom_sim.Engine.sleep engine 2.));
  let (_ : float) = Atom_sim.Engine.run engine in
  (match Trace.events tr with
  | [ e ] ->
      Alcotest.(check (float 1e-9)) "span starts at virtual 1.5" 1.5 e.Trace.ts;
      Alcotest.(check (float 1e-9)) "span lasts virtual 2" 2. e.Trace.dur
  | evs -> Alcotest.fail (Printf.sprintf "expected one event, got %d" (List.length evs)));
  Alcotest.(check bool) "engine events counted" true
    (Metrics.counter_value (Ctx.metrics obs) "engine.events" > 0.)

let suite =
  ( "obs",
    [
      Alcotest.test_case "metrics counter+gauge" `Quick test_counter_gauge;
      Alcotest.test_case "metrics histogram" `Quick test_histogram_semantics;
      Alcotest.test_case "metrics noop" `Quick test_noop_registry;
      Alcotest.test_case "span nesting+ordering" `Quick test_span_nesting;
      Alcotest.test_case "phase tiling" `Quick test_phase_tiling;
      Alcotest.test_case "chrome json well-formed" `Quick test_chrome_json_well_formed;
      Alcotest.test_case "merged lanes: pids, labels, offsets" `Quick test_merged_lanes;
      Alcotest.test_case "open phase summary" `Quick test_open_phases;
      Alcotest.test_case "snapshot roundtrip identity" `Quick test_snapshot_roundtrip;
      Alcotest.test_case "snapshot strict decode" `Quick test_snapshot_strict_decode;
      Alcotest.test_case "snapshot escapes and surrogates" `Quick test_snapshot_escapes;
      Alcotest.test_case "snapshot rejects overflow" `Quick test_snapshot_overflow;
      Alcotest.test_case "log levels" `Quick test_log_levels;
      Alcotest.test_case "opcount composite semantics" `Quick test_opcount;
      Alcotest.test_case "trace determinism" `Slow test_trace_determinism;
      Alcotest.test_case "trace coverage + span tree" `Slow test_trace_coverage;
      Alcotest.test_case "noop obs round" `Slow test_noop_obs_round;
      Alcotest.test_case "engine virtual clock binding" `Quick test_engine_virtual_clock;
    ] )
