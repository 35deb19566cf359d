(* The round benchmark: real [Node.Make] rounds and ingest epochs, timed
   end to end, with a per-layer ladder from a separate traced pass.

   Usage (from the repository root):

     dune exec roundbench/main.exe -- --workload W --seed N --seconds S --trace 0|1
         one workload in this process: S seconds of rounds (or one open-
         loop ingest session), every output checked against the reference;
         prints a table, then one JSON line with the end-to-end metrics
         (--trace 0) or the per-layer ladder (--trace 1)
     dune exec roundbench/main.exe -- round [--seed N] [--seconds S]
         every workload, each in its own process, both passes; writes
         roundbench/BENCH_round.json and one Chrome trace per workload
     dune exec roundbench/main.exe -- compare A.json B.json
         per (metric, workload) verdicts against BENCHMARK.json's bounds
     dune exec roundbench/main.exe -- smoke
         zp-test stand-ins of every workload for a few seconds; checks the
         output carries every metric BENCHMARK.json names

   Workloads, metric definitions and how to read the ladder are in
   roundbench/README.md. *)

open Atom_core
module Ctx = Atom_obs.Ctx

(* ---- workloads ---- *)

type load =
  | Closed of { users : int }  (** one round at a time, a fresh fleet each *)
  | Open of { rate : float; generators : int; epoch_s : float }
      (** pipelined ingest epochs fed on a fixed schedule *)

type workload = {
  name : string;
  group : string;
  variant : Config.variant;
  servers : int;
  groups : int;
  square : int;
  load : load;
  why : string;
}

let workloads =
  [
    {
      name = "nizk-p256";
      group = "p256";
      variant = Config.Nizk;
      servers = 4;
      groups = 2;
      square = 2;
      load = Closed { users = 8 };
      why =
        "shuffle and ReEnc proofs and P-256 multi-exponentiations do most of the work: crypto, \
         proof and pool changes show here";
    };
    {
      name = "trap-p256";
      group = "p256";
      variant = Config.Trap;
      servers = 4;
      groups = 2;
      square = 2;
      load = Closed { users = 8 };
      why =
        "same shuffle and re-encryption path without per-hop proofs, wider units and a trap \
         endgame: a proof-verification gain must leave it flat";
    };
    {
      name = "basic-hops-zp";
      group = "zp-test";
      variant = Config.Basic;
      servers = 8;
      groups = 4;
      square = 4;
      load = Closed { users = 16 };
      why =
        "crypto costs microseconds, so per-frame work dominates: bring-up, TCP, wire codec, event \
         loop dispatch and the coordinator's control plane";
    };
    {
      name = "ingest-zp";
      group = "zp-test";
      variant = Config.Nizk;
      servers = 4;
      groups = 2;
      square = 2;
      load = Open { rate = 40.; generators = 2; epoch_s = 1.0 };
      why =
        "client submissions at 40/s beside pipelined mixing on the same event loops: admission \
         against mixing";
    };
  ]

let config_of (w : workload) ~(seed : int) : Config.t =
  {
    (Config.tiny ~variant:w.variant ~seed ()) with
    Config.n_servers = w.servers;
    n_groups = w.groups;
    group_size = 2;
    h = 1;
    topology = Config.Square w.square;
    msg_bytes = 32;
  }

(* ---- metrics ---- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("latency_s", "s");
    ("ack_ms", "ms");
    ("msgs_per_s", "msg/s");
    ("cpu_ms_per_msg", "ms");
    ("onion_ms", "ms");
    ("rss_mb", "MB");
  ]

let unit_of_layer (name : string) : string =
  let ends s = String.ends_with ~suffix:s name in
  if name = "group.s_per_msg" then "s/msg"
  else if ends "_per_msg" then if String.starts_with ~prefix:"gc." name then "words/msg" else "B/msg"
  else if ends ".s" || ends "_s" then "s"
  else if String.starts_with ~prefix:"wire.bytes." name || name = "rpc.bytes_out" then "B"
  else if name = "exec.pool.minor_words" then "words"
  else if String.starts_with ~prefix:"ladder." name then "ratio"
  else "count"

(* A summarized metric: the value reported, the number of samples it
   came from, and two quartiles. *)
type stat = { value : float; n : int; p25 : float; p75 : float }

let pct (l : float list) (p : float) : float =
  match l with [] -> nan | _ -> Atom_util.Stats.percentile (Array.of_list l) p

let median (l : float list) : float = pct l 50.

(* The median of [l], with the quartiles of [l]. *)
let of_samples ?(scale = 1.) (l : float list) : stat =
  { value = scale *. pct l 50.; n = List.length l; p25 = scale *. pct l 25.; p75 = scale *. pct l 75. }

(* [agg] over a run's replicates (rounds, fleets, submissions or epochs,
   in the order they ran), with the quartiles of [agg] over five
   consecutive blocks of them. Those quartiles show how far the figure
   itself moves within a run, which is what [compare] weighs a difference
   against; the replicates' own quartiles would show the width of their
   distribution instead. *)
let blocked (agg : 'a list -> float) (xs : 'a list) : stat =
  let n = List.length xs in
  let k = min 5 n in
  let blocks = List.init k (fun b -> agg (List.filteri (fun i _ -> i * k / n = b) xs)) in
  { value = agg xs; n; p25 = pct blocks 25.; p75 = pct blocks 75. }

let single (v : float) (n : int) : stat = { value = v; n; p25 = v; p75 = v }
let sum = List.fold_left ( +. ) 0.

let rss_mb () : float =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6
  | ic ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      Fun.protect ~finally:(fun () -> close_in ic) find

let now = Timed_transport.now

(* Run [one i] for i = 0, 1, ... until the next call would pass the
   deadline (predicted from the median call so far); at least once. *)
let repeat ~(seconds : float) (one : int -> 'a) : 'a list =
  let stop = now () +. seconds in
  let rec go i acc cycles =
    let t0 = now () in
    let r = one i in
    let cycles = (now () -. t0) :: cycles in
    let acc = r :: acc in
    if now () +. pct cycles 50. > stop then List.rev acc else go (i + 1) acc cycles
  in
  go 0 [] []

(* Per-layer totals are per round (an ingest epoch counts as a round),
   except ratios and one-off intervals. *)
let not_per_round name =
  String.ends_with ~suffix:"_per_msg" name
  || List.mem name [ "coord.pre_round_s"; "coord.epoch_s"; "ladder.coverage" ]

let average_layers (layers : (string * float) list list) ~(per : float) : (string * float) list =
  match layers with
  | [] -> []
  | first :: _ ->
      let k = float_of_int (List.length layers) in
      List.map
        (fun (name, _) ->
          let total = sum (List.map (fun l -> List.assoc name l) layers) /. k in
          (name, if not_per_round name then total else total /. per))
        first

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  why : string list;
  e2e : (string * stat) list; (* trace 0 *)
  layers : (string * float) list; (* trace 1 *)
  extra : (string * stat) list; (* reported, not judged *)
  lanes : Atom_obs.Trace.lane list;
}

let run_workload (w : workload) ~(seed : int) ~(seconds : float) ~(traced : bool) ~(smoke : bool)
    ~(pool : Atom_exec.Pool.t) ~(pool_obs : Ctx.t) : outcome =
  let group = if smoke then "zp-test" else w.group in
  let module G = (val Atom_group.Registry.by_name group) in
  let module Plain = Fleet.Make (G) in
  let module Timed = Fleet.Make (Timed_group.Make (G)) in
  let pool = Some pool in
  match w.load with
  | Closed { users } ->
      let config i = config_of w ~seed:(seed + i) in
      if not traced then begin
        let rs =
          repeat ~seconds (fun i -> Plain.run_round ~traced:false ?pool ~pool_obs (config i) ~users)
        in
        let bad = List.filter (fun r -> not r.Fleet.r_ok) rs in
        let ok = List.filter (fun r -> r.Fleet.r_ok) rs in
        let f g = List.map g ok in
        let med g rs = median (List.map g rs) in
        let round_s = f (fun r -> r.Fleet.r_round_s) in
        {
          correct = bad = [];
          attempted = List.length rs;
          failed = List.length bad;
          why = List.map (fun r -> r.Fleet.r_why) bad;
          e2e =
            [
              ("setup_s", blocked (med (fun r -> r.Fleet.r_setup_s)) ok);
              ("latency_s", blocked (med (fun r -> r.Fleet.r_round_s)) ok);
              ("ack_ms", blocked (med (fun r -> 1e3 *. r.Fleet.r_admit_s)) ok);
              ( "msgs_per_s",
                blocked (med (fun r -> float_of_int r.Fleet.r_msgs /. r.Fleet.r_round_s)) ok );
              ( "cpu_ms_per_msg",
                blocked
                  (fun rs ->
                    1e3
                    *. sum (List.map (fun r -> r.Fleet.r_cpu_s) rs)
                    /. float_of_int (max 1 (List.fold_left (fun acc r -> acc + r.Fleet.r_msgs) 0 rs)))
                  ok );
              ("onion_ms", blocked (med (fun r -> 1e3 *. r.Fleet.r_onion_s)) ok);
              ("rss_mb", single (rss_mb ()) 1);
            ];
          layers = [];
          extra =
            [
              ("host_speed", of_samples (f (fun r -> r.Fleet.r_speed)));
              ("latency_wall_s", of_samples (f (fun r -> r.Fleet.r_wall_s)));
              ("latency_p90_s", single (pct round_s 90.) (List.length ok));
              ("pre_round_s", of_samples (f (fun r -> r.Fleet.r_pre_round_s)));
            ];
          lanes = [];
        }
      end
      else begin
        (* Untraced and traced rounds alternate on the same seeds, so the
           tracing overhead is measured pair by pair. *)
        let pairs =
          repeat ~seconds (fun i ->
              let u = Plain.run_round ~traced:false ?pool ~pool_obs (config i) ~users in
              let t = Timed.run_round ~traced:true ?pool ~pool_obs (config i) ~users in
              (u, t))
        in
        let all = List.concat_map (fun (u, t) -> [ u; t ]) pairs in
        let bad = List.filter (fun r -> not r.Fleet.r_ok) all in
        let traced_rs = List.map snd pairs in
        let untraced_s = pct (List.map (fun (u, _) -> u.Fleet.r_round_s) pairs) 50. in
        let traced_s = pct (List.map (fun r -> r.Fleet.r_round_s) traced_rs) 50. in
        let layers =
          List.map
            (fun r ->
              ("coord.epoch_s", r.Fleet.r_wall_s)
              :: ("ladder.coverage", List.assoc "ladder.busy_s" r.Fleet.r_layer /. r.Fleet.r_wall_s)
              :: List.remove_assoc "ladder.busy_s" r.Fleet.r_layer)
            traced_rs
        in
        {
          correct = bad = [];
          attempted = List.length all;
          failed = List.length bad;
          why = List.map (fun r -> r.Fleet.r_why) bad;
          e2e = [];
          layers =
            average_layers layers ~per:1.
            @ [ ("ladder.tracing_overhead", (traced_s /. untraced_s) -. 1.) ];
          extra = [];
          lanes = (match List.rev traced_rs with r :: _ -> r.Fleet.r_lanes | [] -> []);
        }
      end
  | Open { rate; generators; epoch_s } ->
      let config = config_of w ~seed in
      let session ~traced ~rate ~seconds ~generators ~epoch_s =
        if traced then
          Timed.run_ingest ~traced ?pool ~pool_obs config ~seed ~rate ~seconds ~generators ~epoch_s
        else
          Plain.run_ingest ~traced ?pool ~pool_obs config ~seed ~rate ~seconds ~generators ~epoch_s
      in
      (* correct, submissions offered, failures (a failed session counts
         at least one), why *)
      let judge sessions =
        let bad = List.filter (fun s -> not s.Fleet.i_ok) sessions in
        ( bad = [],
          max 1 (List.fold_left (fun acc s -> acc + s.Fleet.i_offered) 0 sessions),
          List.fold_left
            (fun acc s -> acc + max s.Fleet.i_failed (if s.Fleet.i_ok then 0 else 1))
            0 sessions,
          List.map (fun s -> s.Fleet.i_why) bad )
      in
      let mix_rate epochs =
        let eps = List.filter (fun (posts, _) -> posts > 0) epochs in
        float_of_int (List.fold_left (fun acc (p, _) -> acc + p) 0 eps)
        /. sum (List.map snd eps)
      in
      let epoch_mean s = sum (List.map snd s.Fleet.i_epochs) /. float_of_int (List.length s.Fleet.i_epochs) in
      if not traced then begin
        (* Four empty sessions first: more set-up samples, and the lazy
           one-time work (tables, code paths) is done before the timed
           session. *)
        let warm =
          List.init 4 (fun _ ->
              session ~traced:false ~rate:0. ~seconds:0. ~generators:0 ~epoch_s:0.05)
        in
        let s = session ~traced:false ~rate ~seconds ~generators ~epoch_s in
        let correct, attempted, failed, why = judge (s :: warm) in
        let accepted = List.length s.Fleet.i_acks in
        {
          correct;
          attempted;
          failed;
          why;
          e2e =
            [
              ( "setup_s",
                blocked (fun ss -> median (List.map (fun s -> s.Fleet.i_setup_s) ss)) (warm @ [ s ]) );
              (* bulletin latency waits mostly on the epoch schedule: wall clock *)
              ("latency_s", blocked median s.Fleet.i_bulletins);
              ("ack_ms", blocked (fun l -> 1e3 *. median l) s.Fleet.i_acks);
              ("msgs_per_s", blocked mix_rate s.Fleet.i_epochs);
              ( "cpu_ms_per_msg",
                single (1e3 *. s.Fleet.i_cpu_s /. float_of_int (max 1 accepted)) accepted );
              ("onion_ms", single (1e3 *. s.Fleet.i_onion_s) s.Fleet.i_offered);
              ("rss_mb", single (rss_mb ()) 1);
            ];
          layers = [];
          extra =
            [
              ("host_speed", single s.Fleet.i_speed 1);
              ("ack_p99_ms", single (1e3 *. pct s.Fleet.i_acks 99.) accepted);
              ("bulletin_p99_s", single (pct s.Fleet.i_bulletins 99.) accepted);
              ("generator_late_p99_ms", single (1e3 *. pct s.Fleet.i_late 99.) (List.length s.Fleet.i_late));
              ("epoch_s", of_samples (List.map snd s.Fleet.i_epochs));
            ];
          lanes = [];
        }
      end
      else begin
        let half = seconds /. 2. in
        let u = session ~traced:false ~rate ~seconds:half ~generators ~epoch_s in
        let t = session ~traced:true ~rate ~seconds:half ~generators ~epoch_s in
        let correct, attempted, failed, why = judge [ u; t ] in
        let epochs = float_of_int (max 1 (List.length t.Fleet.i_epochs)) in
        let layer =
          ("coord.epoch_s", epoch_mean t /. t.Fleet.i_speed)
          :: ("ladder.coverage", List.assoc "ladder.busy_s" t.Fleet.i_layer /. t.Fleet.i_window_s)
          :: List.remove_assoc "ladder.busy_s" t.Fleet.i_layer
        in
        {
          correct;
          attempted;
          failed;
          why;
          e2e = [];
          layers =
            average_layers [ layer ] ~per:epochs
            @ [ ("ladder.tracing_overhead", (epoch_mean t /. epoch_mean u) -. 1.) ];
          extra = [];
          lanes = t.Fleet.i_lanes;
        }
      end

(* ---- output ---- *)

let metric_json (m : (string * float * string) list) : Json.t =
  Json.Obj (List.map (fun (name, v, u) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) m)

let stat_json (s : stat) : Json.t =
  Json.Obj
    [
      ("n", Json.Num (float_of_int s.n));
      ("median", Json.Num s.value);
      ("p25", Json.Num s.p25);
      ("p75", Json.Num s.p75);
    ]

let finite_or_zero v = if Float.is_finite v then v else 0.

let config_json (w : workload) : Json.t =
  let variant = match w.variant with Config.Basic -> "basic" | Nizk -> "nizk" | Trap -> "trap" in
  Json.Obj
    ([
       ("group", Json.Str w.group);
       ("variant", Json.Str variant);
       ("servers", Json.Num (float_of_int w.servers));
       ("groups", Json.Num (float_of_int w.groups));
       ("group_size", Json.Num 2.);
       ("h", Json.Num 1.);
       ("square", Json.Num (float_of_int w.square));
       ("msg_bytes", Json.Num 32.);
     ]
    @
    match w.load with
    | Closed { users } -> [ ("loop", Json.Str "closed"); ("users", Json.Num (float_of_int users)) ]
    | Open { rate; generators; epoch_s } ->
        [
          ("loop", Json.Str "open");
          ("rate_per_s", Json.Num rate);
          ("generators", Json.Num (float_of_int generators));
          ("epoch_s", Json.Num epoch_s);
        ])

let drive (w : workload) ~seed ~seconds ~trace ~smoke ~detail ~trace_out : int =
  let domains = min 2 (Domain.recommended_domain_count ()) in
  let pool_obs = if trace then Ctx.create () else Ctx.noop in
  let pool = Atom_exec.Pool.create ~obs:pool_obs ~domains () in
  let o =
    Fun.protect
      ~finally:(fun () -> Atom_exec.Pool.shutdown pool)
      (fun () -> run_workload w ~seed ~seconds ~traced:trace ~smoke ~pool ~pool_obs)
  in
  let metrics =
    if trace then List.map (fun (name, v) -> (name, v, unit_of_layer name)) o.layers
    else List.map (fun (name, u) -> (name, (List.assoc name o.e2e).value, u)) end_to_end
  in
  let all_finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let metrics = List.map (fun (n, v, u) -> (n, finite_or_zero v, u)) metrics in
  let correct = o.correct && all_finite in
  Printf.printf "workload %s (%s, seed %d, %s, %d domain%s; all event loops share one OCaml domain)\n"
    w.name (if smoke then "zp-test" else w.group) seed
    (if trace then "traced" else "untraced")
    domains
    (if domains = 1 then "" else "s");
  List.iter
    (fun (name, v, u) ->
      let n = match List.assoc_opt name o.e2e with Some s -> Printf.sprintf "  (n=%d)" s.n | None -> "" in
      Printf.printf "  %-32s %16.6g %-10s%s\n" name v u n)
    metrics;
  List.iter (fun (name, s) -> Printf.printf "  %-32s %16.6g  (n=%d)\n" name s.value s.n) o.extra;
  List.iter (fun why -> Printf.printf "  FAILED: %s\n" why) o.why;
  if not all_finite then print_endline "  FAILED: a metric is not a finite number";
  (match trace_out with
  | Some path when o.lanes <> [] ->
      let oc = open_out_bin path in
      output_string oc (Atom_obs.Trace.to_chrome_json_lanes o.lanes);
      close_out oc
  | _ -> ());
  let clean s = { s with value = finite_or_zero s.value; p25 = finite_or_zero s.p25; p75 = finite_or_zero s.p75 } in
  let stats l = Json.Obj (List.map (fun (name, s) -> (name, stat_json (clean s))) l) in
  if detail then
    print_endline
      ("DETAIL "
      ^ Json.to_string (Json.Obj [ ("end_to_end", stats o.e2e); ("extra", stats o.extra) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int o.attempted));
            ("failed", Json.Num (float_of_int o.failed));
            ("metrics", metric_json metrics);
          ]));
  if correct then 0 else 1

(* ---- round: every workload in its own process, both passes ---- *)

let run_child (args : string list) : string list * int =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = read [] in
  let code = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> 255 in
  (lines, code)

let is_detail = String.starts_with ~prefix:"DETAIL "

let result_of (lines : string list) : Json.t =
  match List.rev lines with l :: _ -> ( try Json.parse l with Json.Bad _ -> Json.Null) | [] -> Json.Null

let detail_of (lines : string list) : Json.t =
  match List.find_opt is_detail lines with
  | Some l -> ( try Json.parse (String.sub l 7 (String.length l - 7)) with Json.Bad _ -> Json.Null)
  | None -> Json.Null

(* Echo a child's table, not its machine-readable lines. *)
let echo (lines : string list) : unit =
  List.iter (fun l -> if not (is_detail l || String.starts_with ~prefix:"{" l) then print_endline l) lines

let git_commit () : string =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line

let round_mode ~(seed : int) ~(seconds : float) ~(out : string) : int =
  let one (w : workload) =
    let common =
      [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds; "--detail" ]
    in
    let l0, c0 = run_child (common @ [ "--trace"; "0" ]) in
    echo l0;
    let trace_path = Filename.concat (Filename.dirname out) (Printf.sprintf "trace_%s.json" w.name) in
    let l1, c1 = run_child (common @ [ "--trace"; "1"; "--trace-out"; trace_path ]) in
    echo l1;
    let r0 = result_of l0 and r1 = result_of l1 and d0 = detail_of l0 in
    let num k j = Json.to_num (Json.member k j) in
    let attempted = num "attempted" r0 +. num "attempted" r1 in
    let failed = num "failed" r0 +. num "failed" r1 in
    let correct =
      c0 = 0 && c1 = 0
      && Json.member "correct" r0 = Json.Bool true
      && Json.member "correct" r1 = Json.Bool true
    in
    let e2e = Json.member "end_to_end" d0 in
    ( correct,
      Json.Obj
        [
          ("name", Json.Str w.name);
          ("why", Json.Str w.why);
          ("config", config_json w);
          ("correct", Json.Bool correct);
          ("attempted", Json.Num attempted);
          ("failed", Json.Num failed);
          ("fail_ratio", Json.Num (if attempted > 0. then failed /. attempted else 1.));
          ( "end_to_end",
            Json.Obj
              (List.map
                 (fun (name, u) -> (name, Json.Obj (("unit", Json.Str u) :: Json.to_assoc (Json.member name e2e))))
                 end_to_end) );
          ("extra", Json.member "extra" d0);
          ("per_layer", Json.member "metrics" r1);
        ] )
  in
  let results = List.map one workloads in
  let cores = Domain.recommended_domain_count () in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "atom-bench-round/1");
        ("commit", Json.Str (git_commit ()));
        ("host_cores", Json.Num (float_of_int cores));
        ("domains", Json.Num (float_of_int (min 2 cores)));
        ("seed", Json.Num (float_of_int seed));
        ("seconds", Json.Num seconds);
        ( "caveat",
          Json.Str
            "every event loop of a fleet runs as a thread of one process and shares one OCaml \
             domain: a round's time is the whole fleet's work on one core plus waits, not the \
             critical path of a multi-machine deployment" );
        ("workloads", Json.Arr (List.map snd results));
      ]
  in
  let oc = open_out_bin out in
  output_string oc (Json.pretty doc ^ "\n");
  close_out oc;
  Printf.printf "\n%-14s %-16s %14s %14s %14s %6s\n" "workload" "metric" "median" "p25" "p75" "n";
  List.iter
    (fun ((_, j), w) ->
      List.iter
        (fun (name, u) ->
          let s = Json.member name (Json.member "end_to_end" j) in
          let f k = Json.to_num (Json.member k s) in
          Printf.printf "%-14s %-16s %14.6g %14.6g %14.6g %6.0f  %s\n" w.name name (f "median")
            (f "p25") (f "p75") (f "n") u)
        end_to_end;
      Printf.printf "%-14s %-16s %14.6g\n" w.name "fail_ratio"
        (Json.to_num (Json.member "fail_ratio" j)))
    (List.combine results workloads);
  Printf.printf "wrote %s\n" out;
  if List.for_all fst results then 0 else 1

(* ---- compare: two BENCH_round.json files under BENCHMARK.json's bounds ---- *)

let verdict ~(better : string) ~(bound : float) (a : Json.t) (b : Json.t) : string =
  let f k j = Json.to_num (Json.member k j) in
  let spread j = (f "p75" j -. f "p25" j) /. Float.abs (f "median" j) in
  let rel = (f "median" b -. f "median" a) /. Float.abs (f "median" a) in
  let gain = if better = "higher" then rel else -.rel in
  if not (Float.is_finite rel) then "unresolved"
  else if spread a > bound || spread b > bound then "unresolved"
  else if gain < -.bound then "worse"
  else if gain > bound then "better"
  else "same"

let compare_mode (a : string) (b : string) : int =
  let ja = Json.of_file a and jb = Json.of_file b and spec = Json.of_file "BENCHMARK.json" in
  let bounds =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          (Json.to_str (Json.member "better" m), Json.to_num (Json.member "bound" m)) ))
      (Json.to_list (Json.member "end_to_end" spec))
  in
  let by_name j =
    List.map (fun w -> (Json.to_str (Json.member "name" w), w)) (Json.to_list (Json.member "workloads" j))
  in
  let wb = by_name jb in
  let cell j =
    let f k = Json.to_num (Json.member k j) in
    Printf.sprintf "%11.5g [%.5g, %.5g]" (f "median") (f "p25") (f "p75")
  in
  Printf.printf "%-14s %-15s %-36s %-36s %8s  %s\n" "workload" "metric" "A median [p25, p75]"
    "B median [p25, p75]" "B/A-1" "verdict";
  let worse = ref 0 in
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name wb with
      | None -> Printf.printf "%-14s missing from %s\n" name b
      | Some wbj ->
          List.iter
            (fun (m, (better, bound)) ->
              let sa = Json.member m (Json.member "end_to_end" wa) in
              let sb = Json.member m (Json.member "end_to_end" wbj) in
              let v = verdict ~better ~bound sa sb in
              if v = "worse" then incr worse;
              let med j = Json.to_num (Json.member "median" j) in
              Printf.printf "%-14s %-15s %-36s %-36s %+7.1f%%  %s (bound %g%%)\n" name m (cell sa)
                (cell sb)
                (100. *. ((med sb /. med sa) -. 1.))
                v (100. *. bound))
            bounds)
    (by_name ja);
  if !worse = 0 then 0 else 1

(* ---- smoke: zp-test stand-ins, checked against BENCHMARK.json ---- *)

let smoke_mode () : int =
  let spec = Json.of_file "BENCHMARK.json" in
  let names key =
    List.sort compare (List.map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member key spec)))
  in
  let pass = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let seconds = match w.load with Closed _ -> "0.5" | Open _ -> "2" in
          let lines, code =
            run_child
              [ "--workload"; w.name; "--seed"; "1"; "--seconds"; seconds; "--trace"; (if trace then "1" else "0"); "--smoke" ]
          in
          let r = result_of lines in
          let got = List.sort compare (List.map fst (Json.to_assoc (Json.member "metrics" r))) in
          let want = names (if trace then "per_layer" else "end_to_end") in
          let missing = List.filter (fun n -> not (List.mem n got)) want in
          let unlisted = List.filter (fun n -> not (List.mem n want)) got in
          let ok = code = 0 && Json.member "correct" r = Json.Bool true && missing = [] && unlisted = [] in
          if not ok then pass := false;
          Printf.printf "smoke %-14s trace %d: %s%s%s\n%!" w.name (if trace then 1 else 0)
            (if ok then "ok" else Printf.sprintf "FAILED (exit %d)" code)
            (if missing = [] then "" else " missing: " ^ String.concat ", " missing)
            (if unlisted = [] then "" else " not in BENCHMARK.json: " ^ String.concat ", " unlisted))
        [ false; true ])
    workloads;
  if !pass then 0 else 1

(* ---- CLI ---- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe round [--seed N] [--seconds S] [--out roundbench/BENCH_round.json]\n\
    \       main.exe compare A.json B.json\n\
    \       main.exe smoke";
  exit 2

let switches = [ "--detail"; "--smoke" ]

let rec flags (args : string list) : (string * string) list * string list =
  match args with
  | k :: rest when List.mem k switches ->
      let fl, pos = flags rest in
      ((k, "") :: fl, pos)
  | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      let fl, pos = flags rest in
      ((k, v) :: fl, pos)
  | k :: _ when String.starts_with ~prefix:"--" k -> usage ()
  | a :: rest ->
      let fl, pos = flags rest in
      (fl, a :: pos)
  | [] -> ([], [])

let int_flag fl k default =
  match List.assoc_opt k fl with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())

let float_flag fl k default =
  match List.assoc_opt k fl with
  | None -> default
  | Some v -> ( match float_of_string_opt v with Some f when f > 0. -> f | _ -> usage ())

let () =
  let fl, pos = flags (List.tl (Array.to_list Sys.argv)) in
  let seed = int_flag fl "--seed" 1 and seconds = float_flag fl "--seconds" 30. in
  match pos with
  | [] -> (
      let name = match List.assoc_opt "--workload" fl with Some n -> n | None -> usage () in
      match List.find_opt (fun w -> w.name = name) workloads with
      | None ->
          Printf.eprintf "unknown workload %S; available: %s\n" name
            (String.concat ", " (List.map (fun w -> w.name) workloads));
          exit 2
      | Some w ->
          let trace =
            match List.assoc_opt "--trace" fl with
            | None | Some "0" -> false
            | Some "1" -> true
            | Some _ -> usage ()
          in
          exit
            (drive w ~seed ~seconds ~trace ~smoke:(List.mem_assoc "--smoke" fl)
               ~detail:(List.mem_assoc "--detail" fl) ~trace_out:(List.assoc_opt "--trace-out" fl)))
  | [ "round" ] ->
      exit
        (round_mode ~seed ~seconds
           ~out:(Option.value ~default:"roundbench/BENCH_round.json" (List.assoc_opt "--out" fl)))
  | [ "compare"; a; b ] -> exit (compare_mode a b)
  | [ "smoke" ] -> exit (smoke_mode ())
  | _ -> usage ()
