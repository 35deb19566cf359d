(* The CI gates over the run artifacts, one per file kind, read through
   the one JSON codec. A gate reports through [say] and fails with its
   first broken assertion, or with the path of a missing or mistyped
   field. `bench gate NAME FILE` runs one and exits non-zero on failure,
   so CI and a developer run the same check. *)

module Json = Atom_obs.Json

let check (c : Json.cursor) (ok : bool) fmt = Printf.ksprintf (fun m -> if not ok then Json.fail c "%s" m) fmt
let num (k : string) (c : Json.cursor) : float = Json.float (Json.field k c)
let str (k : string) (c : Json.cursor) : string = Json.string (Json.field k c)

let find (c : Json.cursor) (what : string) (p : Json.cursor -> bool) (l : Json.cursor list) =
  match List.find_opt p l with Some x -> x | None -> Json.fail c "no %s" what

(* The core count the file was measured on, else [cores]. *)
let host_cores ~(cores : int) (c : Json.cursor) : int =
  Option.fold ~none:cores ~some:Json.int (Json.field_opt "host_cores" c)

(* BENCH_wire.json: under the Batched policy a fully validated decode
   sustains at least encode bandwidth, on any core count. *)
let wire ~(say : string -> unit) ~(cores : int) (c : Json.cursor) : unit =
  check c (str "schema" c = "atom-bench-wire/2") "schema %S" (str "schema" c);
  let items = List.rev (Json.list (Json.field "items" c)) in
  let item name = find c ("item " ^ name) (fun i -> str "name" i = name) items in
  let enc = item "batch encode" and dec = item "batch decode batched" in
  let labels = (str "validation" dec, str "validation" enc) in
  check c (labels = ("batched", "none")) "validation labels %S/%S, expected batched/none" (fst labels) (snd labels);
  let mb i = num "mb_per_s" i in
  say (Printf.sprintf "batch encode  %.2f MB/s" (mb enc));
  say (Printf.sprintf "batch decode  %.2f MB/s (batched, host_cores=%d)" (mb dec) (host_cores ~cores c));
  check c (mb dec >= mb enc) "batched decode %.2f MB/s < encode %.2f MB/s" (mb dec) (mb enc)

(* BENCH_parallel.json: pooled shuffle verification matches the 1-domain
   reference and scales ≥ 1.8× at 2 domains and ≥ 3.0× at 4, each floor
   held only where the measuring host had that many cores; a multicore
   host must recommend more than one domain. *)
let parallel ~(say : string -> unit) ~(cores : int) (c : Json.cursor) : unit =
  let cores = host_cores ~cores c in
  let workloads = Json.list (Json.field "workloads" c) in
  let wl = find c "shuffle-verify n=1024 workload" (fun w -> str "name" w = "shuffle-verify n=1024") workloads in
  check wl (Json.bool (Json.field "identical" wl)) "pooled output diverged from 1-domain reference";
  List.iter
    (fun (domains, floor) ->
      let rows = Json.list (Json.field "results" wl) in
      match List.find_opt (fun r -> Json.int (Json.field "domains" r) = domains) rows with
      | None -> ()
      | Some row ->
          let speedup = num "speedup" row in
          let spread = Option.fold ~none:0. ~some:Json.float (Json.field_opt "spread" row) in
          say
            (Printf.sprintf "%d-domain shuffle-verify: %.2fx (spread %.2f%%, host_cores=%d)" domains speedup
               (100. *. spread) cores);
          if cores >= domains then
            check row (speedup >= floor) "%d-domain speedup %.2fx < %.1fx" domains speedup floor
          else say (Printf.sprintf "  gate skipped: runner has %d core(s) < %d domains" cores domains))
    [ (2, 1.8); (4, 3.0) ];
  if cores >= 2 then
    let r = Json.int (Json.field "recommended_domains" c) in
    check c (r > 1) "recommended_domains %d on a %d-core host" r cores

(* BENCH_crypto.json: measured on a named host, every row a finite,
   positive median inside its [min, max] spread, and the field add/sub
   rows of both backends present. *)
let crypto ~(say : string -> unit) (c : Json.cursor) : unit =
  check c (str "schema" c = "atom-bench-crypto/2") "schema %S" (str "schema" c);
  say (Printf.sprintf "host_cores=%d" (Json.int (Json.field "host_cores" c)));
  List.iter
    (fun (section, required) ->
      let rows = Json.list (Json.field section c) in
      List.iter
        (fun r ->
          let sec = num "seconds" r and lo = num "seconds_min" r and hi = num "seconds_max" r in
          check r (Float.is_finite sec && sec > 0.) "%s: seconds %g" (str "name" r) sec;
          check r (lo <= sec && sec <= hi) "%s: seconds %g outside [%g, %g]" (str "name" r) sec lo hi)
        rows;
      List.iter
        (fun name ->
          let r = find c (section ^ " row " ^ name) (fun r -> str "name" r = name) rows in
          say (Printf.sprintf "%-10s %.3e s" name (num "seconds" r)))
        required;
      say (Printf.sprintf "%s: %d rows" section (List.length rows)))
    [ ("primitives", [ "fp add"; "fp sub" ]); ("zp_test", [ "field add"; "field sub" ]); ("table3", []) ]

(* A merged cluster trace: lanes exactly "node 0".."node N-1" plus
   "coordinator", and each lane's tid-0 phase spans tile its wall time —
   no overlap beyond 1 µs, ≥ 95% coverage of [first start, last end]. *)
let trace ~(say : string -> unit) ~(nodes : int) (c : Json.cursor) : unit =
  let evs = Json.list (Json.field "traceEvents" c) in
  let lanes =
    List.sort compare
      (List.fold_left
         (fun acc e ->
           match Json.field_opt "name" e with
           | Some n when Json.value n = Json.Str "process_name" ->
               let pid = Json.int (Json.field "pid" e) in
               (pid, str "name" (Json.field "args" e)) :: List.remove_assoc pid acc
           | _ -> acc)
         [] evs)
  in
  let labels = List.sort_uniq compare (List.map snd lanes) in
  let expected = List.sort compare ("coordinator" :: List.init nodes (Printf.sprintf "node %d")) in
  check c (labels = expected) "lanes %s" (String.concat ", " labels);
  List.iter
    (fun (pid, label) ->
      let phase e =
        num "pid" e = float_of_int pid && str "ph" e = "X" && str "cat" e = "phase" && num "tid" e = 0.
      in
      let segs = List.sort compare (List.map (fun e -> (num "ts" e, num "dur" e)) (List.filter phase evs)) in
      check c (segs <> []) "%s: no phase spans" label;
      let last_end =
        List.fold_left
          (fun prev (ts, dur) ->
            check c (ts >= prev -. 1.0) "%s: overlap at %.1fus (prev end %.1fus)" label ts prev;
            ts +. dur)
          neg_infinity segs
      in
      let span = last_end -. fst (List.hd segs) in
      let cover = if span > 0. then List.fold_left (fun a (_, d) -> a +. d) 0. segs /. span else 1. in
      say (Printf.sprintf "%s: %d spans, %.1f%% coverage" label (List.length segs) (100. *. cover));
      check c (cover >= 0.95) "%s: coverage %.1f%% < 95%%" label (100. *. cover))
    lanes

(* The soak's error budget: every injected fault landed in an epoch whose
   plaintexts matched the reference. *)
let soak ~(say : string -> unit) (c : Json.cursor) : unit =
  let eb = Json.field "error_budget" c in
  say (String.trim (Json.pretty (Json.value eb)));
  check eb (str "verdict" eb = "met") "verdict %S" (str "verdict" eb);
  check eb (num "faults_unrecovered" eb = 0.) "unrecovered faults";
  check eb (num "mismatches" eb = 0.) "plaintext mismatches";
  let injected = num "faults_injected" eb and recovered = num "faults_recovered" eb in
  check eb (injected = recovered) "%g injected != %g recovered" injected recovered

(* The client fleet's exactly-once counters. *)
let clients ~(say : string -> unit) (c : Json.cursor) : unit =
  say (String.trim (Json.pretty (Json.value c)));
  check c (str "verdict" c = "ok") "verdict %S" (str "verdict" c);
  List.iter
    (fun (k, what) -> check c (num k c = 0.) "%s (%s = %g)" what k (num k c))
    [
      ("lost_published", "accepted submission lost from bulletin");
      ("ghost_published", "unaccounted post on bulletin"); ("duplicate_published", "duplicate post on bulletin");
      ("rejected_on_bulletin", "rejected submission published");
      ("lost_acks", "acks lost"); ("bad_sigs", "bulletin signatures failed");
      ("anomalies", "misbehaving submissions accepted");
    ];
  check c (num "epochs" c >= 3.) "only %g pipelined epochs" (num "epochs" c);
  let accepted = num "accepted" c and published = num "published" c in
  check c (accepted > 0. && accepted = published) "accepted %g, published %g" accepted published

let main (args : string list) : int =
  let say = print_endline and cores = Domain.recommended_domain_count () in
  let gate =
    match args with
    | [ "wire"; file ] -> Ok (file, wire ~say ~cores)
    | [ "parallel"; file ] -> Ok (file, parallel ~say ~cores)
    | [ "crypto"; file ] -> Ok (file, crypto ~say)
    | [ "trace"; file; n ] when Option.fold ~none:false ~some:(( <= ) 0) (int_of_string_opt n) ->
        Ok (file, trace ~say ~nodes:(int_of_string n))
    | [ "soak"; file ] -> Ok (file, soak ~say)
    | [ "clients"; file ] -> Ok (file, clients ~say)
    | _ -> Error "usage: gate (wire|parallel|crypto|soak|clients) FILE | gate trace FILE NODES"
  in
  match Result.bind gate (fun (file, g) -> Result.bind (Json.of_file file) (Json.decode g)) with
  | Ok () -> Printf.printf "gate %s: ok\n" (List.hd args); 0
  | Error m -> Printf.eprintf "gate FAILED: %s\n" m; 1
