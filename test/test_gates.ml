(* The CI gates: each accepts a passing document and rejects one doctored
   copy per assertion it makes. *)

module Json = Atom_obs.Json
module Gate = Atom_gate.Gate

type step = K of string | At of int

(* [doc] with the value at [path] replaced by [v]. *)
let rec set (path : step list) (v : Json.t) (doc : Json.t) : Json.t =
  match (path, doc) with
  | [], _ -> v
  | K k :: rest, Json.Obj kvs -> Json.Obj (List.map (fun (k', x) -> (k', if k' = k then set rest v x else x)) kvs)
  | At i :: rest, Json.Arr xs -> Json.Arr (List.mapi (fun j x -> if j = i then set rest v x else x) xs)
  | _ -> invalid_arg "set"

let i n = Json.Int n
let f x = Json.Float x
let s x = Json.Str x

let wire_ok =
  Json.Obj
    [
      ("schema", s "atom-bench-wire/2"); ("host_cores", i 2);
      ( "items",
        Json.Arr
          [
            Json.Obj [ ("name", s "batch encode"); ("validation", s "none"); ("mb_per_s", f 25.) ];
            Json.Obj [ ("name", s "batch decode batched"); ("validation", s "batched"); ("mb_per_s", f 30.) ];
          ] );
    ]

let parallel_ok =
  let row d speedup = Json.Obj [ ("domains", i d); ("speedup", f speedup); ("spread", f 0.02) ] in
  Json.Obj
    [
      ("schema", s "atom-bench-parallel/2"); ("recommended_domains", i 2); ("host_cores", i 4);
      ( "workloads",
        Json.Arr
          [
            Json.Obj
              [
                ("name", s "shuffle-verify n=1024"); ("identical", Json.Bool true);
                ("results", Json.Arr [ row 1 1.; row 2 1.9; row 4 3.2 ]);
              ];
          ] );
    ]

let crypto_ok =
  let row name sec = Json.Obj [ ("name", s name); ("seconds", f sec); ("seconds_min", f (sec *. 0.9)); ("seconds_max", f (sec *. 1.1)) ] in
  Json.Obj
    [
      ("schema", s "atom-bench-crypto/2"); ("group", s "p256"); ("host_cores", i 2); ("reps", i 5);
      ("primitives", Json.Arr [ row "fp mul" 1.5e-7; row "fp add" 2e-8; row "fp sub" 2e-8 ]);
      ("zp_test", Json.Arr [ row "field mul" 7e-8; row "field add" 1e-8; row "field sub" 1e-8 ]);
      ("table3", Json.Arr [ row "Enc" 4e-4 ]);
    ]

(* [doc] without its top-level member [k]. *)
let drop k = function Json.Obj kvs -> Json.Obj (List.remove_assoc k kvs) | _ -> invalid_arg "drop"

(* Eight nodes plus the coordinator, each lane's tid-0 phase spans tiling
   [0, 300] µs. *)
let trace_ok =
  let lane pid name =
    let span ts dur = Json.Obj [ ("name", s "verify"); ("cat", s "phase"); ("ph", s "X"); ("ts", f ts); ("dur", f dur); ("pid", i pid); ("tid", i 0) ] in
    [
      Json.Obj [ ("name", s "process_name"); ("cat", s "atom"); ("ph", s "M"); ("ts", f 0.); ("pid", i pid); ("tid", i 0); ("args", Json.Obj [ ("name", s name) ]) ];
      span 0. 100.; span 100. 100.; span 200. 100.;
    ]
  in
  Json.Obj
    [
      ("displayTimeUnit", s "ms");
      ("traceEvents", Json.Arr (List.concat (List.init 8 (fun n -> lane (n + 1) (Printf.sprintf "node %d" n)) @ [ lane 9 "coordinator" ])));
    ]

(* Lane [l]'s [k]-th span sits at index 4l + 1 + k. *)
let span_of l k = [ K "traceEvents"; At ((4 * l) + 1 + k) ]

let soak_ok =
  Json.Obj
    [
      ( "error_budget",
        Json.Obj
          [
            ("faults_injected", i 5); ("faults_recovered", i 5); ("faults_unrecovered", i 0); ("mismatches", i 0);
            ("verdict", s "met");
          ] );
    ]

let clients_ok =
  Json.Obj
    [
      ("schema", s "atom-clients/1"); ("epochs", i 3); ("accepted", i 10); ("published", i 10);
      ("lost_acks", i 0); ("lost_published", i 0); ("ghost_published", i 0); ("duplicate_published", i 0);
      ("rejected_on_bulletin", i 0); ("anomalies", i 0); ("bad_sigs", i 0); ("verdict", s "ok");
    ]

let say _ = ()

(* (gate, label, document, passes) *)
let cases : (string * string * Json.t * bool) list =
  let counters =
    [ "lost_published"; "ghost_published"; "duplicate_published"; "rejected_on_bulletin"; "lost_acks"; "bad_sigs"; "anomalies" ]
  in
  [
    ("wire", "ok", wire_ok, true);
    ("wire", "schema", set [ K "schema" ] (s "atom-bench-wire/1") wire_ok, false);
    ("wire", "labels", set [ K "items"; At 1; K "validation" ] (s "eager") wire_ok, false);
    ("wire", "bandwidth", set [ K "items"; At 1; K "mb_per_s" ] (f 24.9) wire_ok, false);
    ("parallel", "ok", parallel_ok, true);
    ("parallel", "two-core-skips-4", set [ K "host_cores" ] (i 2) (set [ K "workloads"; At 0; K "results"; At 2; K "speedup" ] (f 1.5) parallel_ok), true);
    ("parallel", "identical", set [ K "workloads"; At 0; K "identical" ] (Json.Bool false) parallel_ok, false);
    ("parallel", "speedup-2", set [ K "workloads"; At 0; K "results"; At 1; K "speedup" ] (f 1.79) parallel_ok, false);
    ("parallel", "speedup-4", set [ K "workloads"; At 0; K "results"; At 2; K "speedup" ] (f 2.99) parallel_ok, false);
    ("parallel", "recommended", set [ K "recommended_domains" ] (i 1) parallel_ok, false);
    ("crypto", "ok", crypto_ok, true);
    ("crypto", "schema", set [ K "schema" ] (s "atom-bench-crypto/1") crypto_ok, false);
    ("crypto", "host_cores", drop "host_cores" crypto_ok, false);
    ("crypto", "zero", set [ K "primitives"; At 0; K "seconds" ] (f 0.) crypto_ok, false);
    ("crypto", "nan", set [ K "zp_test"; At 0; K "seconds" ] (f Float.nan) crypto_ok, false);
    ("crypto", "missing", set [ K "table3"; At 0; K "seconds" ] Json.Null crypto_ok, false);
    ("crypto", "below-min", set [ K "table3"; At 0; K "seconds_min" ] (f 5e-4) crypto_ok, false);
    ("crypto", "above-max", set [ K "primitives"; At 2; K "seconds_max" ] (f 1e-8) crypto_ok, false);
    ("crypto", "fp add", set [ K "primitives"; At 1; K "name" ] (s "fp neg") crypto_ok, false);
    ("crypto", "field sub", set [ K "zp_test"; At 2; K "name" ] (s "field neg") crypto_ok, false);
    ("trace", "ok", trace_ok, true);
    ("trace", "lanes", set [ K "traceEvents"; At 4; K "args"; K "name" ] (s "node 9") trace_ok, false);
    ("trace", "no-spans", List.fold_left (fun d k -> set (span_of 8 k @ [ K "cat" ]) (s "step") d) trace_ok [ 0; 1; 2 ], false);
    ("trace", "overlap", set (span_of 3 1 @ [ K "ts" ]) (f 98.5) trace_ok, false);
    ("trace", "coverage", set (span_of 5 1 @ [ K "dur" ]) (f 84.) trace_ok, false);
    ("soak", "ok", soak_ok, true);
    ("soak", "verdict", set [ K "error_budget"; K "verdict" ] (s "missed") soak_ok, false);
    ("soak", "unrecovered", set [ K "error_budget"; K "faults_unrecovered" ] (i 1) soak_ok, false);
    ("soak", "mismatches", set [ K "error_budget"; K "mismatches" ] (i 1) soak_ok, false);
    ("soak", "recovered", set [ K "error_budget"; K "faults_recovered" ] (i 4) soak_ok, false);
    ("clients", "ok", clients_ok, true);
    ("clients", "verdict", set [ K "verdict" ] (s "failed") clients_ok, false);
  ]
  @ List.map (fun k -> ("clients", k, set [ K k ] (i 1) clients_ok, false)) counters
  @ [
      ("clients", "epochs", set [ K "epochs" ] (i 2) clients_ok, false);
      ("clients", "none-accepted", set [ K "accepted" ] (i 0) (set [ K "published" ] (i 0) clients_ok), false);
      ("clients", "published", set [ K "published" ] (i 9) clients_ok, false);
    ]

let gate = function
  | "wire" -> Gate.wire ~say ~cores:1
  | "parallel" -> Gate.parallel ~say ~cores:1
  | "crypto" -> Gate.crypto ~say
  | "trace" -> Gate.trace ~say ~nodes:8
  | "soak" -> Gate.soak ~say
  | _ -> Gate.clients ~say

let test_cases () =
  List.iter
    (fun (name, label, doc, passes) ->
      match (Json.decode (gate name) doc, passes) with
      | Ok (), true | Error _, false -> ()
      | Ok (), false -> Alcotest.failf "%s gate accepted doctored %s" name label
      | Error e, true -> Alcotest.failf "%s gate rejected %s: %s" name label e)
    cases

(* Without host_cores the parallel gate falls back to the caller's core
   count: one core skips both floors and the recommendation check. *)
let test_core_fallback () =
  let bare = drop "host_cores" (set [ K "workloads"; At 0; K "results"; At 1; K "speedup" ] (f 1.) parallel_ok) in
  let run cores = Json.decode (Gate.parallel ~say ~cores) bare in
  Alcotest.(check bool) "1 core skips" true (Result.is_ok (run 1));
  Alcotest.(check bool) "2 cores gate" true (Result.is_error (run 2))

let suite =
  ( "gates",
    [
      Alcotest.test_case "pass and doctored inputs" `Quick test_cases;
      Alcotest.test_case "parallel core fallback" `Quick test_core_fallback;
    ] )
