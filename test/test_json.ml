(* The one JSON codec: bit-exact round trips, totality on damaged input,
   the depth bound, the escapes, and every JSON file the repository
   commits. *)

module Json = Atom_obs.Json

(* Structural equality with floats compared by their bits, so -0.0 and
   0.0 differ and an Int never equals a Float. *)
let rec same (a : Json.t) (b : Json.t) : bool =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Arr xs, Json.Arr ys -> List.length xs = List.length ys && List.for_all2 same xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys && List.for_all2 (fun (k, x) (l, y) -> k = l && same x y) xs ys
  | _ -> a = b

let gen : Json.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let finite =
    map Int64.float_of_bits int64 >>= fun f ->
    if Float.is_finite f then return f else return 0.
  in
  let float =
    oneof
      [
        finite; float_range (-1e6) 1e6;
        oneofl [ -0.0; 0.0; 5e-324; -2.2250738585072009e-308; Float.min_float; Float.max_float; 1e15; 2.; 0.1 ];
      ]
  in
  let scalar =
    oneof
      [
        return Json.Null; map (fun b -> Json.Bool b) bool; map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) float; map (fun s -> Json.Str s) (string_size ~gen:char (0 -- 12));
      ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           oneof
             [
               scalar; map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n - 1)));
               map (fun l -> Json.Obj l) (list_size (0 -- 4) (pair (string_size ~gen:char (0 -- 6)) (self (n - 1))));
             ])

let roundtrip =
  QCheck2.Test.make ~name:"json round trip (compact and indented)" ~count:500
    ~print:Json.to_string gen (fun v ->
      let back s = match Json.parse s with Ok w -> same v w | Error _ -> false in
      back (Json.to_string v) && back (Json.pretty v))

(* A document exercising every construct the parser knows. *)
let sample =
  {|{"s":"a\"b\\c\/\b\f\n\r\t\u0001é😀","i":-12,"z":0,"f":[1.5,-0.0,2e-3,1E+2],|}
  ^ {|"n":null,"t":true,"no":false,"nest":[[],{},[{"k":[1]}]]}|}

let test_total () =
  (match Json.parse sample with Ok _ -> () | Error e -> Alcotest.failf "sample rejected: %s" e);
  let n = String.length sample in
  for i = 0 to n - 1 do
    (* Every proper prefix and every value of every byte: Error or Ok, never
       an exception. *)
    ignore (Json.parse (String.sub sample 0 i));
    for c = 0 to 255 do
      let b = Bytes.of_string sample in
      Bytes.set b i (Char.chr c);
      ignore (Json.parse (Bytes.to_string b))
    done
  done;
  Alcotest.(check bool) "prefix of an object is an error" true
    (Result.is_error (Json.parse (String.sub sample 0 (n - 1))))

let test_depth () =
  let nested k = String.make k '[' ^ String.make k ']' in
  Alcotest.(check bool) "32 deep accepted" true (Result.is_ok (Json.parse (nested Json.max_depth)));
  Alcotest.(check bool) "33 deep rejected" true (Result.is_error (Json.parse (nested (Json.max_depth + 1))))

let test_strict () =
  let rejects what s = Alcotest.(check bool) what true (Result.is_error (Json.parse s)) in
  rejects "trailing bytes" "{} x";
  rejects "raw control byte" "\"a\001b\"";
  rejects "overflowing literal" "1e999";
  rejects "overflowing negative literal" "[-1e400]";
  rejects "lone high surrogate" {|"\ud83d"|};
  rejects "high surrogate then non-low" {|"\ud83dA"|};
  rejects "lone low surrogate" {|"\ude00"|};
  rejects "leading zero" "01";
  rejects "trailing comma" "[1,]";
  rejects "bare fraction" ".5";
  Alcotest.(check bool) "surrogate pair is one 4-byte sequence" true
    (Json.parse {|"\ud83d\ude00"|} = Ok (Json.Str "\xf0\x9f\x98\x80"));
  Alcotest.(check bool) "escapes decode in digit order" true
    (Json.parse {|"\u0001\u1000\u00e9"|} = Ok (Json.Str "\001\xe1\x80\x80\xc3\xa9"));
  Alcotest.(check bool) "int and float literals stay apart" true
    (Json.parse "[2,2.0,2e0,4611686018427387904]"
    = Ok (Json.Arr [ Json.Int 2; Json.Float 2.; Json.Float 2.; Json.Float 4611686018427387904. ]));
  Alcotest.(check string) "integral float prints as a float" "[2.0,-0.0,0.1,1e+100]"
    (Json.to_string (Json.Arr [ Json.Float 2.; Json.Float (-0.); Json.Float 0.1; Json.Float 1e100 ]));
  Alcotest.(check string) "number maps non-finite to null" "[null,null,1.5]"
    (Json.to_string (Json.Arr [ Json.number Float.nan; Json.number Float.infinity; Json.number 1.5 ]));
  Alcotest.check_raises "nan has no spelling" (Invalid_argument "Json: non-finite number") (fun () ->
      ignore (Json.to_string (Json.Float Float.nan)))

let test_paths () =
  let doc = {|{"metrics":[{"kind":"counter"},{"kind":"counter"},{"kind":"x"},{"kind":7}]}|} in
  let kinds c = List.map (fun m -> Json.string (Json.field "kind" m)) (Json.list (Json.field "metrics" c)) in
  Alcotest.(check (result (list string) string))
    "error names the path" (Error "metrics[3].kind: expected a string") (Result.bind (Json.parse doc) (Json.decode kinds));
  Alcotest.(check (result unit string))
    "exact key set" (Error "unknown field \"b\"")
    (Result.bind (Json.parse {|{"a":1,"b":2}|}) (Json.decode (Json.keys [ "a" ])));
  Alcotest.(check (result unit string))
    "missing key" (Error "missing field \"c\"")
    (Result.bind (Json.parse {|{"a":1}|}) (Json.decode (Json.keys [ "a"; "c" ])))

(* Every JSON file the repository commits, read-only, plus a snapshot the
   previous encoder wrote. *)
let committed =
  [
    "../BENCH_crypto.json"; "../BENCH_wire.json"; "../BENCH_parallel.json"; "../BENCH_ingest.json";
    "../roundbench/BENCH_round.json"; "../BENCHMARK.json"; "data/atom-metrics-1.json";
  ]

let test_committed () =
  List.iter
    (fun path ->
      match Json.of_file path with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.failf "%s: not an object" path
      | Error e -> Alcotest.failf "%s" e)
    committed;
  match Atom_obs.Snapshot.of_json (In_channel.with_open_bin "data/atom-metrics-1.json" In_channel.input_all) with
  | Error e -> Alcotest.failf "older snapshot: %s" e
  | Ok s ->
      Alcotest.(check int) "node id" 5 s.Atom_obs.Snapshot.node_id;
      Alcotest.(check (float 0.)) "counter" 1. (Atom_obs.Snapshot.counter_value s "round.count");
      let args = List.concat_map (fun ev -> ev.Atom_obs.Trace.args) s.Atom_obs.Snapshot.events in
      Alcotest.(check bool) "trace args keep I and F" true
        (List.assoc "machine" args = Atom_obs.Trace.I 3 && List.assoc "g" args = Atom_obs.Trace.F 2.)

let suite =
  ( "json",
    [
      QCheck_alcotest.to_alcotest roundtrip;
      Alcotest.test_case "total on prefixes and byte flips" `Quick test_total;
      Alcotest.test_case "depth bound" `Quick test_depth;
      Alcotest.test_case "strict literals and escapes" `Quick test_strict;
      Alcotest.test_case "decode error paths" `Quick test_paths;
      Alcotest.test_case "committed files parse" `Quick test_committed;
    ] )
