(* Just enough JSON for the benchmark's own files: a value type, a compact
   printer, and a strict parser (for [compare] and for reading the
   metric list out of BENCHMARK.json). *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

let escape (s : string) : string = Atom_obs.Trace.json_escape s

(* Integers print without a fraction; everything else with all the
   digits of the double. Non-finite numbers have no JSON spelling. *)
let num_to_string (f : float) : string =
  if not (Float.is_finite f) then invalid_arg "Json: non-finite number"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string (v : t) : string =
  match v with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> num_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
      ^ "}"

(* Multi-line form for committed files: one member per line, except
   objects and arrays of scalars, which stay on one line. *)
let rec pretty ?(indent = 0) (v : t) : string =
  let scalar = function Obj _ | Arr _ -> false | _ -> true in
  let block opening closing items =
    let pad = String.make (indent + 2) ' ' in
    opening ^ "\n"
    ^ String.concat ",\n" (List.map (fun item -> pad ^ item) items)
    ^ "\n" ^ String.make indent ' ' ^ closing
  in
  match v with
  | Obj kvs when not (List.for_all (fun (_, v) -> scalar v) kvs) ->
      block "{" "}"
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ pretty ~indent:(indent + 2) v) kvs)
  | Arr vs when not (List.for_all scalar vs) ->
      block "[" "]" (List.map (pretty ~indent:(indent + 2)) vs)
  | v -> to_string v

exception Bad of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Bad (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\n' | '\r' | '\t' -> true | _ -> false) then begin
      incr pos;
      ws ()
    end
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code) else Buffer.add_char b '?'
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
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
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value depth =
    if depth > 64 then fail "nesting too deep";
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Obj [])
        else begin
          let rec fields acc =
            ws ();
            let k = string_ () in
            ws ();
            expect ':';
            let v = value (depth + 1) in
            ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
        end
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (incr pos; Arr [])
        else begin
          let rec items acc =
            let v = value (depth + 1) in
            ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
        end
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (number ())
  in
  let v = value 0 in
  ws ();
  if !pos <> n then fail "trailing bytes";
  v

let of_file (path : string) : t =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  try parse s with Bad m -> failwith (Printf.sprintf "%s: %s" path m)

let member (k : string) (v : t) : t =
  match v with Obj kvs -> Option.value ~default:Null (List.assoc_opt k kvs) | _ -> Null

let to_num (v : t) : float = match v with Num f -> f | _ -> nan
let to_str (v : t) : string = match v with Str s -> s | _ -> ""
let to_list (v : t) : t list = match v with Arr vs -> vs | _ -> []
let to_assoc (v : t) : (string * t) list = match v with Obj kvs -> kvs | _ -> []
