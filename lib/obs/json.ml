(* The one JSON codec: every artifact the tree writes or reads (stats
   snapshots, Chrome traces, BENCH_*.json files, soak and client-fleet
   summaries, the CI gates) goes through this value type, printer and
   parser.

   The parser mirrors the wire layer's discipline: total (any input gives
   [Ok] or [Error], never an exception), depth-bounded, and strict
   (trailing bytes, raw control bytes in strings, lone surrogates and
   number literals that overflow to ±inf are errors). Literals keep their
   int/float distinction, and floats print with enough digits to read
   back bit-exactly, never in a form that parses as [Int]. *)

type t =
  | Null | Bool of bool | Int of int | Float of float | Str of string | Arr of t list | Obj of (string * t) list

let max_depth = 32

(* ---- printing ---- *)

let escape_to (buf : Buffer.t) (s : string) : unit =
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape (s : string) : string = let buf = Buffer.create (String.length s) in escape_to buf s; Buffer.contents buf

let quote (buf : Buffer.t) (s : string) : unit =
  Buffer.add_char buf '"';
  escape_to buf s;
  Buffer.add_char buf '"'

let number (f : float) : t = if Float.is_finite f then Float f else Null

(* The fewest of 15, 16 or 17 significant digits that read back to the
   same bits; a '.0' marks an integral value as a float. *)
let float_repr (f : float) : string =
  if not (Float.is_finite f) then invalid_arg "Json: non-finite number";
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else shortest (p + 1)
  in
  let s = shortest 15 in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

(* [pretty] breaks a container holding a container into one member per
   line, indented; every other container stays on one line, with a space
   after each ',' and ':'. *)
let rec print ~(pretty : bool) ~(indent : int) (buf : Buffer.t) (v : t) : unit =
  let scalar = function Arr _ | Obj _ -> false | _ -> true in
  let items opening closing ~flat f xs =
    let newline pad = Buffer.add_char buf '\n'; Buffer.add_string buf (String.make pad ' ') in
    Buffer.add_char buf opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        if not flat then newline (indent + 2) else if pretty && i > 0 then Buffer.add_char buf ' ';
        f x)
      xs;
    if not flat then newline indent;
    Buffer.add_char buf closing
  in
  let inner = print ~pretty ~indent:(indent + 2) buf in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s -> quote buf s
  | Arr vs -> items '[' ']' ~flat:((not pretty) || List.for_all scalar vs) inner vs
  | Obj kvs ->
      items '{' '}'
        ~flat:((not pretty) || List.for_all (fun (_, v) -> scalar v) kvs)
        (fun (k, v) -> quote buf k; Buffer.add_string buf (if pretty then ": " else ":"); inner v)
        kvs

let to_buffer (buf : Buffer.t) (v : t) : unit = print ~pretty:false ~indent:0 buf v

let to_string (v : t) : string =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let pretty (v : t) : string =
  let buf = Buffer.create 1024 in
  print ~pretty:true ~indent:0 buf v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let stream_object (buf : Buffer.t) (fields : (string * t) list) (key : string) (items : t Seq.t) : unit =
  Buffer.add_char buf '{';
  List.iter (fun (k, v) -> quote buf k; Buffer.add_char buf ':'; to_buffer buf v; Buffer.add_char buf ',') fields;
  quote buf key;
  Buffer.add_string buf ":[\n";
  Seq.iteri (fun i v -> if i > 0 then Buffer.add_string buf ",\n"; to_buffer buf v) items;
  Buffer.add_string buf "\n]}\n"

(* ---- parsing ---- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let utf8 (buf : Buffer.t) (cp : int) : unit =
  let add c = Buffer.add_char buf (Char.chr c) in
  let cont shift = add (0x80 lor ((cp lsr shift) land 0x3f)) in
  if cp < 0x80 then add cp
  else if cp < 0x800 then (add (0xc0 lor (cp lsr 6)); cont 0)
  else if cp < 0x10000 then (add (0xe0 lor (cp lsr 12)); cont 6; cont 0)
  else (add (0xf0 lor (cp lsr 18)); cont 12; cont 6; cont 0)

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let eat c = if peek () = Some c then incr pos else bad "expected %C at byte %d" c !pos in
  let rec ws () = match peek () with Some (' ' | '\t' | '\n' | '\r') -> incr pos; ws () | _ -> () in
  let hex4 () =
    if !pos + 4 > n then bad "short \\u escape at byte %d" !pos;
    let v = ref 0 in
    for i = 0 to 3 do
      let d =
        match s.[!pos + i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | c -> bad "bad hex digit %C at byte %d" c (!pos + i)
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  (* A high surrogate must be followed by an escaped low one; the pair is
     one code point. *)
  let code_point () =
    let low cp = cp >= 0xdc00 && cp <= 0xdfff in
    let at = !pos - 2 in
    let cp = hex4 () in
    if low cp then bad "lone low surrogate at byte %d" at;
    if cp < 0xd800 || cp > 0xdbff then cp
    else begin
      if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then bad "lone high surrogate at byte %d" at;
      pos := !pos + 2;
      let lo = hex4 () in
      if not (low lo) then bad "lone high surrogate at byte %d" at;
      0x10000 + (((cp - 0xd800) lsl 10) lor (lo - 0xdc00))
    end
  in
  let str () =
    eat '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> bad "unterminated string"
      | Some '"' -> incr pos; Buffer.contents buf
      | Some '\\' ->
          incr pos;
          let e = peek () in
          incr pos;
          (match e with
          | Some (('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') as c) ->
              Buffer.add_char buf
                (match c with 'b' -> '\b' | 'f' -> '\012' | 'n' -> '\n' | 'r' -> '\r' | 't' -> '\t' | c -> c)
          | Some 'u' -> utf8 buf (code_point ())
          | _ -> bad "bad escape at byte %d" (!pos - 2));
          go ()
      | Some c when Char.code c < 0x20 -> bad "raw control byte in string at byte %d" !pos
      | Some c -> incr pos; Buffer.add_char buf c; go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let skip_if p = match peek () with Some c when p c -> incr pos; true | _ -> false in
    let digits () =
      let d0 = !pos in
      while skip_if (fun c -> c >= '0' && c <= '9') do () done;
      if !pos = d0 then bad "bad number at byte %d" start
    in
    ignore (skip_if (( = ) '-'));
    if not (skip_if (( = ) '0')) then digits ();
    let frac = skip_if (( = ) '.') in
    if frac then digits ();
    let exp = skip_if (fun c -> c = 'e' || c = 'E') in
    if exp then (ignore (skip_if (fun c -> c = '+' || c = '-')); digits ());
    let lit = String.sub s start (!pos - start) in
    match if frac || exp then None else int_of_string_opt lit with
    | Some i -> Int i
    | None ->
        let f = float_of_string lit in
        if Float.is_finite f then Float f else bad "number %s overflows at byte %d" lit start
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else bad "bad literal at byte %d" !pos
  in
  (* [depth] counts the containers enclosing the value. *)
  let rec value depth =
    ws ();
    let container closing item =
      if depth >= max_depth then bad "nesting deeper than %d" max_depth;
      incr pos;
      ws ();
      if peek () = Some closing then (incr pos; [])
      else
        let rec more acc =
          let acc = item () :: acc in
          ws ();
          if peek () = Some ',' then (incr pos; more acc) else (eat closing; List.rev acc)
        in
        more []
    in
    let member () =
      ws ();
      let k = str () in
      ws ();
      eat ':';
      (k, value (depth + 1))
    in
    match peek () with
    | Some '{' -> Obj (container '}' member)
    | Some '[' -> Arr (container ']' (fun () -> value (depth + 1)))
    | Some '"' -> Str (str ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some _ -> bad "unexpected byte at %d" !pos
    | None -> bad "unexpected end of input"
  in
  match
    let v = value 0 in
    ws ();
    if !pos < n then bad "trailing bytes at byte %d" !pos;
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m

let of_file (path : string) : (t, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Result.map_error (fun m -> path ^ ": " ^ m) (parse s)
  | exception Sys_error m -> Error m

let member (k : string) (v : t) : t option = match v with Obj kvs -> List.assoc_opt k kvs | _ -> None

(* ---- decoding ---- *)

type cursor = { at : string; v : t }

let fail (c : cursor) fmt = Printf.ksprintf (fun m -> raise (Bad (if c.at = "" then m else c.at ^ ": " ^ m))) fmt

let decode (f : cursor -> 'a) (v : t) : ('a, string) result =
  match f { at = ""; v } with x -> Ok x | exception Bad m -> Error m

let value (c : cursor) : t = c.v
let path (c : cursor) (k : string) : string = if c.at = "" then k else c.at ^ "." ^ k
let members (c : cursor) : (string * t) list = match c.v with Obj kvs -> kvs | _ -> fail c "expected an object"
let assoc (c : cursor) : (string * cursor) list = List.map (fun (k, v) -> (k, { at = path c k; v })) (members c)

let field_opt (k : string) (c : cursor) : cursor option =
  Option.map (fun v -> { at = path c k; v }) (List.assoc_opt k (members c))

let field (k : string) (c : cursor) : cursor =
  match field_opt k c with Some f -> f | None -> fail c "missing field %S" k

let keys (ks : string list) (c : cursor) : unit =
  let present = members c in
  List.iter (fun (k, _) -> if not (List.mem k ks) then fail c "unknown field %S" k) present;
  List.iter (fun k -> if not (List.mem_assoc k present) then fail c "missing field %S" k) ks

let list (c : cursor) : cursor list =
  match c.v with
  | Arr vs -> List.mapi (fun i v -> { at = Printf.sprintf "%s[%d]" c.at i; v }) vs
  | _ -> fail c "expected an array"

let int (c : cursor) : int = match c.v with Int i -> i | _ -> fail c "expected an integer"
let float (c : cursor) : float =
  match c.v with Int i -> float_of_int i | Float f -> f | _ -> fail c "expected a number"
let string (c : cursor) : string = match c.v with Str s -> s | _ -> fail c "expected a string"
let bool (c : cursor) : bool = match c.v with Bool b -> b | _ -> fail c "expected a boolean"
