(** The one JSON codec: value type, printers, strict total parser and
    path-carrying accessors for every artifact the tree writes or reads. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** a literal without fraction or exponent *)
  | Float of float
  | Str of string  (** arbitrary bytes; [\uXXXX] escapes decode to UTF-8 *)
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

val max_depth : int
(** 32: the most containers {!parse} accepts open at once. *)

(** {2 Printing}

    Floats print with the fewest of 15–17 significant digits that read
    back bit-exactly, never in a form that parses as [Int]; a nan or
    infinite float raises [Invalid_argument]. *)

val number : float -> t
(** [Float], or [Null] for a nan or infinite value. *)

val to_buffer : Buffer.t -> t -> unit
(** Compact form, no whitespace. *)

val to_string : t -> string

val pretty : t -> string
(** Indented form for committed files, newline-terminated: one member per
    line, except objects and arrays of scalars, which stay on one line. *)

val stream_object : Buffer.t -> (string * t) list -> string -> t Seq.t -> unit
(** [stream_object buf fields key items] writes [Obj (fields @ [key, Arr
    items])] with one item per line, printing each as [items] yields it. *)

val escape : string -> string
(** A string's body as a JSON literal, without the quotes. *)

(** {2 Parsing} *)

val parse : string -> (t, string) result
(** Total and strict: rejects trailing bytes, raw control bytes in
    strings, lone surrogates, number literals that overflow to ±inf and
    nesting deeper than {!max_depth}. Never raises. *)

val of_file : string -> (t, string) result
val member : string -> t -> t option

(** {2 Decoding}

    Accessors walk a {!cursor}; one that meets the wrong shape fails with
    the path it was reached by (e.g. [metrics[3].kind]), and {!decode}
    turns the failure into an [Error]. *)

type cursor

val decode : (cursor -> 'a) -> t -> ('a, string) result

val fail : cursor -> ('a, unit, string, 'b) format4 -> 'a
(** Fail at the cursor's path: for checks beyond shape. *)

val value : cursor -> t
val field : string -> cursor -> cursor
val field_opt : string -> cursor -> cursor option

val keys : string list -> cursor -> unit
(** The object has exactly these member names. *)

val assoc : cursor -> (string * cursor) list
val list : cursor -> cursor list
val int : cursor -> int
val float : cursor -> float
(** An [Int] or a [Float]. *)

val string : cursor -> string
val bool : cursor -> bool
