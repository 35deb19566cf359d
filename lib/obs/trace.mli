(** Span tracing against a pluggable clock, exported as Chrome trace_event
    JSON (loadable in Perfetto / chrome://tracing) and as plain-text
    per-phase breakdowns.

    The clock is bound by the host: the discrete-event engine binds its
    virtual [now], making traces a pure function of (seed, plan) — two
    identical runs serialize byte-identically; a bench may bind a wall
    clock instead. Tracks (tid) are protocol entities (one per group
    pipeline), labelled with {!thread_name} metadata. *)

type arg = S of string | I of int | F of float

type event = {
  name : string;
  cat : string;
  ph : char;  (** 'X' complete span, 'i' instant, 'M' metadata *)
  ts : float;  (** seconds on the bound clock *)
  dur : float;  (** seconds; 0 unless [ph = 'X'] *)
  tid : int;
  args : (string * arg) list;
}

type t

val create : unit -> t
(** A live tracer. Its clock reads 0 until {!set_clock}. *)

val noop : t
(** Records nothing; every operation is a cheap no-op. *)

val enabled : t -> bool
val set_clock : t -> (unit -> float) -> unit
val now : t -> float

type span

val begin_span : t -> ?cat:string -> ?args:(string * arg) list -> tid:int -> string -> span
val end_span : t -> span -> unit
(** Emits the completed span; idempotent. *)

val with_span : t -> ?cat:string -> ?args:(string * arg) list -> tid:int -> string -> (unit -> 'a) -> 'a

val instant : t -> ?cat:string -> ?args:(string * arg) list -> tid:int -> string -> unit
(** A point event (e.g. a fault injection). *)

val thread_name : t -> tid:int -> string -> unit
(** Label a track; rendered as the lane name by trace viewers. *)

val events : t -> event list
(** In emission order. *)

val event_count : t -> int
val clear : t -> unit

val open_phases : t -> (int * string * float) list
(** The live {!Phase} trackers as [(tid, phase, since)], tid-sorted — what
    every track is doing right now. This is the open-span summary a stats
    snapshot carries; closed spans are in {!events}. *)

val to_chrome_json : t -> string
(** The full trace as [{"traceEvents": [...]}] with microsecond
    timestamps. Deterministic: equal event lists serialize to equal
    bytes. *)

(** One process's event buffer in a merged cluster trace: a Chrome pid
    (its own Perfetto lane group), a process_name label, and a clock
    offset added to every timestamp so all lanes share the coordinator's
    timebase (offsets come from the coordinator's handshake receipt
    times). *)
type lane = {
  lane_pid : int;
  lane_name : string;
  lane_offset : float;  (** seconds, added to every event timestamp *)
  lane_events : event list;
}

val to_chrome_json_lanes : lane list -> string
(** Merge per-process buffers into one Chrome trace: each lane's events
    under its own pid with a process_name metadata record, timestamps
    shifted by the lane offset. Deterministic for equal inputs. *)

val json_escape : string -> string
(** {!Json.escape}: a string's body as a JSON literal. *)

(** Exclusive phase accounting: a tracker keeps its track inside exactly
    one leaf phase at every instant, so a track's phase durations tile its
    lifetime — no gaps, no double counting. Consecutive segments of the
    same phase are merged and zero-length segments dropped. *)
module Phase : sig
  type tracker

  val cat : string
  (** The category marking phase spans ("phase"); {!Breakdown} aggregates
      only these. *)

  val start : t -> ?args:(string * arg) list -> tid:int -> string -> tracker
  val current : tracker -> string

  val switch : tracker -> ?args:(string * arg) list -> string -> unit
  (** Close the running segment at the clock's now and enter the named
      phase. No-op when already in it. *)

  val stop : tracker -> unit
  (** Close the final segment. The tracker is dead afterwards. *)
end

(** Per-phase aggregation over recorded phase spans. *)
module Breakdown : sig
  type track = {
    tid : int;
    phases : (string * float) list;  (** phase → total seconds, canonical order *)
    total : float;
    t_end : float;  (** close time of the track's last phase segment *)
  }

  val tracks : event list -> track list

  val critical : lane list -> (string * track) option
  (** Across every lane's tracks (lane offsets applied to [t_end]): the
      lane name and track whose final phase segment closes last — the
      chain that determined the round's end. Its [total] equals the round
      latency when phases tile the track (see {!Phase}) and the lane's
      clock starts with the round. *)

  val render : latency:float -> lane list -> string
  (** Plain-text table: critical-track seconds and share of [latency] per
      phase, totals over all lanes' tracks, and a coverage line showing
      the sum-vs-latency invariant. *)
end
