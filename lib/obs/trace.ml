(* Span-based tracing against a pluggable clock.

   The clock is whatever the host binds — the discrete-event engine's
   virtual [now] for simulated runs (making traces a pure function of
   (seed, plan): two identical runs serialize byte-identically), or a wall
   clock for the crypto bench. Spans are Chrome trace_event
   "complete" events ('X': ts + dur); tracks (tid) are protocol entities —
   one per group pipeline, one per coordinator — named via metadata events
   so Perfetto renders a labelled lane per group.

   [Phase] is the accounting discipline on top: a phase tracker keeps its
   track inside exactly one leaf phase span at every instant, so the phase
   durations of a track tile its lifetime with no gaps or overlap — the
   per-phase breakdown of the round-critical track must sum to the round
   latency by construction. *)

type arg = S of string | I of int | F of float

type event = {
  name : string;
  cat : string;
  ph : char; (* 'X' complete span, 'i' instant, 'M' metadata *)
  ts : float; (* seconds on the bound clock *)
  dur : float; (* seconds; 0 unless ph = 'X' *)
  tid : int;
  args : (string * arg) list;
}

type t = {
  enabled : bool;
  mutable clock : unit -> float;
  mutable rev_events : event list;
  mutable count : int;
  (* Live phase trackers, tid -> (current phase, entered at). This is the
     "open span" surface a stats snapshot reports: closed spans are in
     [rev_events]; what the track is doing *right now* lives here. *)
  open_tbl : (int, string * float) Hashtbl.t;
}

let create () : t =
  { enabled = true; clock = (fun () -> 0.); rev_events = []; count = 0; open_tbl = Hashtbl.create 8 }

let noop : t =
  { enabled = false; clock = (fun () -> 0.); rev_events = []; count = 0; open_tbl = Hashtbl.create 1 }
let enabled (t : t) : bool = t.enabled
let set_clock (t : t) (clock : unit -> float) : unit = if t.enabled then t.clock <- clock
let now (t : t) : float = t.clock ()

let emit (t : t) (ev : event) : unit =
  t.rev_events <- ev :: t.rev_events;
  t.count <- t.count + 1

let events (t : t) : event list = List.rev t.rev_events
let event_count (t : t) : int = t.count

let clear (t : t) : unit =
  t.rev_events <- [];
  t.count <- 0

(* (tid, phase, since) for every live phase tracker, tid-sorted. *)
let open_phases (t : t) : (int * string * float) list =
  Hashtbl.fold (fun tid (name, since) acc -> (tid, name, since) :: acc) t.open_tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_start : float;
  sp_args : (string * arg) list;
  mutable sp_closed : bool;
}

let null_span = { sp_name = ""; sp_cat = ""; sp_tid = 0; sp_start = 0.; sp_args = []; sp_closed = true }

let begin_span (t : t) ?(cat = "") ?(args = []) ~(tid : int) (name : string) : span =
  if not t.enabled then null_span
  else { sp_name = name; sp_cat = cat; sp_tid = tid; sp_start = t.clock (); sp_args = args; sp_closed = false }

let end_span (t : t) (sp : span) : unit =
  if t.enabled && not sp.sp_closed then begin
    sp.sp_closed <- true;
    emit t
      {
        name = sp.sp_name;
        cat = sp.sp_cat;
        ph = 'X';
        ts = sp.sp_start;
        dur = t.clock () -. sp.sp_start;
        tid = sp.sp_tid;
        args = sp.sp_args;
      }
  end

let with_span (t : t) ?cat ?args ~(tid : int) (name : string) (f : unit -> 'a) : 'a =
  let sp = begin_span t ?cat ?args ~tid name in
  match f () with
  | v ->
      end_span t sp;
      v
  | exception e ->
      end_span t sp;
      raise e

let instant (t : t) ?(cat = "") ?(args = []) ~(tid : int) (name : string) : unit =
  if t.enabled then emit t { name; cat; ph = 'i'; ts = t.clock (); dur = 0.; tid; args }

let thread_name (t : t) ~(tid : int) (name : string) : unit =
  if t.enabled then
    emit t { name = "thread_name"; cat = ""; ph = 'M'; ts = 0.; dur = 0.; tid; args = [ ("name", S name) ] }

(* ---- Phase tracker ---- *)

module Phase = struct
  type tracker = {
    tr : t;
    tid : int;
    mutable cur : string;
    mutable since : float;
    mutable args : (string * arg) list;
    mutable stopped : bool;
  }

  let cat = "phase"

  let start (tr : t) ?(args = []) ~(tid : int) (name : string) : tracker =
    let since = if tr.enabled then tr.clock () else 0. in
    if tr.enabled then Hashtbl.replace tr.open_tbl tid (name, since);
    { tr; tid; cur = name; since; args; stopped = false }

  let current (p : tracker) : string = p.cur

  (* Close the running segment (dropping zero-length ones: a phase the
     track merely passed through adds nothing to the breakdown and would
     bloat the trace). *)
  let flush (p : tracker) (t1 : float) : unit =
    if t1 > p.since then
      emit p.tr
        { name = p.cur; cat; ph = 'X'; ts = p.since; dur = t1 -. p.since; tid = p.tid; args = p.args }

  let switch (p : tracker) ?args (name : string) : unit =
    if p.tr.enabled && not p.stopped && name <> p.cur then begin
      let t1 = p.tr.clock () in
      flush p t1;
      p.cur <- name;
      p.since <- t1;
      Hashtbl.replace p.tr.open_tbl p.tid (name, t1);
      match args with Some a -> p.args <- a | None -> ()
    end

  let stop (p : tracker) : unit =
    if p.tr.enabled && not p.stopped then begin
      p.stopped <- true;
      Hashtbl.remove p.tr.open_tbl p.tid;
      flush p (p.tr.clock ())
    end
end

(* ---- Chrome trace_event JSON ---- *)

let json_escape = Json.escape

(* Microsecond timestamps rounded to 1 ns, so equal clock readings always
   serialize to equal bytes. *)
let us (seconds : float) : Json.t = Json.number (Float.round (seconds *. 1e9) /. 1e3)

let event_json ?(pid = 1) ?(offset = 0.) (ev : event) : Json.t =
  let arg = function S s -> Json.Str s | I i -> Json.Int i | F f -> Json.number f in
  Json.Obj
    ([
       ("name", Json.Str ev.name);
       ("cat", Json.Str (if ev.cat = "" then "atom" else ev.cat));
       ("ph", Json.Str (String.make 1 ev.ph));
       ("ts", us ((if ev.ph = 'M' then 0. else offset) +. ev.ts));
     ]
    @ (if ev.ph = 'X' then [ ("dur", us ev.dur) ] else [])
    @ [ ("pid", Json.Int pid); ("tid", Json.Int ev.tid) ]
    @ if ev.args = [] then [] else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg v)) ev.args)) ])

(* One event per line, streamed: the trace never exists as one tree. *)
let chrome_json (events : Json.t Seq.t) : string =
  let buf = Buffer.create 4096 in
  Json.stream_object buf [ ("displayTimeUnit", Json.Str "ms") ] "traceEvents" events;
  Buffer.contents buf

let to_chrome_json (t : t) : string = chrome_json (Seq.map event_json (List.to_seq (events t)))

(* ---- Merged multi-process traces ----

   A cluster run yields one event buffer per node, each timestamped on
   that node's own clock (seconds since its process start). A lane gives
   the buffer a Chrome pid (its own swimlane group in Perfetto), a
   process_name metadata label, and a clock offset: the merge shifts every
   timestamp by the lane's offset so all lanes share the receiving
   coordinator's timebase. Alignment uses the coordinator's handshake
   timestamps — a node's clock starts ticking moments before its Join
   frame lands, so offset = (coordinator clock at Join) bounds the skew by
   the connection setup time, plenty for eyeballing cross-node phases. *)

type lane = {
  lane_pid : int;
  lane_name : string;
  lane_offset : float; (* added to every event timestamp (s) *)
  lane_events : event list;
}

let to_chrome_json_lanes (lanes : lane list) : string =
  chrome_json
    (Seq.concat_map
       (fun l ->
         let label =
           let args = [ ("name", S l.lane_name) ] in
           { name = "process_name"; cat = ""; ph = 'M'; ts = 0.; dur = 0.; tid = 0; args }
         in
         Seq.map
           (event_json ~pid:l.lane_pid ~offset:l.lane_offset)
           (Seq.cons label (List.to_seq l.lane_events)))
       (List.to_seq lanes))

(* ---- Per-phase breakdown ---- *)

module Breakdown = struct
  type track = {
    tid : int;
    phases : (string * float) list; (* phase -> total seconds, canonical order *)
    total : float; (* sum of the phase durations *)
    t_end : float; (* when the track's last phase segment closed *)
  }

  (* Fixed presentation order for the protocol phases; anything else
     follows alphabetically. The node runtime's vocabulary (verify,
     shuffle, reenc, decrypt, send, recv-wait, recovery, barrier) is the
     same over TCP and over the simulator; the modeled [Simulate] adds
     network and exit. *)
  let canonical =
    [ "verify"; "shuffle"; "reenc"; "decrypt"; "network"; "send"; "recv-wait"; "recovery";
      "barrier"; "exit" ]

  let phase_rank name =
    let rec idx i = function
      | [] -> None
      | x :: _ when x = name -> Some i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 canonical

  let order_phases (ps : (string * float) list) : (string * float) list =
    List.sort
      (fun (a, _) (b, _) ->
        match (phase_rank a, phase_rank b) with
        | Some i, Some j -> compare i j
        | Some _, None -> -1
        | None, Some _ -> 1
        | None, None -> compare a b)
      ps

  let tracks (evs : event list) : track list =
    let tbl : (int, (string, float) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
    let ends : (int, float) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun ev ->
        if ev.ph = 'X' && ev.cat = Phase.cat then begin
          let per =
            match Hashtbl.find_opt tbl ev.tid with
            | Some h -> h
            | None ->
                let h = Hashtbl.create 8 in
                Hashtbl.add tbl ev.tid h;
                h
          in
          Hashtbl.replace per ev.name
            ((match Hashtbl.find_opt per ev.name with Some v -> v | None -> 0.) +. ev.dur);
          let fin = ev.ts +. ev.dur in
          match Hashtbl.find_opt ends ev.tid with
          | Some e when e >= fin -> ()
          | _ -> Hashtbl.replace ends ev.tid fin
        end)
      evs;
    Hashtbl.fold
      (fun tid per acc ->
        let phases = order_phases (Hashtbl.fold (fun k v l -> (k, v) :: l) per []) in
        {
          tid;
          phases;
          total = List.fold_left (fun a (_, v) -> a +. v) 0. phases;
          t_end = (match Hashtbl.find_opt ends tid with Some e -> e | None -> 0.);
        }
        :: acc)
      tbl []
    |> List.sort (fun a b -> compare a.tid b.tid)

  (* Every lane's tracks, each named by its lane and ending on the shared
     timebase (lane offset applied). *)
  let lane_tracks (lanes : lane list) : (string * track) list =
    List.concat_map
      (fun l ->
        List.map
          (fun t -> (l.lane_name, { t with t_end = t.t_end +. l.lane_offset }))
          (tracks l.lane_events))
      lanes

  (* The critical track across lanes: the one whose final phase segment
     closes last — the chain that determined the round's end. Ties break
     toward the earlier lane and the lower tid, deterministically. *)
  let critical (lanes : lane list) : (string * track) option =
    List.fold_left
      (fun best (name, t) ->
        match best with
        | Some (_, b) when b.t_end >= t.t_end -> best
        | _ -> Some (name, t))
      None (lane_tracks lanes)

  (* Aggregate phase totals across every track (core-seconds view). *)
  let totals (lanes : lane list) : (string * float) list =
    let acc : (string, float) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (_, tr) ->
        List.iter
          (fun (name, v) ->
            Hashtbl.replace acc name
              ((match Hashtbl.find_opt acc name with Some x -> x | None -> 0.) +. v))
          tr.phases)
      (lane_tracks lanes);
    order_phases (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

  (* Render the per-phase table for the critical track next to the
     all-track totals. [latency] is the reported round latency; the
     critical track's phases tile its lifetime, so their sum matches it
     (the coverage line makes the invariant visible). *)
  let render ~(latency : float) (lanes : lane list) : string =
    let buf = Buffer.create 512 in
    (match critical lanes with
    | None -> Buffer.add_string buf "(no phase spans recorded)\n"
    | Some (name, crit) ->
        let tot = totals lanes in
        Buffer.add_string buf
          (Printf.sprintf "per-phase round breakdown (critical: %s):\n" name);
        Buffer.add_string buf
          (Printf.sprintf "  %-10s %14s %7s %18s\n" "phase" "critical (s)" "share" "all tracks (s)");
        List.iter
          (fun (name, total_all) ->
            let v = match List.assoc_opt name crit.phases with Some v -> v | None -> 0. in
            let share = if latency > 0. then 100. *. v /. latency else 0. in
            Buffer.add_string buf
              (Printf.sprintf "  %-10s %14.6f %6.1f%% %18.6f\n" name v share total_all))
          tot;
        let share = if latency > 0. then 100. *. crit.total /. latency else 0. in
        Buffer.add_string buf (Printf.sprintf "  %-10s %14.6f %6.1f%%\n" "total" crit.total share);
        Buffer.add_string buf
          (Printf.sprintf "  round latency %.6f s  (critical-path coverage %.2f%%)\n" latency share));
    Buffer.contents buf
end
