(* A deterministic work-sharing domain pool.

   One job at a time: [run] publishes a chunked index range [0, n), the
   caller and the worker domains claim chunks from a shared atomic cursor,
   and the caller blocks until every chunk has been executed. Scheduling
   is dynamic (whichever domain is free takes the next chunk) but the
   *results* are bit-identical for any pool size because each index is
   computed independently and written to its own slot — the pool never
   combines values itself, so there is no floating-point or ordering
   sensitivity to hide. Callers that do combine (an MSM folding chunk
   partials) must combine in index order with an associative operation;
   see the determinism note in the interface.

   Reentrancy and thread safety: a pool runs one job at a time. A nested
   [run] from inside a job body, or a concurrent [run] from another
   systhread, simply executes sequentially on the calling thread (the
   [in_flight] test-and-set fails), so sharing one pool process-wide is
   safe and deadlock-free. *)

type job = {
  body : int -> unit;
  jn : int;
  chunk : int;
  next : int Atomic.t;
  mutable failed : exn option; (* first exception, under the pool mutex *)
}

type t = {
  domains : int;
  mu : Mutex.t;
  work_cv : Condition.t; (* workers: a new job (or stop) was published *)
  done_cv : Condition.t; (* caller: the last active worker left the job *)
  mutable job : job option;
  mutable gen : int; (* bumped per job so workers never re-run one *)
  mutable active : int; (* workers currently inside the job *)
  mutable stop : bool;
  in_flight : bool Atomic.t; (* claims the pool for a single caller *)
  mutable workers : unit Domain.t list;
  busy : float array; (* per-slot busy seconds for the current job *)
  minor : float array; (* per-slot minor words allocated during the job *)
  promoted : float array; (* per-slot words promoted during the job *)
  timed : bool;
  tracer : Atom_obs.Trace.t;
  m_jobs : Atom_obs.Metrics.counter;
  m_chunks : Atom_obs.Metrics.counter;
  m_queue : Atom_obs.Metrics.gauge;
  m_busy : Atom_obs.Metrics.histogram;
  m_minor : Atom_obs.Metrics.counter;
  m_promoted : Atom_obs.Metrics.counter;
}

let size t = t.domains

(* Claim and execute chunks until the cursor passes the end. Exceptions
   are captured into the job (first one wins) so the protocol always
   reaches "all chunks claimed" and the caller can re-raise after the
   join — a worker must never die with the pool still running. *)
let promoted_words () =
  let _, promoted, _ = Gc.counters () in
  promoted

let run_chunks t slot (j : job) =
  let t0 = if t.timed then Unix.gettimeofday () else 0.0 in
  (* GC counters are per-domain in OCaml 5, so a slot's delta really is
     the allocation its share of the job caused. *)
  let minor0 = if t.timed then Gc.minor_words () else 0.0 in
  let promoted0 = if t.timed then promoted_words () else 0.0 in
  let worked = ref false in
  (try
     let continue = ref true in
     while !continue do
       let lo = Atomic.fetch_and_add j.next j.chunk in
       if lo >= j.jn then continue := false
       else begin
         worked := true;
         Atom_obs.Metrics.incr t.m_chunks;
         let hi = min j.jn (lo + j.chunk) in
         for i = lo to hi - 1 do
           j.body i
         done
       end
     done
   with e ->
     Mutex.lock t.mu;
     if j.failed = None then j.failed <- Some e;
     Mutex.unlock t.mu);
  if t.timed && !worked then begin
    t.busy.(slot) <- t.busy.(slot) +. (Unix.gettimeofday () -. t0);
    t.minor.(slot) <- t.minor.(slot) +. (Gc.minor_words () -. minor0);
    t.promoted.(slot) <- t.promoted.(slot) +. (promoted_words () -. promoted0)
  end

let worker_main t slot =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mu;
    while (not t.stop) && (t.gen = !seen || t.job = None) do
      Condition.wait t.work_cv t.mu
    done;
    if t.stop then begin
      Mutex.unlock t.mu;
      running := false
    end
    else begin
      let j = match t.job with Some j -> j | None -> assert false in
      seen := t.gen;
      t.active <- t.active + 1;
      Mutex.unlock t.mu;
      run_chunks t slot j;
      Mutex.lock t.mu;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.done_cv;
      Mutex.unlock t.mu
    end
  done

let create ?(obs = Atom_obs.Ctx.noop) ~domains () =
  if domains < 1 || domains > 64 then
    invalid_arg "Atom_exec.Pool.create: domains must be in [1, 64]";
  let reg = Atom_obs.Ctx.metrics obs in
  let t =
    {
      domains;
      mu = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      job = None;
      gen = 0;
      active = 0;
      stop = false;
      in_flight = Atomic.make false;
      workers = [];
      busy = Array.make domains 0.0;
      minor = Array.make domains 0.0;
      promoted = Array.make domains 0.0;
      timed = Atom_obs.Metrics.enabled reg;
      tracer = Atom_obs.Ctx.tracer obs;
      m_jobs = Atom_obs.Metrics.counter reg "exec.pool.jobs";
      m_chunks = Atom_obs.Metrics.counter reg "exec.pool.chunks";
      m_queue = Atom_obs.Metrics.gauge reg "exec.pool.queue_depth";
      m_busy =
        Atom_obs.Metrics.histogram reg ~lo:0.0 ~hi:1.0 "exec.pool.worker_busy_seconds";
      m_minor = Atom_obs.Metrics.counter reg "exec.pool.minor_words";
      m_promoted = Atom_obs.Metrics.counter reg "exec.pool.promoted_words";
    }
  in
  t.workers <- List.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker_main t (i + 1)));
  t

let shutdown t =
  Mutex.lock t.mu;
  if t.stop then Mutex.unlock t.mu
  else begin
    t.stop <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.mu;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

(* ---- the default (process-wide) pool ---- *)

type default_state = Unset | Set of t option

let default_mu = Mutex.create ()
let default_cell : default_state Atomic.t = Atomic.make Unset

let domains_from_env () =
  match Sys.getenv_opt "ATOM_DOMAINS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with Some d when d >= 1 -> min d 64 | _ -> 1)

let set_default p =
  Mutex.lock default_mu;
  Atomic.set default_cell (Set p);
  Mutex.unlock default_mu

let default () =
  match Atomic.get default_cell with
  | Set p -> p
  | Unset ->
      Mutex.lock default_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock default_mu)
        (fun () ->
          match Atomic.get default_cell with
          | Set p -> p
          | Unset ->
              let d = domains_from_env () in
              let p =
                if d <= 1 then None
                else begin
                  let p = create ~domains:d () in
                  at_exit (fun () -> shutdown p);
                  Some p
                end
              in
              Atomic.set default_cell (Set p);
              p)

let resolve = function Some _ as p -> p | None -> default ()

(* ---- running work ---- *)

let sequential n body =
  for i = 0 to n - 1 do
    body i
  done

(* Publish the job, take part in it from slot 0, then wait for the last
   worker to leave. A worker that wakes after the cursor is exhausted
   claims nothing and goes back to sleep, so the join only has to wait
   for workers that actually entered the job. *)
let run_on (t : t) ?chunk n body =
  Atom_obs.Metrics.incr t.m_jobs;
  (* Default granularity: 4 chunks per domain. Enough slack for dynamic
     balancing when per-index cost is skewed, while keeping cursor traffic
     and per-chunk bookkeeping negligible now that the allocation-free
     kernels have made per-index cost far more uniform (re-tuned from 8
     chunks per domain alongside the flat-limb refactor). *)
  let chunk =
    match chunk with Some c when c >= 1 -> c | _ -> max 1 (n / (t.domains * 4))
  in
  let j = { body; jn = n; chunk; next = Atomic.make 0; failed = None } in
  if t.timed then begin
    Array.fill t.busy 0 t.domains 0.0;
    Array.fill t.minor 0 t.domains 0.0;
    Array.fill t.promoted 0 t.domains 0.0;
    Atom_obs.Metrics.set t.m_queue (float_of_int ((n + chunk - 1) / chunk))
  end;
  Mutex.lock t.mu;
  t.job <- Some j;
  t.gen <- t.gen + 1;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.mu;
  run_chunks t 0 j;
  Mutex.lock t.mu;
  while t.active > 0 do
    Condition.wait t.done_cv t.mu
  done;
  t.job <- None;
  Mutex.unlock t.mu;
  if t.timed then begin
    Atom_obs.Metrics.set t.m_queue 0.0;
    Array.iter (fun b -> if b > 0.0 then Atom_obs.Metrics.observe t.m_busy b) t.busy;
    Array.iter (fun w -> if w > 0.0 then Atom_obs.Metrics.add t.m_minor w) t.minor;
    Array.iter (fun w -> if w > 0.0 then Atom_obs.Metrics.add t.m_promoted w) t.promoted
  end;
  match j.failed with Some e -> raise e | None -> ()

let run ?pool ?chunk ~n body =
  if n > 0 then
    match resolve pool with
    | None -> sequential n body
    | Some t ->
        if t.domains <= 1 || n < 4 then sequential n body
        else if not (Atomic.compare_and_set t.in_flight false true) then
          (* Nested or concurrent entry: the pool is already driving a
             job; degrade to the calling thread. *)
          sequential n body
        else
          Fun.protect
            ~finally:(fun () -> Atomic.set t.in_flight false)
            (fun () ->
              Atom_obs.Trace.with_span t.tracer ~cat:"exec"
                ~args:[ ("n", Atom_obs.Trace.I n) ]
                ~tid:0 "pool.run"
                (fun () -> run_on t ?chunk n body))

let tabulate ?pool ?chunk n f =
  if n <= 0 then [||]
  else begin
    let first = f 0 in
    let out = Array.make n first in
    run ?pool ?chunk ~n:(n - 1) (fun i -> out.(i + 1) <- f (i + 1));
    out
  end

let map ?pool ?chunk f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let first = f a.(0) in
    let out = Array.make n first in
    run ?pool ?chunk ~n:(n - 1) (fun i -> out.(i + 1) <- f a.(i + 1));
    out
  end

(* ---- measured runtime default ----

   [auto_domains] is the pool size a node should use when nobody said
   otherwise: the host's core count, capped by the recommendation a
   `bench parallel` run measured on comparable hardware. The committed
   BENCH_parallel.json records the core count it was measured on; a
   recommendation measured on a 1-core CI container must not cap a 32-core
   deployment, so the cap only applies when the measuring host's core
   count matches this one. The scan is a dumb substring search so the
   bench JSON needs no parser dependency here. *)

let scan_json_int (s : string) (key : string) : int option =
  let needle = "\"" ^ key ^ "\":" in
  let nl = String.length needle and sl = String.length s in
  let rec at i =
    if i + nl > sl then None
    else if String.sub s i nl = needle then begin
      let j = ref (i + nl) in
      while !j < sl && (s.[!j] = ' ' || s.[!j] = '\t') do
        incr j
      done;
      let start = !j in
      while !j < sl && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      if !j > start then int_of_string_opt (String.sub s start (!j - start)) else None
    end
    else at (i + 1)
  in
  at 0

let bench_parallel_path () =
  let name = "BENCH_parallel.json" in
  match Sys.getenv_opt "ATOM_BENCH_DIR" with
  | Some d when Sys.file_exists (Filename.concat d name) -> Some (Filename.concat d name)
  | _ -> if Sys.file_exists name then Some name else None

let measured_recommendation () : (int * int) option =
  match bench_parallel_path () with
  | None -> None
  | Some path -> (
      match
        try
          In_channel.with_open_bin path (fun ic ->
              Some (In_channel.input_all ic))
        with Sys_error _ -> None
      with
      | None -> None
      | Some body -> (
          match (scan_json_int body "recommended_domains", scan_json_int body "host_cores") with
          | Some r, Some hc when r >= 1 -> Some (r, hc)
          | Some r, None when r >= 1 -> Some (r, 0)
          | _ -> None))

let auto_domains () =
  let cores = max 1 (min 64 (Domain.recommended_domain_count ())) in
  match measured_recommendation () with
  | Some (r, hc) when hc = cores -> max 1 (min cores r)
  | _ -> cores

let of_domains n =
  let d = if n <= 0 && Sys.getenv_opt "ATOM_DOMAINS" = None then auto_domains () else n in
  if d > 1 then (Some (create ~domains:d ()), true)
  else if d = 1 then (None, false)
  else (default (), false)
