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

   Reentrancy and thread safety: a pool runs one job at a time. A [run]
   from a systhread that is not inside a job body waits (blocked, so its
   domain keeps serving other systhreads) until the current job ends,
   then drives its own — unless the pool's recent jobs are too short to
   be worth the wait ([wait_floor]), when it runs alone. A [run] from
   inside a job body — on a worker domain, or on the systhread driving a
   job — executes sequentially on the spot: waiting there would wait on
   itself. No job body ever waits on another systhread, so waiting
   callers always make progress and one pool can be shared process-wide
   without deadlock. *)

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
  mutable held : bool; (* a systhread is driving a job; under [mu] *)
  mutable recent : float;
      (* job wall time, s, averaged with weight 1/8 on the newest job;
         starts at [wait_floor], so a fresh pool waits; under [mu] *)
  free_cv : Condition.t; (* waiting callers: the driving systhread left *)
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
  m_inline : Atom_obs.Metrics.counter;
  m_wait : Atom_obs.Metrics.histogram;
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

(* Whether the running code is a job body. Worker domains run nothing
   else; a systhread is inside one while it drives a job, which the
   [job_callers] list records by thread id — across every pool, so a body
   that calls into a second pool runs inline there too. *)
let worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let job_callers : int list Atomic.t = Atomic.make []

let rec update_callers f =
  let l = Atomic.get job_callers in
  if not (Atomic.compare_and_set job_callers l (f l)) then update_callers f

let inside_job () =
  Domain.DLS.get worker_key || List.mem (Thread.id (Thread.self ())) (Atomic.get job_callers)

let worker_main t slot =
  Domain.DLS.set worker_key true;
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

(* Waiting for another systhread's job costs the waiter a wake-up and a
   hand-off of its domain's runtime lock: about 0.6 ms on average on the
   2-vCPU benchmark host, where a zp-test round's jobs last ~0.1 ms and a
   P-256 round's 5–10 ms. So a caller waits only while the pool's recent
   jobs average at least this long; below it, it finishes sooner alone. *)
let wait_floor = 1e-3

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
      held = false;
      recent = wait_floor;
      free_cv = Condition.create ();
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
      m_inline = Atom_obs.Metrics.counter reg "exec.pool.inline";
      m_wait = Atom_obs.Metrics.histogram reg ~lo:0.0 ~hi:1.0 "exec.pool.wait_seconds";
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

(* Take the pool for one job: [true] once the caller holds it, after
   waiting out another systhread's job if need be; [false] when another
   systhread's job is running and the pool's jobs are too short to be
   worth waiting for, so the caller should run alone. *)
let acquire t =
  Mutex.lock t.mu;
  if t.held && t.recent < wait_floor then begin
    Mutex.unlock t.mu;
    false
  end
  else begin
    let waited =
      if not t.held then None
      else begin
        let t0 = Unix.gettimeofday () in
        while t.held do
          Condition.wait t.free_cv t.mu
        done;
        Some (Unix.gettimeofday () -. t0)
      end
    in
    t.held <- true;
    Mutex.unlock t.mu;
    Option.iter (Atom_obs.Metrics.observe t.m_wait) waited;
    true
  end

let release t ~(seconds : float) =
  Mutex.lock t.mu;
  t.held <- false;
  t.recent <- t.recent +. ((seconds -. t.recent) /. 8.0);
  Condition.signal t.free_cv;
  Mutex.unlock t.mu

let run ?pool ?chunk ~n body =
  match resolve pool with
  | Some t when t.domains > 1 && n >= 2 ->
      if inside_job () || not (acquire t) then begin
        Atom_obs.Metrics.incr t.m_inline;
        sequential n body
      end
      else begin
        let me = Thread.id (Thread.self ()) in
        let t0 = Unix.gettimeofday () in
        update_callers (List.cons me);
        Fun.protect
          ~finally:(fun () ->
            update_callers (List.filter (( <> ) me));
            release t ~seconds:(Unix.gettimeofday () -. t0))
          (fun () ->
            Atom_obs.Trace.with_span t.tracer ~cat:"exec"
              ~args:[ ("n", Atom_obs.Trace.I n) ]
              ~tid:0 "pool.run"
              (fun () -> run_on t ?chunk n body))
      end
  | _ -> sequential n body

(* Every slot is written by its own index; the options only stand in for
   an initial value the element type does not have. *)
let tabulate ?pool ?chunk n f =
  if n <= 0 then [||]
  else begin
    let out = Array.make n None in
    run ?pool ?chunk ~n (fun i -> out.(i) <- Some (f i));
    Array.map Option.get out
  end

let map ?pool ?chunk f a = tabulate ?pool ?chunk (Array.length a) (fun i -> f a.(i))

let map_nested ?pool ?chunk f rows =
  let flat = map ?pool ?chunk f (Array.concat (Array.to_list rows)) in
  let off = ref 0 in
  Array.map
    (fun row ->
      let k = Array.length row in
      let r = Array.sub flat !off k in
      off := !off + k;
      r)
    rows

(* ---- measured runtime default ----

   [auto_domains] is the pool size a node should use when nobody said
   otherwise: the host's core count, capped by the recommendation a
   `bench parallel` run measured on comparable hardware. The committed
   BENCH_parallel.json records the core count it was measured on; a
   recommendation measured on a 1-core CI container must not cap a 32-core
   deployment, so only a file that parses and names this host's core
   count caps. *)

module Json = Atom_obs.Json

let auto_domains () =
  let cores = max 1 (min 64 (Domain.recommended_domain_count ())) in
  let file = "BENCH_parallel.json" in
  let path =
    match Sys.getenv_opt "ATOM_BENCH_DIR" with
    | Some d when Sys.file_exists (Filename.concat d file) -> Filename.concat d file
    | _ -> file
  in
  let measured c = (Json.int (Json.field "recommended_domains" c), Json.int (Json.field "host_cores" c)) in
  match Result.bind (Json.of_file path) (Json.decode measured) with
  | Ok (r, hc) when r >= 1 && hc = cores -> min cores r
  | _ -> cores

let of_domains n =
  let d = if n <= 0 && Sys.getenv_opt "ATOM_DOMAINS" = None then auto_domains () else n in
  if d > 1 then (Some (create ~domains:d ()), true)
  else if d = 1 then (None, false)
  else (default (), false)
