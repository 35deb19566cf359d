(** A deterministic work-sharing domain pool for the crypto hot paths.

    [run pool ~n f] executes [f i] for every [i] in [0, n), spread over a
    fixed set of worker domains plus the calling thread, and returns when
    all of them have run. Chunks of the index range are claimed from a
    shared atomic cursor, so load balances dynamically — but because each
    index writes only its own result slot and the pool never combines
    values, the output is bit-identical for every pool size (including
    the sequential fallback). Callers that fold chunk partials themselves
    must fold in index order with an exact associative operation (modular
    arithmetic qualifies; floats do not).

    A pool drives one job at a time. A nested [run] from inside a job
    body — e.g. a batched verifier calling a batched exponentiation — or
    a concurrent [run] from another systhread silently degrades to
    sequential execution on the calling thread, so one process-wide pool
    can be shared without deadlock. The callback must therefore be safe
    to run on worker domains: draw randomness and mutate shared state
    {e before} entering the parallel region.

    The {e default pool} is created lazily from the [ATOM_DOMAINS]
    environment variable (unset, invalid, or [1] means "no pool":
    everything runs sequentially) and is what [?pool]-taking APIs fall
    back to when no explicit pool is passed. *)

type t

val create : ?obs:Atom_obs.Ctx.t -> domains:int -> unit -> t
(** A pool that runs jobs on [domains] domains total: [domains - 1]
    spawned workers plus the caller. [domains = 1] is a valid pool that
    always runs sequentially. When [obs] is given (default
    {!Atom_obs.Ctx.noop}), the pool records [exec.pool.jobs] and
    [exec.pool.chunks] counters, an [exec.pool.queue_depth] gauge
    (pending chunks of the job in flight), an
    [exec.pool.worker_busy_seconds] histogram (per-participant busy time
    for each job), [exec.pool.minor_words] / [exec.pool.promoted_words]
    counters (GC words allocated/promoted inside jobs, summed over the
    participating domains — OCaml 5 GC counters are per-domain, so the
    deltas attribute allocation to the job precisely), and — when tracing
    is on — a [pool.run] span per job.
    @raise Invalid_argument unless [1 <= domains <= 64]. *)

val size : t -> int
(** Total domains, caller included. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Must not be called while a job is
    in flight; idempotent afterwards. *)

val run : ?pool:t -> ?chunk:int -> n:int -> (int -> unit) -> unit
(** [run ?pool ~n f] runs [f 0 .. f (n-1)], each exactly once. Without
    [?pool] the {!default} pool (if any) is used. Small ranges, 1-domain
    pools, and nested/concurrent entries run sequentially on the caller.
    [chunk] overrides the scheduling granularity (indices claimed per
    cursor fetch; default [n / (domains * 4)], at least 1) — results are
    identical for every chunk size, only load balance changes. If any
    [f i] raises, one such exception is re-raised after every index has
    been attempted or the cursor exhausted. *)

val tabulate : ?pool:t -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [tabulate ?pool n f] is [[| f 0; ...; f (n-1) |]] with the work
    spread over the pool. [f] must be pure (deterministic per index) —
    [f 0] runs first on the caller to seed the result array, the rest in
    pool order. *)

val map : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ?pool f a] is [Array.map f a] with the work spread over the
    pool; same purity requirement as {!tabulate}. *)

val default : unit -> t option
(** The process-wide pool, created on first use from [ATOM_DOMAINS].
    [None] when parallelism is off. *)

val set_default : t option -> unit
(** Override the default pool (tests; [atom_node --domains]). Does not
    shut the previous pool down — callers own that. *)

val resolve : t option -> t option
(** [resolve pool] is the pool a [?pool] argument denotes: itself when
    explicit, otherwise {!default}. *)

val auto_domains : unit -> int
(** The pool size a node should use when neither [--domains] nor
    [ATOM_DOMAINS] says otherwise: [Domain.recommended_domain_count ()],
    capped by the [recommended_domains] a `bench parallel` run measured —
    read from [BENCH_parallel.json] in [$ATOM_BENCH_DIR] or the working
    directory. The cap only applies when that file's [host_cores] matches
    this host's core count: a recommendation measured on different
    hardware (say a 1-core CI runner) says nothing about this machine.
    Always in [1, 64]. *)

val of_domains : int -> t option * bool
(** [of_domains n] is the pool a [--domains n] option asks for, and
    whether the caller owns it (and must {!shutdown} it): [n > 1] is a
    fresh pool of [n] domains, [n = 1] is sequential ([None]), and
    [n <= 0] is the {!default} pool when [ATOM_DOMAINS] is set, otherwise
    a fresh pool of {!auto_domains} size ([None] when that is 1). Prints
    nothing; callers log the size they got. *)
