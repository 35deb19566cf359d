(* The execution engine: determinism of the work-sharing pool and of every
   pooled crypto entry point.

   The pool's contract is that results are bit-identical for every pool
   size, including the no-pool sequential path — that is what lets a
   deployment pick core counts freely without re-validating transcripts.
   These tests pin the contract at three levels: the raw pool primitives,
   the group/ElGamal/shuffle-proof batch APIs across pool sizes 1, 2, 4, 7,
   and a full simulator round whose trace must stay byte-identical when a
   default pool is installed. *)

module Pool = Atom_exec.Pool

(* Run [f] with a temporary pool of [domains], shutting it down after. *)
let with_pool (domains : int) (f : Pool.t -> 'a) : 'a =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let pool_sizes = [ 1; 2; 4; 7 ]

(* ---- pool primitives ---- *)

let test_pool_covers_all_indices () =
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          let n = 1000 in
          let hits = Array.make n 0 in
          (* Each index writes only its own slot, so no synchronization is
             needed to observe the counts after [run] returns. *)
          Pool.run ~pool:p ~n (fun i -> hits.(i) <- hits.(i) + 1);
          Alcotest.(check bool)
            (Printf.sprintf "every index exactly once (domains=%d)" domains)
            true
            (Array.for_all (fun c -> c = 1) hits)))
    pool_sizes

let test_pool_tabulate_matches_init () =
  let f i = (i * 2654435761) land 0xffffff in
  let want = Array.init 513 f in
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          Alcotest.(check (array int))
            (Printf.sprintf "tabulate = init (domains=%d)" domains)
            want
            (Pool.tabulate ~pool:p 513 f)))
    pool_sizes

(* Every size from empty to a few items per domain: nothing runs first on
   the caller any more, so the smallest jobs go to the pool whole. *)
let test_pool_small_sizes () =
  let f i = (i * i) + 1 in
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          for n = 0 to 9 do
            let tag s = Printf.sprintf "%s n=%d (domains=%d)" s n domains in
            Alcotest.(check (array int))
              (tag "tabulate") (Array.init n f) (Pool.tabulate ~pool:p n f);
            Alcotest.(check (array int)) (tag "map") (Array.init n f)
              (Pool.map ~pool:p f (Array.init n Fun.id))
          done))
    pool_sizes

(* A pool whose metrics the test reads back. *)
let with_metered_pool (domains : int) (f : Pool.t -> Atom_obs.Metrics.t -> 'a) : 'a =
  let obs = Atom_obs.Ctx.create () in
  let p = Pool.create ~obs ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p (Atom_obs.Ctx.metrics obs))

(* Two systhreads sharing one pool take turns on it: each of their jobs is
   dispatched (none falls back to running inline) and every result is its
   own caller's. Each item takes 2 ms, so the jobs stay long enough to be
   worth waiting for. *)
let test_pool_concurrent_callers () =
  with_metered_pool 2 (fun p reg ->
      let wrong = Atomic.make 0 in
      let caller t () =
        for k = 0 to 49 do
          let base = (t * 1000) + (k * 2) in
          let item i =
            Unix.sleepf 0.002;
            base + i
          in
          if Pool.tabulate ~pool:p 2 item <> [| base; base + 1 |] then Atomic.incr wrong
        done
      in
      let threads = List.init 2 (fun t -> Thread.create (caller t) ()) in
      List.iter Thread.join threads;
      Alcotest.(check int) "every result right" 0 (Atomic.get wrong);
      Alcotest.(check (float 0.)) "every job pooled" 100.
        (Atom_obs.Metrics.counter_value reg "exec.pool.jobs");
      Alcotest.(check (float 0.)) "nothing inline" 0.
        (Atom_obs.Metrics.counter_value reg "exec.pool.inline"))

(* Jobs far shorter than a wait: a caller that finds the pool busy runs
   alone, and says so. Every result is still right. *)
let test_pool_short_jobs_run_alone () =
  with_metered_pool 2 (fun p reg ->
      let wrong = Atomic.make 0 in
      let caller t () =
        for k = 0 to 499 do
          let base = (t * 10_000) + (k * 2) in
          if Pool.tabulate ~pool:p 2 (fun i -> base + i) <> [| base; base + 1 |] then
            Atomic.incr wrong
        done
      in
      let threads = List.init 2 (fun t -> Thread.create (caller t) ()) in
      List.iter Thread.join threads;
      let count name = Atom_obs.Metrics.counter_value reg name in
      Alcotest.(check int) "every result right" 0 (Atomic.get wrong);
      Alcotest.(check (float 0.)) "every run pooled or counted inline" 1000.
        (count "exec.pool.jobs" +. count "exec.pool.inline"))

let test_pool_nested_counted () =
  with_metered_pool 2 (fun p reg ->
      let outer =
        Pool.tabulate ~pool:p 4 (fun i ->
            Array.fold_left ( + ) 0 (Pool.tabulate ~pool:p 3 (fun j -> i + j)))
      in
      Alcotest.(check (array int)) "nested results" [| 3; 6; 9; 12 |] outer;
      Alcotest.(check (float 0.)) "one pooled job" 1.
        (Atom_obs.Metrics.counter_value reg "exec.pool.jobs");
      Alcotest.(check (float 0.)) "each nested run inline" 4.
        (Atom_obs.Metrics.counter_value reg "exec.pool.inline"))

exception Boom of int

(* A job that raises releases the pool: the systhread waiting for it
   runs its own job next. *)
let test_pool_failure_releases_waiter () =
  with_metered_pool 2 (fun p reg ->
      let started = Atomic.make false and raised = Atomic.make false in
      let holder =
        Thread.create
          (fun () ->
            try
              Pool.run ~pool:p ~n:2 (fun i ->
                  if i = 0 then begin
                    Atomic.set started true;
                    Unix.sleepf 0.3;
                    raise (Boom i)
                  end)
            with Boom _ -> Atomic.set raised true)
          ()
      in
      while not (Atomic.get started) do
        Thread.yield ()
      done;
      let got = Pool.tabulate ~pool:p 2 (fun i -> i + 1) in
      Thread.join holder;
      Alcotest.(check bool) "holder saw its exception" true (Atomic.get raised);
      Alcotest.(check (array int)) "waiter's job ran" [| 1; 2 |] got;
      match Atom_obs.Metrics.find reg "exec.pool.wait_seconds" with
      | Some (Atom_obs.Metrics.V_histogram h) ->
          Alcotest.(check int) "the wait was recorded" 1 (Atom_obs.Metrics.hist_count h)
      | _ -> Alcotest.fail "no exec.pool.wait_seconds histogram")

(* [?chunk] changes only scheduling granularity, never results — from a
   single index per cursor fetch to one chunk spanning the whole range. *)
let test_pool_chunk_identity () =
  let f i = (i * 2654435761) land 0xffffff in
  let want = Array.init 513 f in
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          List.iter
            (fun chunk ->
              Alcotest.(check (array int))
                (Printf.sprintf "tabulate identical (domains=%d chunk=%d)" domains chunk)
                want
                (Pool.tabulate ~pool:p ~chunk 513 f);
              let hits = Array.make 513 0 in
              Pool.run ~pool:p ~chunk ~n:513 (fun i -> hits.(i) <- hits.(i) + 1);
              Alcotest.(check bool)
                (Printf.sprintf "run covers once (domains=%d chunk=%d)" domains chunk)
                true
                (Array.for_all (fun c -> c = 1) hits))
            [ 1; 7; 64; 513; 10_000 ]))
    pool_sizes

(* auto_domains caps by a measured recommendation only when the bench file
   was produced on a host with the same core count. *)
let test_auto_domains_host_guard () =
  let cores = max 1 (min 64 (Domain.recommended_domain_count ())) in
  let dir = Filename.temp_file "atom_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let old = Sys.getenv_opt "ATOM_BENCH_DIR" in
  let old_cwd = Sys.getcwd () in
  let restore () =
    Sys.chdir old_cwd;
    (match old with Some v -> Unix.putenv "ATOM_BENCH_DIR" v | None -> Unix.putenv "ATOM_BENCH_DIR" "");
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  in
  Fun.protect ~finally:restore (fun () ->
      (* chdir too: the resolver falls back to ./BENCH_parallel.json, which
         may exist when the tests run from a checkout root *)
      Sys.chdir dir;
      Unix.putenv "ATOM_BENCH_DIR" dir;
      let write json =
        Out_channel.with_open_text (Filename.concat dir "BENCH_parallel.json") (fun oc ->
            Out_channel.output_string oc json)
      in
      (* no file: plain core count *)
      Alcotest.(check int) "no bench file" cores (Pool.auto_domains ());
      (* matching host: the recommendation caps *)
      write
        (Printf.sprintf {|{"schema":"atom-bench-parallel/2","host_cores":%d,"recommended_domains":1}|}
           cores);
      Alcotest.(check int) "matching host caps" (min cores 1) (Pool.auto_domains ());
      (* other hardware: recommendation ignored *)
      write
        (Printf.sprintf {|{"schema":"atom-bench-parallel/2","host_cores":%d,"recommended_domains":1}|}
           (cores + 1));
      Alcotest.(check int) "foreign host ignored" cores (Pool.auto_domains ());
      (* a file that does not parse: plain core count *)
      write (Printf.sprintf {|{"host_cores":%d,"recommended_domains":1|} cores);
      Alcotest.(check int) "malformed file ignored" cores (Pool.auto_domains ()))

(* --domains resolution: 1 runs sequentially, N > 1 is a pool the caller
   owns, and 0 with ATOM_DOMAINS set is the shared default, which the
   caller must not shut down. *)
let test_of_domains () =
  Alcotest.(check bool) "1: no pool" true (Pool.of_domains 1 = (None, false));
  (match Pool.of_domains 3 with
  | Some p, true ->
      Alcotest.(check int) "3: pool size" 3 (Pool.size p);
      Pool.shutdown p
  | _ -> Alcotest.fail "3: expected an owned pool");
  let old = Sys.getenv_opt "ATOM_DOMAINS" in
  (* "1" reads like unset to the default pool, so the shared default is
     the same whether or not this test created it. *)
  if old = None then Unix.putenv "ATOM_DOMAINS" "1";
  Fun.protect
    ~finally:(fun () -> if old = None then Unix.putenv "ATOM_DOMAINS" "")
    (fun () ->
      let p, owned = Pool.of_domains 0 in
      Alcotest.(check bool) "0: not owned" false owned;
      Alcotest.(check bool) "0: the default pool" true (p == Pool.default ()))

let test_pool_propagates_exception () =
  with_pool 4 (fun p ->
      match Pool.run ~pool:p ~n:200 (fun i -> if i = 137 then raise (Boom i)) with
      | () -> Alcotest.fail "exception swallowed"
      | exception Boom 137 -> ()
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  (* The pool survives a failed job. *)
  with_pool 4 (fun p ->
      ignore (try Pool.run ~pool:p ~n:50 (fun _ -> raise Exit) with Exit -> ());
      let a = Pool.tabulate ~pool:p 100 (fun i -> i + 1) in
      Alcotest.(check int) "pool usable after failure" 100 a.(99))

let test_pool_nested_run_degrades () =
  (* A nested run must complete sequentially rather than deadlock. *)
  with_pool 4 (fun p ->
      let outer = Array.make 64 0 in
      Pool.run ~pool:p ~n:64 (fun i ->
          let inner = Pool.tabulate ~pool:p 16 (fun j -> j * j) in
          outer.(i) <- Array.fold_left ( + ) 0 inner);
      Alcotest.(check bool) "nested results correct" true
        (Array.for_all (fun v -> v = 1240) outer))

(* ---- pooled crypto is bit-identical across pool sizes ---- *)

(* Sequential reference vs pools of 1, 2, 4, 7 for each pooled entry point;
   byte-level equality so Montgomery canonicalization bugs can't hide
   behind [G.equal]. *)
let check_backend (name : string) (g : (module Atom_group.Group_intf.GROUP)) ~(n : int) =
  let module G = (val g) in
  let bytes_of xs = String.concat "" (Array.to_list (Array.map G.to_bytes xs)) in
  let rng = Atom_util.Rng.create 0xe8ec in
  let ks = Array.init n (fun _ -> G.Scalar.random rng) in
  let base = G.random rng in
  let pairs = Array.init n (fun i -> (G.pow_gen ks.((i * 7) mod n), ks.(i))) in
  let ref_gen = bytes_of (G.pow_gen_batch ks) in
  let ref_pow = bytes_of (G.pow_batch base ks) in
  let ref_msm = G.to_bytes (G.msm pairs) in
  (* Keyed pairs on the generator and one key, fresh pairs on bases that
     repeat, with an identity and a zero scalar among them. *)
  let keyed = Array.mapi (fun i k -> ((if i mod 3 = 0 then G.generator else base), k)) ks in
  let fresh =
    Array.mapi
      (fun i k ->
        ((if i = 5 then G.one else fst pairs.(i mod 17)), if i = 9 then G.Scalar.zero else k))
      ks
  in
  let many ?pool () =
    let k, f = G.pow_many ?pool ~fresh keyed in
    bytes_of k ^ bytes_of f
  in
  let ref_many = many () in
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          let tag s = Printf.sprintf "%s %s (domains=%d)" name s domains in
          Alcotest.(check string) (tag "pow_gen_batch") ref_gen
            (bytes_of (G.pow_gen_batch ~pool:p ks));
          Alcotest.(check string) (tag "pow_batch") ref_pow
            (bytes_of (G.pow_batch ~pool:p base ks));
          Alcotest.(check string) (tag "msm") ref_msm (G.to_bytes (G.msm ~pool:p pairs));
          Alcotest.(check string) (tag "pow_many") ref_many (many ~pool:p ())))
    pool_sizes

let test_pooled_group_ops_identical_zp () =
  check_backend "zp" (Atom_group.Registry.zp_test ()) ~n:150

let test_pooled_group_ops_identical_p256 () =
  (* Past both pooled-MSM thresholds (Straus chunking at 64, Pippenger at
     200) without making the test slow. *)
  check_backend "p256" (Atom_group.Registry.p256 ()) ~n:210

(* Shuffle prove/verify: same seed must yield the same proof bytes and the
   same verdict for every pool size (randomness is drawn on the caller). *)
let test_pooled_shuffle_proof_identical () =
  let module G = (val Atom_group.Registry.zp_test ()) in
  let module El = Atom_elgamal.Elgamal.Make (G) in
  let module Shuf = Atom_zkp.Shuffle_proof.Make (G) (El) in
  let n = 48 in
  let make_proof ?pool () =
    let rng = Atom_util.Rng.create 0x5f1e in
    let kp = El.keygen rng in
    let units =
      Array.init n (fun _ -> fst (El.enc_vec ?pool rng kp.El.pk [| G.random rng; G.random rng |]))
    in
    match El.shuffle_vec ?pool rng kp.El.pk units with
    | None -> Alcotest.fail "shuffle failed"
    | Some (shuffled, witness) ->
        let pi =
          Shuf.prove ?pool rng ~pk:kp.El.pk ~context:"exec-test" ~input:units ~output:shuffled
            ~witness
        in
        (kp.El.pk, units, shuffled, Shuf.to_bytes pi)
  in
  let pk, input, output, ref_bytes = make_proof () in
  let pi = match Shuf.of_bytes ref_bytes with Some pi -> pi | None -> Alcotest.fail "decode" in
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          let _, _, _, bytes = make_proof ~pool:p () in
          Alcotest.(check string)
            (Printf.sprintf "proof bytes (domains=%d)" domains)
            ref_bytes bytes;
          Alcotest.(check bool)
            (Printf.sprintf "pooled verify accepts (domains=%d)" domains)
            true
            (Shuf.verify ~pool:p ~pk ~context:"exec-test" ~input ~output pi)))
    pool_sizes

(* One shared Zp group instance hammered from several systhreads: the
   per-op scratch checkout in Modarith must keep concurrent threads off
   each other's accumulators. Wrong answers, not crashes, are the failure
   mode scratch corruption would produce. *)
let test_shared_group_systhread_safety () =
  let module G = (val Atom_group.Registry.zp_test ()) in
  let rng = Atom_util.Rng.create 0x7a51 in
  let ks = Array.init 64 (fun _ -> G.Scalar.random rng) in
  let want = Array.map (fun k -> G.to_bytes (G.pow_gen k)) ks in
  let failures = Atomic.make 0 in
  let threads =
    List.init 8 (fun t ->
        Thread.create
          (fun () ->
            for rep = 0 to 19 do
              let i = (t + (rep * 13)) mod Array.length ks in
              if G.to_bytes (G.pow_gen ks.(i)) <> want.(i) then Atomic.incr failures
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "no corrupted results" 0 (Atomic.get failures)

(* ---- the simulator round is oblivious to the default pool ---- *)

let traced_round () =
  let seed = 23 in
  let config = Atom_core.Config.tiny ~variant:Atom_core.Config.Nizk ~seed () in
  let module G = (val Atom_group.Registry.zp_test ()) in
  let module F = Atom_rpc.Fleet.Make (G) in
  let obs = Atom_obs.Ctx.create ~tracing:true () in
  let report = F.run ~obs (Atom_rpc.Fleet.Sim { loss = 0. }) config (Round { users = 6 }) in
  Alcotest.(check bool) "round matched" true report.outcome.matched;
  (report.latency, Atom_obs.Trace.to_chrome_json_lanes report.lanes)

let test_sim_trace_unchanged_with_pool () =
  let prev = Pool.default () in
  let l0, j0 = traced_round () in
  with_pool 3 (fun p ->
      Pool.set_default (Some p);
      Fun.protect
        ~finally:(fun () -> Pool.set_default prev)
        (fun () ->
          let l1, j1 = traced_round () in
          Alcotest.(check (float 0.)) "same virtual latency" l0 l1;
          Alcotest.(check string) "byte-identical trace" j0 j1))

let suite =
  ( "exec",
    [
      Alcotest.test_case "pool covers all indices" `Quick test_pool_covers_all_indices;
      Alcotest.test_case "tabulate matches init" `Quick test_pool_tabulate_matches_init;
      Alcotest.test_case "pool small sizes" `Quick test_pool_small_sizes;
      Alcotest.test_case "concurrent callers take turns" `Quick test_pool_concurrent_callers;
      Alcotest.test_case "short jobs run alone" `Quick test_pool_short_jobs_run_alone;
      Alcotest.test_case "nested runs inline and counted" `Quick test_pool_nested_counted;
      Alcotest.test_case "failed job releases waiter" `Quick test_pool_failure_releases_waiter;
      Alcotest.test_case "chunk override identity" `Quick test_pool_chunk_identity;
      Alcotest.test_case "auto_domains host guard" `Quick test_auto_domains_host_guard;
      Alcotest.test_case "of_domains resolution" `Quick test_of_domains;
      Alcotest.test_case "exceptions propagate" `Quick test_pool_propagates_exception;
      Alcotest.test_case "nested run degrades" `Quick test_pool_nested_run_degrades;
      Alcotest.test_case "pooled ops identical (zp)" `Quick test_pooled_group_ops_identical_zp;
      Alcotest.test_case "pooled ops identical (p256)" `Slow test_pooled_group_ops_identical_p256;
      Alcotest.test_case "pooled shuffle proof identical" `Quick
        test_pooled_shuffle_proof_identical;
      Alcotest.test_case "shared group across threads" `Quick test_shared_group_systhread_safety;
      Alcotest.test_case "sim trace unchanged with pool" `Quick
        test_sim_trace_unchanged_with_pool;
    ] )
