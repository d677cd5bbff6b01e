(* Ablation benchmarks: the design choices DESIGN.md calls out, each run
   as a controlled comparison.  See EXPERIMENTS.md for the claims. *)

module Time = Sunos_sim.Time
module Hist = Sunos_sim.Stats.Hist
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Mutex = Sunos_threads.Mutex
module Thrsan = Sunos_threads.Thrsan
module W = Sunos_workloads.Window_system
module Db = Sunos_workloads.Database
module Microbench = Sunos_workloads.Microbench
module Cost = Sunos_hw.Cost_model
module S = Sunos_workloads.Net_server
module A = Sunos_workloads.Array_compute

let section title = Bout.printf "\n=== %s ===\n\n" title

let p50_ms h =
  if Hist.count h = 0 then nan else Time.to_ms (Hist.percentile h 0.5)

let p99_ms h =
  if Hist.count h = 0 then nan else Time.to_ms (Hist.percentile h 0.99)

(* same, for the log-bucketed histograms net_server now reports *)
let hp50_ms h =
  if Sunos_sim.Histogram.count h = 0 then nan
  else Time.to_ms (Sunos_sim.Histogram.percentile h 0.5)

let hp99_ms h =
  if Sunos_sim.Histogram.count h = 0 then nan
  else Time.to_ms (Sunos_sim.Histogram.percentile h 0.99)

(* A1: thread-model comparison on the two motivating workloads. *)
let models () =
  section "A1: M:N vs 1:1 vs user-only vs activations";
  let wp = { W.default_params with widgets = 150; events = 400 } in
  Bout.printf "window system (%d widgets, %d events):\n" wp.W.widgets
    wp.W.events;
  Bout.printf "  %-12s %8s %6s %12s %12s %12s\n" "model" "threads" "LWPs"
    "p50 (ms)" "p99 (ms)" "makespan";
  List.iter
    (fun (module M : Sunos_baselines.Model.S) ->
      let r = W.run (module M) ~cpus:2 wp in
      Bout.printf "  %-12s %8d %6d %12.2f %12.2f %9.0f ms\n" M.name
        r.W.threads_created r.W.lwps_created (p50_ms r.W.latency)
        (p99_ms r.W.latency)
        (Time.to_ms r.W.makespan))
    Sunos_baselines.Model.all;
  let sp = S.default_params in
  Bout.printf
    "\nnetwork server (%d connections x %d requests, 1/%d hit the disk):\n"
    sp.S.connections sp.S.requests_per_conn sp.S.disk_every;
  Bout.printf "  %-12s %8s %6s %12s %12s %12s\n" "model" "served" "LWPs"
    "p50 (ms)" "p99 (ms)" "req/s";
  List.iter
    (fun (module M : Sunos_baselines.Model.S) ->
      let r = S.run (module M) ~cpus:1 sp in
      Bout.printf "  %-12s %8d %6d %12.2f %12.2f %12.0f\n" M.name r.S.served
        r.S.lwps_created (hp50_ms r.S.latency) (hp99_ms r.S.latency)
        r.S.throughput_rps)
    Sunos_baselines.Model.all

(* A2: SIGWAITING pool growth vs growth disabled. *)
let sigwaiting () =
  section "A2: SIGWAITING deadlock avoidance";
  let run_case ~auto_grow =
    let k = Kernel.boot ~cpus:2 () in
    (* the sanitizer's hang diagnosis watches the deadlocking case and
       explains it below the table *)
    if not auto_grow then begin
      Thrsan.reset ();
      Thrsan.enable ();
      Thrsan.watch k
    end;
    let unblocked = ref false in
    ignore
      (Kernel.spawn k ~name:"case"
         ~main:
           (Libthread.boot ~auto_grow (fun () ->
                let rfd, wfd = Uctx.pipe () in
                ignore
                  (T.create (fun () -> ignore (Uctx.write wfd "go")));
                (* the main thread blocks in the kernel before the helper
                   ever runs; without pool growth this deadlocks *)
                let got = Uctx.read rfd ~len:10 in
                if got = "go" then unblocked := true)));
    Kernel.run ~until:(Time.s 5) k;
    if not auto_grow then Thrsan.disable ();
    (!unblocked, Kernel.sigwaiting_count k, Kernel.lwp_create_count k)
  in
  let ok_on, sw_on, lwps_on = run_case ~auto_grow:true in
  let ok_off, sw_off, lwps_off = run_case ~auto_grow:false in
  Bout.printf "  %-22s %10s %12s %6s\n" "configuration" "completed"
    "SIGWAITINGs" "LWPs";
  Bout.printf "  %-22s %10b %12d %6d\n" "auto_grow=true" ok_on sw_on lwps_on;
  Bout.printf "  %-22s %10b %12d %6d   <- deadlocked\n" "auto_grow=false"
    ok_off sw_off lwps_off;
  match Thrsan.last_hang () with
  | None -> ()
  | Some h ->
      Bout.printf "\n  thrsan hang diagnosis of auto_grow=false:\n";
      String.split_on_char '\n' h.Thrsan.hr_text
      |> List.iter (fun line -> Bout.printf "    %s\n" line)

(* A3: mutex variants under contention.  Three bound threads on two CPUs
   hammer one lock with desynchronized think times, so collisions are
   constant.  Makespan shows the handoff cost; consumed CPU shows what
   spinning burns. *)
let mutexes () =
  section "A3: spin vs sleep vs adaptive mutexes (2 CPUs, 3 bound threads)";
  let row label ?cost v =
    let short = Microbench.mutex_contention ?cost v ~cs_us:40 in
    let long = Microbench.mutex_contention ?cost v ~cs_us:3000 in
    Bout.printf "  %-10s %12.2f ms %7.1f ms %12.2f ms %7.1f ms\n" label
      short.Microbench.makespan_ms short.Microbench.cpu_ms
      long.Microbench.makespan_ms long.Microbench.cpu_ms
  in
  Bout.printf "  %-10s %26s %26s\n" "variant" "short CS (40us)"
    "long CS (3000us)";
  Bout.printf "  %-10s %15s %10s %15s %10s\n" "" "makespan" "cpu" "makespan"
    "cpu";
  List.iter
    (fun (name, v) -> row name v)
    [ ("spin", Mutex.Spin); ("sleep", Mutex.Sleep); ("adaptive", Mutex.Adaptive) ];
  (* the adaptive variant's spin budget, swept through the cost model
     (Basic Lock Algorithms in Lightweight Thread Environments): a short
     budget degenerates to sleep, an over-long one to spin *)
  Bout.printf "\nadaptive spin budget sweep (probes before sleeping):\n";
  Bout.printf "  %-10s %26s %26s\n" "budget" "short CS (40us)"
    "long CS (3000us)";
  List.iter
    (fun limit ->
      let cost = { Cost.default with adaptive_spin_limit = limit } in
      row (string_of_int limit) ~cost Mutex.Adaptive)
    Microbench.spin_budgets

(* A4: fork vs fork1 as the LWP population grows. *)
let forks () =
  section "A4: fork() vs fork1() cost vs LWP count";
  let measure ~lwps ~use_fork =
    let k = Kernel.boot () in
    Kernel.set_tracing k false;
    let elapsed = ref 0L in
    ignore
      (Kernel.spawn k ~name:"forker"
         ~main:
           (Libthread.boot (fun () ->
                for _ = 2 to lwps do
                  ignore
                    (T.create ~flags:[ T.THREAD_BIND_LWP ] (fun () ->
                         Uctx.sleep (Time.s 2)))
                done;
                Uctx.charge_us 50;
                let t0 = Uctx.gettime () in
                let f = if use_fork then Uctx.fork else Uctx.fork1 in
                ignore (f ~child_main:(fun () -> Uctx.exit 0));
                elapsed := Time.diff (Uctx.gettime ()) t0;
                Uctx.exit 0)));
    Kernel.run k;
    Time.to_ms !elapsed
  in
  Bout.printf "  %-8s %14s %14s\n" "LWPs" "fork() (ms)" "fork1() (ms)";
  List.iter
    (fun lwps ->
      Bout.printf "  %-8d %14.2f %14.2f\n" lwps
        (measure ~lwps ~use_fork:true)
        (measure ~lwps ~use_fork:false))
    [ 1; 4; 16; 64 ]

(* A5: the array workload's thread placement argument. *)
let array () =
  section "A5: parallel array: unbound multiplexing vs bound-per-CPU vs gang";
  let cpus = 4 in
  Bout.printf "  %-26s %12s %10s\n" "configuration" "makespan" "switches";
  List.iter
    (fun (label, mode, spin, load) ->
      let r =
        A.run ~cpus ~background_load:load
          { A.default_params with mode; spin_barrier = spin }
      in
      Bout.printf "  %-26s %9.1f ms %10d\n" label
        (Time.to_ms r.A.makespan) r.A.thread_switches)
    [
      ("unbound x64", A.Unbound 64, false, false);
      ("unbound x16", A.Unbound 16, false, false);
      ("unbound x4", A.Unbound 4, false, false);
      ("bound 1/CPU", A.Bound, false, false);
      ("bound+gang", A.Bound_gang, false, false);
      ("bound, spin, loaded", A.Bound, true, true);
      ("bound+gang, spin, loaded", A.Bound_gang, true, true);
    ]

(* A6: timeshare quantum keeps interactive threads responsive. *)
let sched () =
  section "A6: timeshare preemption vs a CPU hog";
  let run_case ~quantum_ms =
    let cost =
      {
        Sunos_hw.Cost_model.default with
        Sunos_hw.Cost_model.quantum = Time.ms quantum_ms;
      }
    in
    let k = Kernel.boot ~cpus:1 ~cost () in
    Kernel.set_tracing k false;
    let lat = Hist.create "wakeups" in
    ignore
      (Kernel.spawn k ~name:"hog" ~main:(fun () -> Uctx.charge (Time.s 2)));
    ignore
      (Kernel.spawn k ~name:"interactive" ~main:(fun () ->
           for _ = 1 to 20 do
             let t0 = Uctx.gettime () in
             Uctx.sleep (Time.ms 50);
             (* how late past the nominal 50ms did we actually run? *)
             Hist.add lat (Time.diff (Uctx.gettime ()) (Time.add t0 (Time.ms 50)))
           done));
    Kernel.run k;
    lat
  in
  Bout.printf "  %-18s %16s %16s\n" "quantum" "wakeup lag p50" "wakeup lag p99";
  List.iter
    (fun q ->
      let h = run_case ~quantum_ms:q in
      Bout.printf "  %-15d ms %13.2f ms %13.2f ms\n" q (p50_ms h) (p99_ms h))
    [ 10; 100; 1000 ]

(* A7: the LWP interface as a language-runtime substrate (Fortran
   microtasking), vs the same loop on bound threads. *)
let microtask () =
  section "A7: microtasking on raw LWPs vs bound threads (4 CPUs)";
  let module M = Sunos_workloads.Microtask in
  Bout.printf "  %-22s %14s %14s
" "grain per iteration" "raw LWPs"
    "bound threads";
  List.iter
    (fun grain_us ->
      let p = { M.default_params with M.grain_us; doalls = 10 } in
      let raw = M.run ~cpus:4 { p with M.mode = M.Raw_lwps } in
      let thr = M.run ~cpus:4 { p with M.mode = M.Bound_threads } in
      Bout.printf "  %-19dus %11.2f ms %11.2f ms
" grain_us
        (Time.to_ms raw.M.makespan)
        (Time.to_ms thr.M.makespan))
    [ 50; 200; 1000 ]

(* A8: the Chorus comparison — broadcast signal delivery causes
   "synchronization storms"; SunOS hands each signal to ONE eligible
   thread.  N threads wait for keyboard-like interrupts; M signals are
   sent; count handler executions and the post-handler lock contention. *)
let broadcast () =
  section "A8: SunOS single-delivery vs Chorus-style broadcast";
  let module Sem = Sunos_threads.Semaphore in
  let module Signo = Sunos_kernel.Signo in
  let module Sysdefs = Sunos_kernel.Sysdefs in
  let run_case ~broadcast =
    let k = Kernel.boot ~cpus:2 () in
    Kernel.set_tracing k false;
    let handler_runs = ref 0 and makespan = ref Time.zero in
    ignore
      (Kernel.spawn k ~name:"svc"
         ~main:
           (Libthread.boot (fun () ->
                let m = Mutex.create () in
                let stop = Sem.create () in
                ignore
                  (T.sigaction Signo.sigusr1
                     (Sysdefs.Sig_handler
                        (fun _ ->
                          incr handler_runs;
                          (* handlers synchronize afterwards: with
                             broadcast, every waiter piles onto the
                             lock — the "synchronization storm" *)
                          Mutex.enter m;
                          Uctx.charge_us 80;
                          Mutex.exit m)));
                let waiters =
                  List.init 8 (fun _ ->
                      T.create ~flags:[ T.THREAD_WAIT ] (fun () -> Sem.p stop))
                in
                T.yield ();
                for _ = 1 to 10 do
                  if broadcast then T.sigsend_all Signo.sigusr1
                  else Uctx.kill ~pid:(Uctx.getpid ()) Signo.sigusr1;
                  T.yield ();
                  Uctx.charge_us 200
                done;
                (* drain *)
                for _ = 1 to 8 do
                  Sem.v stop
                done;
                List.iter (fun t -> ignore (T.wait ~thread:t ())) waiters;
                makespan := Uctx.gettime ())));
    Kernel.run k;
    (!handler_runs, Time.to_ms !makespan)
  in
  let runs_single, t_single = run_case ~broadcast:false in
  let runs_bcast, t_bcast = run_case ~broadcast:true in
  Bout.printf "  %-28s %14s %12s
" "delivery (10 signals sent)"
    "handler runs" "makespan";
  Bout.printf "  %-28s %14d %9.2f ms
" "SunOS: one eligible thread"
    runs_single t_single;
  Bout.printf "  %-28s %14d %9.2f ms   <- storm
"
    "Chorus-style broadcast" runs_bcast t_bcast;
  Bout.printf
    "  (broadcast also makes the number of signals received uncountable,      as the paper notes)
"

(* A9: run-ahead charge coalescing, off vs on.  Off, every charge is an
   event; on, a resumed fiber burns up to the event horizon before
   trapping back into the event queue.  This shows the wall-clock
   response and checks the invariant the design rests on: coalescing is
   invisible to the simulation, so every simulated figure must be
   bit-identical either way. *)
let coalesce () =
  section "A9: run-ahead charge coalescing, off vs on";
  let db_p =
    {
      Db.default_params with
      processes = 2;
      threads_per_process = 8;
      transactions_per_thread = 400;
      records = 2048;
      io_every = 25;
      mmap_io = true;
    }
  in
  Bout.printf "  %-8s %10s %16s %14s\n" "coalesce" "wall (s)"
    "sync bound (us)" "db makespan";
  let baseline = ref None in
  let drifted = ref false in
  List.iter
    (fun (name, cost) ->
      let t0 = Unix.gettimeofday () in
      let sy = Microbench.sync ~cost () in
      let r = Db.run ~cpus:2 ~cost db_p in
      let wall = Unix.gettimeofday () -. t0 in
      Bout.printf "  %-8s %10.3f %16.1f %11.2f ms\n" name wall
        sy.Microbench.bound_us
        (Time.to_ms r.Db.makespan);
      match !baseline with
      | None -> baseline := Some (sy, r.Db.makespan, r.Db.committed)
      | Some (sy0, mk0, c0) ->
          if not (sy0 = sy && mk0 = r.Db.makespan && c0 = r.Db.committed)
          then begin
            drifted := true;
            Bout.printf "  ^^^ SIMULATED RESULTS DRIFTED with coalescing %s\n"
              name
          end)
    [
      ("off", { Cost.default with coalesce = false });
      ("on", Cost.default);
    ];
  if !drifted then begin
    Printf.eprintf
      "ablation-coalesce: simulated results depend on coalescing\n";
    exit 1
  end


(* A10: fault-rate sweep.  The network-heavy chaos profile scaled from
   0x to 2x on the hardened server: the degradation curve should be
   graceful (served decays, shed/aborted absorb the rest) and the
   request-conservation invariant must hold at every point — no request
   may simply vanish, whatever the weather. *)
let chaos ?(smoke = false) () =
  section "A10: fault-rate sweep (hardened server, network-heavy chaos)";
  let module Faultgen = Sunos_sim.Faultgen in
  let base = Faultgen.network_heavy in
  let scale f =
    {
      base with
      Faultgen.label = Printf.sprintf "net-heavy-x%g" f;
      eintr_sleep = base.Faultgen.eintr_sleep *. f;
      eagain_sock = base.Faultgen.eagain_sock *. f;
      enomem_lwp = base.Faultgen.enomem_lwp *. f;
      conn_refuse = base.Faultgen.conn_refuse *. f;
      backlog_drop = base.Faultgen.backlog_drop *. f;
      conn_rst = base.Faultgen.conn_rst *. f;
      peer_stall = base.Faultgen.peer_stall *. f;
      preempt_storm = base.Faultgen.preempt_storm *. f;
      lwp_reap = base.Faultgen.lwp_reap *. f;
      fault_spike = base.Faultgen.fault_spike *. f;
      timer_jitter = base.Faultgen.timer_jitter *. f;
    }
  in
  let p =
    {
      S.default_params with
      connections = (if smoke then 10 else 40);
      requests_per_conn = 3;
      think_time_us = 1_000;
      workers = 4;
      concurrency = 4;
      client_concurrency = 10;
      listen_backlog = 16;
      connect_retry_limit = 12;
      retry_base_us = 300;
      request_deadline_us = 1_000_000;
      shed_queue_limit = 16;
    }
  in
  let total = p.S.connections * p.S.requests_per_conn in
  Bout.printf "  %-16s %7s %6s %8s %7s %8s %12s\n" "fault rate" "served"
    "shed" "aborted" "gaveup" "faults" "p99 (ms)";
  let violated = ref false in
  List.iter
    (fun f ->
      let faults = ref 0 in
      let r =
        S.run
          (module Sunos_baselines.Mt)
          ~cpus:2 ~chaos:(scale f)
          ~debrief:(fun k -> faults := Kernel.chaos_total k)
          p
      in
      let conserved = r.S.served + r.S.shed + r.S.aborted = total in
      if not conserved then violated := true;
      Bout.printf "  %-16s %7d %6d %8d %7d %8d %12.2f%s\n"
        (Printf.sprintf "%gx" f) r.S.served r.S.shed r.S.aborted r.S.gaveup
        !faults (hp99_ms r.S.latency)
        (if conserved then "" else "   <- REQUESTS LOST"))
    (if smoke then [ 0.; 1. ] else [ 0.; 0.25; 0.5; 1.; 1.5; 2. ]);
  (* Conservation at scale: the same invariant on the sharded epoll
     server under open-loop Poisson load at C100k connection counts.
     Chaos refuses connects, drops backlogs, resets and stalls
     connections mid-flight; arrivals that land on a dead or saturated
     connection are shed or aborted at the client, and the total must
     still account for every arrival. *)
  let scale_rows = if smoke then [ 1_000 ] else [ 10_000; 100_000 ] in
  Bout.printf
    "\nconservation at scale (epoll server, open loop, 1x net-heavy):\n";
  Bout.printf "  %8s %8s %6s %8s %7s %8s %12s\n" "conns" "served" "shed"
    "aborted" "gaveup" "faults" "p99 (ms)";
  List.iter
    (fun conns ->
      let p =
        {
          S.default_params with
          connections = conns;
          requests_per_conn = (if conns >= 10_000 then 1 else 2);
          parse_compute_us = 5;
          reply_compute_us = 5;
          disk_every = 0;
          epoll = true;
          open_loop = true;
          pollers = 4;
          workers = 32;
          concurrency = 40;
          connectors = 8;
          arrival_rate_rps = 600.;
          max_pending = 4;
          drain_grace_us = 5_000_000;
          listen_backlog = 64;
          connect_retry_limit = 12;
          retry_base_us = 300;
          shed_queue_limit = 64;
        }
      in
      let total = conns * p.S.requests_per_conn in
      let faults = ref 0 in
      let r =
        S.run
          (module Sunos_baselines.Mt)
          ~cpus:4 ~chaos:base
          ~debrief:(fun k -> faults := Kernel.chaos_total k)
          p
      in
      let conserved = r.S.served + r.S.shed + r.S.aborted = total in
      if not conserved then violated := true;
      Bout.printf "  %8d %8d %6d %8d %7d %8d %12.2f%s\n" conns r.S.served
        r.S.shed r.S.aborted r.S.gaveup !faults (hp99_ms r.S.latency)
        (if conserved then "" else "   <- REQUESTS LOST"))
    scale_rows;
  if !violated then begin
    Printf.eprintf
      "ablation-chaos: request conservation violated under fault injection\n";
    exit 1
  end

(* A11: proc-kill sweep on the kv store.  Chaos kills forked server
   processes at syscall boundaries — the batched flush makes "mid
   critical section, dirty list pending" the common case.  With robust
   shard locks the surviving servers repair (OWNERDEAD -> re-flush ->
   set-consistent) and keep serving; put conservation (applied + shed +
   aborted = issued) must hold at every kill rate — a put may die
   unacked (reported as applied-unacked), never vanish. *)
let kv_chaos ?(smoke = false) () =
  section "A11: proc-kill sweep (kv store, robust process-shared locks)";
  let module Faultgen = Sunos_sim.Faultgen in
  let module KV = Sunos_workloads.Kv_store in
  let kill rate =
    {
      Faultgen.off with
      Faultgen.label = Printf.sprintf "proc-kill-%g" rate;
      proc_kill = rate;
    }
  in
  let p =
    {
      KV.default_params with
      server_procs = 4;
      clients = (if smoke then 8 else 20);
      requests_per_client = (if smoke then 5 else 12);
      workers_per_server = (if smoke then 2 else 5);
      think_time_us = 500;
      (* maximum exposure: write-heavy, and batch=1 flushes every put,
         so most server syscalls run inside a shard critical section —
         a kill is very likely to leave a lock OWNERDEAD *)
      read_pct = 10;
      batch = 1;
      (* clients of a killed server must cut their losses quickly *)
      request_deadline_us = 150_000;
    }
  in
  let total = p.KV.clients * p.KV.requests_per_client in
  Bout.printf "  %-14s %6s %6s %5s %5s %7s %7s %7s %9s\n" "kill rate"
    "served" "shed" "abrt" "kills" "recov" "torn" "unacked" "p99 (ms)";
  let violated = ref false in
  List.iter
    (fun rate ->
      let weather = ref "" in
      let r =
        KV.run ~cpus:2 ~chaos:(kill rate)
          ~debrief:(fun k ->
            if Kernel.chaos_total k > 0 then
              weather :=
                Format.asprintf "    %a" Sunos_workloads.Chaos_report.pp k)
          p
      in
      let conserved = KV.puts_conserved r && KV.gets_conserved r in
      if not conserved then violated := true;
      Bout.printf "  %-14s %6d %6d %5d %5d %7d %7d %7d %9.2f%s\n"
        (Printf.sprintf "%gx" (rate /. 1e-4))
        (r.KV.gets_ok + r.KV.puts_applied)
        (r.KV.gets_shed + r.KV.puts_shed)
        (r.KV.gets_aborted + r.KV.puts_aborted)
        r.KV.killed r.KV.recoveries r.KV.torn_repaired
        (r.KV.server_applied - r.KV.puts_applied)
        (p99_ms r.KV.latency)
        (if conserved then "" else "   <- REQUESTS LOST");
      if !weather <> "" then Bout.printf "%s\n" !weather;
      ignore total)
    (if smoke then [ 0.; 2e-3 ] else [ 0.; 2e-4; 1e-3; 2e-3; 5e-3 ]);
  (* the control: the same weather without robust locks.  A killed
     holder leaves its shard locked forever — contenders block until
     their clients deadline out.  Conservation must still hold (the
     failure is safe, just dead). *)
  let cmp_rate = if smoke then 1e-2 else 1e-3 in
  Bout.printf "\nrobust on/off at one rate (kill rate %gx):\n"
    (cmp_rate /. 1e-4);
  List.iter
    (fun robust ->
      let r = KV.run ~cpus:2 ~chaos:(kill cmp_rate) { p with KV.robust } in
      let conserved = KV.puts_conserved r && KV.gets_conserved r in
      if not conserved then violated := true;
      Bout.printf "  %-14s %6d %6d %5d %5d %7d %7d %7d %9.2f%s\n"
        (if robust then "robust" else "non-robust")
        (r.KV.gets_ok + r.KV.puts_applied)
        (r.KV.gets_shed + r.KV.puts_shed)
        (r.KV.gets_aborted + r.KV.puts_aborted)
        r.KV.killed r.KV.recoveries r.KV.torn_repaired
        (r.KV.server_applied - r.KV.puts_applied)
        (p99_ms r.KV.latency)
        (if conserved then "" else "   <- REQUESTS LOST"))
    [ true; false ];
  if !violated then begin
    Printf.eprintf
      "ablation-kv-chaos: put/get conservation violated under proc-kill\n";
    exit 1
  end

let all () =
  models ();
  sigwaiting ();
  mutexes ();
  forks ();
  array ();
  microtask ();
  broadcast ();
  sched ();
  coalesce ();
  chaos ();
  kv_chaos ()
