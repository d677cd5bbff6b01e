(* Explorable synchronization scenarios.

   Each scenario is a small, closed multi-thread program (2-3 threads,
   one or two sync objects) bundled with a pass/fail judgement, written
   as a pure function of the installed schedule: boot a fresh machine,
   run it to a horizon, inspect.  {!Sunos_sim.Explore} re-runs the
   function once per interleaving, so the judgement must depend on
   nothing but the decision vector — every ref is allocated inside the
   run, and the sanitizer is reset around it.

   The set re-verifies the repo's schedule-sensitive fixes by
   exhaustion: the rwlock-upgrade scenario is the BUG 14 shape, the
   sigwaiting-rearm scenario the chaos-EINTR re-arm fix, and the
   lock-chain pair shows the explorer finding a real three-lock
   deadlock (expected failures) that the consistently-ordered variant
   never exhibits. *)

module Time = Sunos_sim.Time
module Explore = Sunos_sim.Explore
module Faultgen = Sunos_sim.Faultgen
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Signo = Sunos_kernel.Signo
module Sigset = Sunos_kernel.Sigset
module Sysdefs = Sunos_kernel.Sysdefs
module Errno = Sunos_kernel.Errno
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Mutex = Sunos_threads.Mutex
module Condvar = Sunos_threads.Condvar
module Rwlock = Sunos_threads.Rwlock
module Semaphore = Sunos_threads.Semaphore
module Syncvar = Sunos_threads.Syncvar
module Thrsan = Sunos_threads.Thrsan

type t = {
  sc_name : string;
  sc_descr : string;
  sc_expect_fail : bool;
  sc_run : unit -> Explore.outcome;
}

(* ------------------------- shared plumbing --------------------------- *)

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

(* Every explored schedule runs sanitized; reset keeps state (order
   graph, reports, shared-object registry) from leaking between the
   thousands of boots one exhaustion performs. *)
let with_san f =
  Thrsan.reset ();
  Thrsan.enable ();
  Fun.protect
    ~finally:(fun () ->
      Thrsan.set_lock_order_mode false;
      Thrsan.disable ())
    f

(* Judge a finished run.  Priority: a still-alive scenario process is a
   hang (the sanitizer's drain hook usually has the detail); a non-zero
   exit is a crash or an in-fiber sanitizer report; exit 0 defers to the
   scenario's own invariants. *)
let judge k ~pid invariants =
  if Kernel.proc_alive k pid then
    match Thrsan.last_hang () with
    | Some h -> Explore.Fail ("hang: " ^ first_line h.Thrsan.hr_text)
    | None -> Explore.Fail "hang: scenario process alive at horizon"
  else
    match Kernel.exit_status k pid with
    | Some 0 -> (
        match List.find_opt (fun (_, ok) -> not ok) invariants with
        | Some (what, _) -> Explore.Fail ("invariant: " ^ what)
        | None -> Explore.Pass)
    | Some s -> (
        match Thrsan.last_deadlock () with
        | Some d ->
            Explore.Fail
              (Printf.sprintf "exit %d: %s" s (first_line d.Thrsan.dl_text))
        | None -> Explore.Fail (Printf.sprintf "exit status %d" s))
    | None -> Explore.Fail "scenario process never finished"

(* Boot-run-judge for threads-library scenarios.  [invariants] is read
   after the run so the refs the main closure writes are settled. *)
let run_app ?(cpus = 1) ?(until = Time.ms 100) ~main ~invariants () =
  with_san (fun () ->
      let k = Kernel.boot ~cpus () in
      Thrsan.watch k;
      let pid = Kernel.spawn k ~name:"sc" ~main:(Libthread.boot main) in
      Kernel.run ~until ~max_events:500_000 k;
      judge k ~pid (invariants ()))

(* --------------------------- scenarios ------------------------------- *)

let sc_mutex_condvar =
  {
    sc_name = "mutex-condvar";
    sc_descr = "producer/consumer handshake over a mutex and condvar";
    sc_expect_fail = false;
    sc_run =
      (fun () ->
        let got = ref false in
        run_app
          ~main:(fun () ->
            let m = Mutex.create () and cv = Condvar.create () in
            let ready = ref false in
            let consumer =
              T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                  Mutex.enter m;
                  while not !ready do
                    Condvar.wait cv m
                  done;
                  got := true;
                  Mutex.exit m)
            in
            let producer =
              T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                  Mutex.enter m;
                  ready := true;
                  Condvar.signal cv;
                  Mutex.exit m)
            in
            ignore (T.wait ~thread:consumer ());
            ignore (T.wait ~thread:producer ()))
          ~invariants:(fun () -> [ ("consumer observed the flag", !got) ])
          ());
  }

let sc_semaphore_handoff =
  {
    sc_name = "semaphore-handoff";
    sc_descr = "two consumers drain exactly the two tokens one producer posts";
    sc_expect_fail = false;
    sc_run =
      (fun () ->
        let served = ref 0 in
        run_app
          ~main:(fun () ->
            let sem = Semaphore.create () in
            let consumer () =
              T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                  Semaphore.p sem;
                  incr served)
            in
            let c1 = consumer () and c2 = consumer () in
            let producer =
              T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                  Semaphore.v sem;
                  T.yield ();
                  Semaphore.v sem)
            in
            ignore (T.wait ~thread:c1 ());
            ignore (T.wait ~thread:c2 ());
            ignore (T.wait ~thread:producer ());
            (* both tokens consumed, none conjured *)
            assert (Semaphore.count sem = 0))
          ~invariants:(fun () -> [ ("both consumers served", !served = 2) ])
          ());
  }

(* The BUG 14 shape (test_regressions has the narrative): a reader
   holds the lock while a second reader upgrades — the upgrader parks
   pending promotion — and a thread-directed signal lands on the parked
   upgrader just as the last reader's exit promotes it.  The helper
   publishes "I am reading" through a semaphore so every schedule
   reaches the contended-upgrade window; with [Rwlock.bug14_bare_upgrader]
   on, some interleaving loses the handler or dispatches a phantom runq
   entry, and exhaustion must find it. *)
let sc_rwlock_upgrade =
  {
    sc_name = "rwlock-upgrade";
    sc_descr = "signal lands on a parked rwlock upgrader during promotion";
    sc_expect_fail = false;
    sc_run =
      (fun () ->
        let upgraded = ref false and handler_ran = ref false in
        run_app ~cpus:2
          ~main:(fun () ->
            (* two LWPs under four threads: the pool run queue is where
               the contention lives, so the explorer's thread-level
               choices (the site with lock footprints) get exercised *)
            T.setconcurrency 2;
            ignore
              (T.sigaction Signo.sigusr1
                 (Sysdefs.Sig_handler
                    (fun _ ->
                      handler_ran := true;
                      Uctx.charge_us 3000)));
            let rw = Rwlock.create () in
            let reading = Semaphore.create () in
            let w =
              T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                  (* only upgrade against a lock both readers hold *)
                  Semaphore.p reading;
                  Semaphore.p reading;
                  Rwlock.enter rw Rwlock.Reader;
                  if Rwlock.try_upgrade rw then upgraded := true;
                  Rwlock.exit rw)
            in
            (* second reader: its exit order against the killer reader
               varies with the schedule, so the promotion (last reader
               out) slides across the signal window *)
            let helper2 =
              T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                  Rwlock.enter rw Rwlock.Reader;
                  Semaphore.v reading;
                  for _ = 1 to 2 do
                    Uctx.charge_us 500
                  done;
                  Rwlock.exit rw)
            in
            let helper =
              T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                  Rwlock.enter rw Rwlock.Reader;
                  Semaphore.v reading;
                  (* chunked charges: each boundary is a dispatch
                     choice, so the explorer can slide the upgrader's
                     park anywhere inside the read window *)
                  for _ = 1 to 4 do
                    Uctx.charge_us 500
                  done;
                  (* this reader still holds the lock, so w cannot have
                     upgraded yet: the signal always lands on a live
                     thread, in every schedule *)
                  T.kill w Signo.sigusr1;
                  Uctx.charge_us 50;
                  Rwlock.exit rw)
            in
            ignore (T.wait ~thread:helper ());
            ignore (T.wait ~thread:helper2 ());
            ignore (T.wait ~thread:w ()))
          ~invariants:(fun () ->
            [
              ("upgrade completed", !upgraded);
              ("signal handler ran", !handler_ran);
            ])
          ());
  }

let sc_robust_ownerdead =
  {
    sc_name = "robust-ownerdead";
    sc_descr = "OWNERDEAD repair of a shared robust mutex whose holder died";
    sc_expect_fail = false;
    sc_run =
      (fun () ->
        let repaired = ref 0 and acquired = ref 0 in
        run_app
          ~main:(fun () ->
            let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
            let m =
              Mutex.create_shared ~robust:true (Syncvar.place seg ~offset:0)
            in
            let pid =
              (* the child dies holding the lock *)
              Uctx.fork1
                ~child_main:(Libthread.boot (fun () -> Mutex.enter m))
            in
            ignore (Uctx.waitpid ~pid ());
            (* two survivors race for the dead owner's lock: exactly one
               sees OWNERDEAD and repairs, the other gets it clean *)
            let survivor () =
              T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                  (match Mutex.enter_robust m with
                  | `Owner_dead ->
                      incr repaired;
                      Mutex.set_consistent m
                  | `Locked -> ());
                  incr acquired;
                  Mutex.exit m)
            in
            let s1 = survivor () and s2 = survivor () in
            ignore (T.wait ~thread:s1 ());
            ignore (T.wait ~thread:s2 ()))
          ~invariants:(fun () ->
            [
              ("exactly one survivor repaired", !repaired = 1);
              ("both survivors acquired after the death", !acquired = 2);
            ])
          ());
  }

(* Three threads, three locks, circular acquisition order: t1 takes
   A then B, t2 B then C, t3 C then A.  Most schedules complete; the
   ones that park all three mid-chain close the waits-for cycle and the
   sanitizer kills the process (exit 139).  Exhaustion must FIND those
   schedules — this is the real-deadlock companion to the BUG 13
   transitive order check, run with order mode off so only the actual
   cycle (not the potential) trips. *)
let lock_chain_run ~third () =
  run_app
    ~main:(fun () ->
      let a = Mutex.create ()
      and b = Mutex.create ()
      and c = Mutex.create () in
      let grab x y =
        T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
            Mutex.enter x;
            T.yield ();
            Mutex.enter y;
            Mutex.exit y;
            Mutex.exit x)
      in
      let t1 = grab a b
      and t2 = grab b c
      and t3 = (match third with `Cyclic -> grab c a | `Ordered -> grab a c) in
      ignore (T.wait ~thread:t1 ());
      ignore (T.wait ~thread:t2 ());
      ignore (T.wait ~thread:t3 ()))
    ~invariants:(fun () -> [])
    ()

let sc_lock_chain =
  {
    sc_name = "lock-chain";
    sc_descr = "three-lock circular order: some schedules truly deadlock";
    sc_expect_fail = true;
    sc_run = lock_chain_run ~third:`Cyclic;
  }

let sc_lock_ordered =
  {
    sc_name = "lock-ordered";
    sc_descr = "same three locks in one global order: no schedule deadlocks";
    sc_expect_fail = false;
    sc_run = lock_chain_run ~third:`Ordered;
  }

(* The SIGWAITING re-arm scenario from the chaos suite, judged as an
   explorable outcome: a chaos-EINTR'd sleep (timeout path) must re-arm
   the all-LWPs-blocked edge so it fires a second time.  Raw kernel
   code, no thread library; the schedule choices are kernel dispatch
   and wakeup order. *)
let eintr_all = { Faultgen.off with label = "eintr-all"; eintr_sleep = 1.0 }

let sc_sigwaiting_rearm =
  {
    sc_name = "sigwaiting-rearm";
    sc_descr = "timeout-EINTR re-arms the SIGWAITING all-blocked edge";
    sc_expect_fail = false;
    sc_run =
      (fun () ->
        let got_eintr = ref false in
        with_san (fun () ->
            let k = Kernel.boot ~cpus:1 ~chaos:eintr_all () in
            Thrsan.watch k;
            (* judge on the blocker's OWN edges: the global counter also
               counts the watcher's indefinite sleep firing the watcher's
               edge, which would mask a missing re-arm in the blocker *)
            Kernel.set_tracing k true;
            Kernel.set_trace_tags k (Some [ "sigwaiting" ]);
            let target_pid = ref 0 in
            let main () =
              ignore
                (Uctx.sigaction Signo.sigusr1
                   (Sysdefs.Sig_handler (fun _ -> ())));
              let b_r, _b_w = Uctx.pipe () in
              let a_r, _a_w = Uctx.pipe () in
              ignore
                (Uctx.lwp_create
                   ~entry:(fun () ->
                     Uctx.sigprocmask Sigset.Sig_block
                       (Sigset.of_list [ Signo.sigusr1 ]);
                     ignore (Uctx.read b_r ~len:1))
                   ());
              (match Uctx.syscall (Sysdefs.Sys_read (a_r, 1)) with
              | Sysdefs.R_err Errno.EINTR -> got_eintr := true
              | _ -> ());
              (* long enough for Uctx.sleep to retry: the SIGUSR1 is
                 still deliverable at sleep entry (the raw read above
                 has no checkpoint), so the first nanosleep fails on
                 the signal path (no re-arm, by design) — the retry
                 after its checkpoint is the pure timeout-EINTR whose
                 re-arm is under test *)
              Uctx.sleep (Time.ms 1);
              ignore (Uctx.syscall (Sysdefs.Sys_read (a_r, 1)))
            in
            target_pid := Kernel.spawn k ~name:"blocker" ~main;
            ignore
              (Kernel.spawn k ~name:"watcher" ~main:(fun () ->
                   Uctx.sleep (Time.ms 2);
                   Uctx.kill ~pid:!target_pid Signo.sigusr1));
            Kernel.run ~max_events:500_000 k;
            let blocker_edges =
              List.length
                (List.filter
                   (fun r ->
                     r.Sunos_sim.Tracebuf.kind = Sunos_sim.Tracebuf.Sigwaiting
                     && r.Sunos_sim.Tracebuf.pid = !target_pid)
                   (Kernel.trace_records k))
            in
            if not !got_eintr then
              Explore.Fail "signal did not interrupt the pipe read"
            else if blocker_edges < 2 then
              Explore.Fail "all-blocked edge not re-armed after timeout-EINTR"
            else Explore.Pass));
  }

(* --------------------------- registry -------------------------------- *)

let all =
  [
    sc_mutex_condvar;
    sc_semaphore_handoff;
    sc_rwlock_upgrade;
    sc_robust_ownerdead;
    sc_lock_chain;
    sc_lock_ordered;
    sc_sigwaiting_rearm;
  ]

let find name = List.find_opt (fun sc -> sc.sc_name = name) all

(* --------------------------- driving --------------------------------- *)

let explore ?dpor ?max_schedules ?stop_on_first_failure ?(repro_dir = ".") sc =
  let stats =
    Explore.explore ?dpor ?max_schedules ?stop_on_first_failure sc.sc_run
  in
  (match stats.Explore.failures with
  | f :: _ when not sc.sc_expect_fail ->
      (* unexpected: leave a standalone-replayable repro behind *)
      let path =
        Filename.concat repro_dir (Explore.repro_path ~scenario:sc.sc_name)
      in
      Explore.write_repro ~path ~scenario:sc.sc_name
        ~reason:f.Explore.f_reason ~vector:f.Explore.f_vector
  | _ -> ());
  stats

let replay sc ~vector =
  let outcome, _log, diverged = Explore.run_vector ~vector sc.sc_run in
  (outcome, diverged)
