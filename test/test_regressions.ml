(* Regression suite: each test pins a bug found (and fixed) while
   building this reproduction.  Comments name the failure mode so the
   test stays meaningful if it ever fires again. *)

module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Sysdefs = Sunos_kernel.Sysdefs
module Signo = Sunos_kernel.Signo
module Fs = Sunos_kernel.Fs
module Ktypes = Sunos_kernel.Ktypes
module Pipe = Sunos_kernel.Pipe
module Eventq = Sunos_sim.Eventq
module Machine = Sunos_hw.Machine
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Mutex = Sunos_threads.Mutex
module Semaphore = Sunos_threads.Semaphore
module Syncvar = Sunos_threads.Syncvar
module Rwlock = Sunos_threads.Rwlock
module Lockdebug = Sunos_threads.Lockdebug

let run_app ?(cpus = 1) main =
  let k = Kernel.boot ~cpus () in
  ignore (Kernel.spawn k ~name:"app" ~main:(Libthread.boot main));
  Kernel.run k;
  k

(* BUG 1: the "current thread register" was only restored on dispatcher
   resumes, not at charge boundaries, so whenever two LWPs interleaved
   mid-charge, library calls on the first LWP read the *other* LWP's
   current thread ("no current thread" crashes / wrong-owner errors).
   The fix restores it in every busy-completion. *)
let test_current_register_across_interleaving () =
  let ids_seen = ref [] in
  ignore
    (run_app ~cpus:2 (fun () ->
         let bound =
           T.create
             ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
             (fun () ->
               for _ = 1 to 20 do
                 Uctx.charge_us 30;
                 ids_seen := T.get_id () :: !ids_seen
               done)
         in
         for _ = 1 to 20 do
           Uctx.charge_us 30;
           ids_seen := T.get_id () :: !ids_seen
         done;
         ignore (T.wait ~thread:bound ())));
  let mine, theirs = List.partition (fun i -> i = 1) !ids_seen in
  Alcotest.(check int) "main always saw itself" 20 (List.length mine);
  Alcotest.(check bool) "bound always saw itself" true
    (List.for_all (fun i -> i = 2) theirs && List.length theirs = 20)

(* BUG 2: SIGWAITING was level-triggered; a process whose handler could
   not make progress (e.g. both sides of a cross-process ping-pong
   blocked in kwait) was interrupted in an infinite EINTR storm and the
   simulation never drained.  Now edge-triggered. *)
let test_no_sigwaiting_storm () =
  let k = Kernel.boot ~cpus:1 () in
  (match Fs.create_file (Kernel.fs k) ~path:"/s" () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "setup");
  let rounds = ref 0 in
  let peer name first () =
    let fd = Uctx.open_file "/s" in
    let seg = Uctx.mmap fd in
    let s1 = Semaphore.create_shared (Syncvar.place seg ~offset:0) in
    let s2 = Semaphore.create_shared (Syncvar.place seg ~offset:64) in
    ignore name;
    for _ = 1 to 20 do
      if first then begin
        Semaphore.v s2;
        Semaphore.p s1
      end
      else begin
        Semaphore.p s2;
        Semaphore.v s1
      end;
      incr rounds
    done
  in
  ignore (Kernel.spawn k ~name:"a" ~main:(Libthread.boot (peer "a" true)));
  ignore (Kernel.spawn k ~name:"b" ~main:(Libthread.boot (peer "b" false)));
  Kernel.run ~max_events:200_000 k;
  Alcotest.(check int) "both sides completed" 40 !rounds;
  Alcotest.(check bool) "no signal storm (bounded SIGWAITINGs)" true
    (Kernel.sigwaiting_count k < 50)

(* BUG 3: processor_bind of a *running* LWP never migrated it; the charge
   following the bind ran entirely on the old CPU. *)
let test_processor_bind_migrates_before_charging () =
  let k = Kernel.boot ~cpus:2 () in
  ignore
    (Kernel.spawn k ~name:"bind" ~main:(fun () ->
         Uctx.processor_bind (Some 1);
         Uctx.charge (Time.ms 8)));
  Kernel.run k;
  let m = Kernel.machine k in
  let busy c = Sunos_hw.Cpu.busy_time m.Machine.cpus.(c) ~now:(Kernel.now k) in
  Alcotest.(check bool) "work landed on cpu1" true Time.(busy 1 >= Time.ms 8)

(* BUG 4: structural equality on cyclic TCB records (owner = Some self)
   either always-false boxed comparisons or OOM on deep compare.  The
   fix uses physical comparisons; this test exercises the paths that
   crashed: mutex handoff and rwlock writer identification. *)
let test_ownership_identity_paths () =
  let order = ref [] in
  ignore
    (run_app (fun () ->
         let m = Mutex.create () in
         Mutex.enter m;
         let t =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               Mutex.enter m;
               order := "waiter" :: !order;
               Mutex.exit m)
         in
         T.yield ();
         order := "owner" :: !order;
         Mutex.exit m;
         ignore (T.wait ~thread:t ());
         Alcotest.(check bool) "not holding after exit" false (Mutex.holding m)));
  Alcotest.(check (list string)) "handoff order" [ "owner"; "waiter" ]
    (List.rev !order)

(* BUG 5: a long *finite* kernel sleep (nanosleep/poll-with-timeout) did
   not count as "indefinite", so it pinned its LWP while runnable
   threads starved — SIGWAITING never fired.  User-duration waits now
   count as indefinite. *)
let test_finite_sleep_does_not_starve_runnables () =
  let helper_ran_at = ref Time.zero in
  ignore
    (run_app ~cpus:2 (fun () ->
         ignore
           (T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                helper_ran_at := Uctx.gettime ()));
         (* the main thread parks its LWP in a 5-second kernel sleep
            before the helper ever runs *)
         Uctx.sleep (Time.s 5)));
  Alcotest.(check bool) "helper ran during the sleep, not after" true
    (Time.to_s !helper_ran_at < 1.)

(* BUG 6: the window-system pipeline lost events when shutdown tokens
   were delivered directly to downstream stages; kept as a workload-level
   conservation check. *)
let test_pipeline_conservation () =
  let module W = Sunos_workloads.Window_system in
  let p = { W.default_params with widgets = 10; events = 40 } in
  let r = W.run (module Sunos_baselines.Mt) ~cpus:1 p in
  Alcotest.(check int) "every event rendered" 40 r.W.handled

(* BUG 7: waking a thread blocked on a sync object via a routed signal
   left a stale waitq entry; a subsequent wake could then be consumed by
   the stale entry (double-wake / lost-wake).  The cancel-closure scheme
   prevents it. *)
let test_signal_wake_leaves_no_stale_waitq_entry () =
  let handled = ref false in
  ignore
    (run_app (fun () ->
         ignore
           (T.sigaction Signo.sigusr1
              (Sysdefs.Sig_handler (fun _ -> handled := true)));
         let s = Semaphore.create () in
         let sleeper =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               Semaphore.p s;
               Semaphore.p s)
         in
         T.yield ();
         (* wake it out-of-band: it runs the handler and re-blocks *)
         T.kill sleeper Signo.sigusr1;
         T.yield ();
         (* two real tokens must satisfy exactly its two Ps *)
         Semaphore.v s;
         Semaphore.v s;
         ignore (T.wait ~thread:sleeper ());
         Alcotest.(check int) "no token lost or duplicated" 0
           (Semaphore.count s)));
  Alcotest.(check bool) "handler ran" true !handled

(* BUG 8: kwait raced with kwake between the user-level check and the
   kernel-level sleep (lost wakeup).  The futex-style [expect] predicate
   closes it; this hammers the race window cross-process. *)
let test_kwait_expect_closes_race () =
  let k = Kernel.boot ~cpus:2 () in
  (match Fs.create_file (Kernel.fs k) ~path:"/race" () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "setup");
  let done_rounds = ref 0 in
  let locker name () =
    let fd = Uctx.open_file "/race" in
    let seg = Uctx.mmap fd in
    let m = Mutex.create_shared (Syncvar.place seg ~offset:0) in
    ignore name;
    for _ = 1 to 50 do
      Mutex.enter m;
      Uctx.charge_us 7;
      Mutex.exit m;
      incr done_rounds
    done
  in
  ignore (Kernel.spawn k ~name:"l1" ~main:(Libthread.boot (locker "l1")));
  ignore (Kernel.spawn k ~name:"l2" ~main:(Libthread.boot (locker "l2")));
  Kernel.run ~max_events:500_000 k;
  Alcotest.(check int) "no lost wakeup: all rounds completed" 100 !done_rounds

(* BUG 9: lwp_main's idle registration raced with wakers: registering
   after the final runq check could park forever despite queued work.
   The unpark-token protocol absorbs the race; this test forces the
   window by waking from an external event at a charge boundary: event
   callbacks write one byte at a time into the racer's pipe, from
   outside any process. *)
let test_idle_park_race () =
  let served = ref 0 in
  let k = Kernel.boot ~cpus:1 () in
  let pid =
    Kernel.spawn k ~name:"racer"
      ~main:
        (Libthread.boot (fun () ->
             let r, _w = Uctx.pipe () in
             for _ = 1 to 25 do
               let _ = Uctx.read r ~len:1 in
               incr served
             done))
  in
  let write_end () =
    match Kernel.find_proc k pid with
    | None -> None
    | Some p ->
        Hashtbl.fold
          (fun _ o acc -> match o with Ktypes.Fd_pipe_w w -> Some w | _ -> acc)
          p.Ktypes.fdtab None
  in
  let eventq = (Kernel.machine k).Machine.eventq in
  let on_empty = ref 0 in
  let rec inject n at =
    if n > 0 then
      ignore
        (Eventq.at eventq at (fun () ->
             let next = Time.add (Eventq.now eventq) (Time.us 123) in
             match write_end () with
             | None -> inject n next (* the racer has not made its pipe yet *)
             | Some w ->
                 if Pipe.buffered w = 0 then incr on_empty;
                 ignore (Pipe.write w "x");
                 inject (n - 1) next))
  in
  inject 25 (Time.us 1);
  Kernel.run k;
  Alcotest.(check int) "all bytes served" 25 !served;
  Alcotest.(check bool)
    (Printf.sprintf "writes reached a drained pipe (%d of 25)" !on_empty)
    true (!on_empty > 0)

(* BUG 10: a signal that became deliverable while an LWP was running was
   missed if the LWP then entered an interruptible sleep — the sleep
   must fail with EINTR on entry when signals are already pending (found
   by the timers property test: SIGALRM posted while the pool LWP was
   mid-park-dance; it then parked forever). *)
let test_pending_signal_fails_sleep_entry () =
  let module Timers = Sunos_threads.Timers in
  let woke = ref 0 in
  ignore
    (run_app (fun () ->
         let ts =
           List.map
             (fun ms ->
               T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                   Timers.sleep (Time.ms ms);
                   incr woke))
             [ 0; 1; 1 ]
         in
         List.iter (fun t -> ignore (T.wait ~thread:t ())) ts));
  Alcotest.(check int) "all sleepers woke" 3 !woke

(* BUG 11: Sys_lwp_park checked the unpark token only at syscall entry;
   an unpark landing during the sleep-queue-insertion busy interval saw
   parked=false, left a token, and the park then blocked anyway — the
   token was never re-examined and the LWP slept forever (surfaced as a
   lost semaphore V in the 1:1 window-system run: the waker had already
   popped the waitq entry, so later V's just piled onto the count).  The
   park now re-checks the token after the busy interval.  Scan the
   unpark across the whole window to pin the race. *)
let test_unpark_during_park_entry () =
  (* one run where the parker parks and the unparker fires at [at]
     (absolute); returns (park entry time, woke) *)
  let run_at at =
    let woke = ref false and t_park = ref Time.zero in
    let k = Kernel.boot ~cpus:2 () in
    ignore
      (Kernel.spawn k ~name:"parker" ~main:(fun () ->
           let lid = Uctx.getlwpid () in
           ignore
             (Uctx.lwp_create
                ~entry:(fun () ->
                  let d = Time.diff at (Uctx.gettime ()) in
                  if Time.(d > 0L) then Uctx.sleep d;
                  Uctx.lwp_unpark lid)
                ());
           t_park := Uctx.gettime ();
           (match Uctx.lwp_park () with `Parked | `Timeout -> ());
           woke := true));
    Kernel.run k;
    (!t_park, !woke)
  in
  (* calibrate: find when the park entry happens (the unpark fires long
     after, so this run always completes), then sweep the unparker's
     start time across the park entry.  The sweep is wide because the
     unpark takes effect a dispatch + a couple of syscalls after the
     unparker wakes; with the race present, ~20 of these offsets landed
     the unpark inside the park's sleep-enqueue interval and the parker
     slept forever. *)
  let t_park, _ = run_at (Time.ms 50) in
  let lost = ref [] in
  for d = 0 to 50 do
    let off = (8 * d) - 300 in
    let _, woke = run_at (Time.add t_park (Time.us off)) in
    if not woke then lost := off :: !lost
  done;
  Alcotest.(check (list int)) "every unpark offset wakes the parker" []
    (List.rev !lost)

(* BUG 12: the net-server workload must be bit-identical across same-seed
   runs — the event-driven server (poller + acceptor + worker pool over
   sockets) must not depend on wall-clock, hash order, or any other
   nondeterminism. *)
let test_net_server_same_seed_identical () =
  let module S = Sunos_workloads.Net_server in
  let p =
    { S.default_params with connections = 12; requests_per_conn = 2 }
  in
  let a = S.run (module Sunos_baselines.Mt) ~cpus:2 p in
  let b = S.run (module Sunos_baselines.Mt) ~cpus:2 p in
  Alcotest.(check int) "served equal" a.S.served b.S.served;
  Alcotest.(check int) "refused equal" a.S.refused b.S.refused;
  Alcotest.(check int) "peak connections equal" a.S.max_concurrent
    b.S.max_concurrent;
  Alcotest.(check int) "lwps equal" a.S.lwps_created b.S.lwps_created;
  Alcotest.(check int) "syscalls equal" a.S.syscalls b.S.syscalls;
  Alcotest.(check bool) "makespan identical" true
    (Time.compare a.S.makespan b.S.makespan = 0)

(* BUG 13: Lockdebug's order check only caught a *direct* ABBA
   inversion: it looked for an already-recorded (wanted, held) edge.  A
   three-lock cycle A->B, B->C, then C->A recorded the closing edge
   silently — lockdep-style transitive reachability was missing.  The
   order graph (now shared with Thrsan) does a DFS, so the cycle raises
   on the acquisition that would close it. *)
let test_lockdebug_transitive_order_cycle () =
  let caught = ref false in
  ignore
    (run_app (fun () ->
         Lockdebug.reset_order_graph ();
         let a = Lockdebug.create ~name:"A" in
         let b = Lockdebug.create ~name:"B" in
         let c = Lockdebug.create ~name:"C" in
         let lock2 x y =
           Lockdebug.enter x;
           Lockdebug.enter y;
           Lockdebug.exit y;
           Lockdebug.exit x
         in
         lock2 a b;
         lock2 b c;
         Lockdebug.enter c;
         (try Lockdebug.enter a
          with Lockdebug.Lock_order_violation _ -> caught := true);
         Lockdebug.exit c));
  Alcotest.(check bool) "A->B->C->A raises on the closing edge" true !caught

(* BUG 14: a pending rwlock upgrader parked *bare* — no wait
   registration, so nothing could find or retire its park.  If a signal
   woke it while the last other reader exited, the exit path re-readied
   the upgrader through its TCB even though it was RUNNING its handler
   on another LWP: the phantom runq entry passed the stale-entry check
   (tstate stays Trunnable until dispatch) and an idle LWP dispatched a
   thread with no continuation — assert failure, process dies with 139.
   The upgrader now parks on a real wait queue that the promotion path
   pops (empty while the upgrader is awake). *)
let test_rwlock_upgrader_signal_promotion_race () =
  let upgraded = ref false in
  let k = Kernel.boot ~cpus:2 () in
  ignore
    (Kernel.spawn k ~name:"app"
       ~main:
         (Libthread.boot (fun () ->
              (* three LWPs: main sleeps on one while the reader charges
                 and the upgrader parks on the others *)
              T.setconcurrency 3;
              ignore
                (T.sigaction Signo.sigusr1
                   (Sysdefs.Sig_handler (fun _ -> Uctx.charge_us 3000)));
              let rw = Rwlock.create () in
              let helper =
                T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                    Rwlock.enter rw Rwlock.Reader;
                    Uctx.charge_us 2000;
                    Rwlock.exit rw)
              in
              let w =
                T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                    Rwlock.enter rw Rwlock.Reader;
                    (* pends: helper still reads; parks until promoted *)
                    if Rwlock.try_upgrade rw then begin
                      upgraded := true;
                      Rwlock.exit rw
                    end)
              in
              (* signal the parked upgrader just before the helper's
                 exit promotes it: the handler is still running (it
                 charges 3000us) when the promotion happens at ~2000us *)
              Uctx.sleep (Time.us 500);
              T.kill w Signo.sigusr1;
              ignore (T.wait ~thread:helper ());
              ignore (T.wait ~thread:w ()))));
  Kernel.run ~until:(Time.ms 100) k;
  Alcotest.(check (option int)) "no phantom-runq crash" (Some 0)
    (Kernel.exit_status k 1);
  Alcotest.(check bool) "upgrade completed" true !upgraded

let () =
  Alcotest.run "regressions"
    [
      ( "fixed-bugs",
        [
          Alcotest.test_case "current register across interleaving" `Quick
            test_current_register_across_interleaving;
          Alcotest.test_case "no SIGWAITING storm" `Quick
            test_no_sigwaiting_storm;
          Alcotest.test_case "processor_bind migrates" `Quick
            test_processor_bind_migrates_before_charging;
          Alcotest.test_case "ownership identity" `Quick
            test_ownership_identity_paths;
          Alcotest.test_case "finite sleep doesn't starve" `Quick
            test_finite_sleep_does_not_starve_runnables;
          Alcotest.test_case "pipeline conservation" `Quick
            test_pipeline_conservation;
          Alcotest.test_case "no stale waitq entry" `Quick
            test_signal_wake_leaves_no_stale_waitq_entry;
          Alcotest.test_case "kwait expect race" `Quick
            test_kwait_expect_closes_race;
          Alcotest.test_case "idle park race" `Quick test_idle_park_race;
          Alcotest.test_case "pending signal fails sleep entry" `Quick
            test_pending_signal_fails_sleep_entry;
          Alcotest.test_case "unpark during park entry" `Quick
            test_unpark_during_park_entry;
          Alcotest.test_case "net server same-seed identical" `Quick
            test_net_server_same_seed_identical;
          Alcotest.test_case "lockdebug transitive order cycle" `Quick
            test_lockdebug_transitive_order_cycle;
          Alcotest.test_case "rwlock upgrader signal promotion race" `Quick
            test_rwlock_upgrader_signal_promotion_race;
        ] );
    ]
