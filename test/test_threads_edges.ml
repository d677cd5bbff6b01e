(* Second-wave thread-library tests: concurrency control details, state
   machine edges, inheritance rules, process-shared rwlocks, error
   paths. *)

module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Sysdefs = Sunos_kernel.Sysdefs
module Signo = Sunos_kernel.Signo
module Sigset = Sunos_kernel.Sigset
module Fs = Sunos_kernel.Fs
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Mutex = Sunos_threads.Mutex
module Condvar = Sunos_threads.Condvar
module Semaphore = Sunos_threads.Semaphore
module Rwlock = Sunos_threads.Rwlock
module Syncvar = Sunos_threads.Syncvar
module Tls = Sunos_threads.Tls

let run_app ?(cpus = 1) main =
  let k = Kernel.boot ~cpus () in
  ignore (Kernel.spawn k ~name:"app" ~main:(Libthread.boot main));
  Kernel.run k;
  k

(* ------------------------- concurrency control ------------------------- *)

let test_setconcurrency_shrinks () =
  ignore
    (run_app ~cpus:4 (fun () ->
         T.setconcurrency 4;
         Alcotest.(check int) "grew to 4" 4
           (Libthread.stats ()).Libthread.pool_lwps;
         T.setconcurrency 1;
         (* park/officiate a few scheduling rounds so idle LWPs notice *)
         for _ = 1 to 4 do
           Uctx.sleep (Time.ms 2)
         done;
         Alcotest.(check bool) "shrank toward 1" true
           ((Libthread.stats ()).Libthread.pool_lwps <= 2)))

let test_new_lwp_flag_grows_pool () =
  ignore
    (run_app ~cpus:2 (fun () ->
         let before = (Libthread.stats ()).Libthread.pool_lwps in
         let t =
           T.create ~flags:[ T.THREAD_NEW_LWP; T.THREAD_WAIT ] (fun () -> ())
         in
         let after = (Libthread.stats ()).Libthread.pool_lwps in
         ignore (T.wait ~thread:t ());
         Alcotest.(check int) "one more LWP" (before + 1) after))

let test_setconcurrency_zero_means_auto () =
  (* n = 0: the library is allowed to multiplex on few LWPs and grow on
     demand; it must never deadlock the pipe handshake *)
  let ok = ref false in
  ignore
    (run_app ~cpus:2 (fun () ->
         T.setconcurrency 0;
         let rfd, wfd = Uctx.pipe () in
         ignore (T.create (fun () -> ignore (Uctx.write wfd "x")));
         ok := Uctx.read rfd ~len:4 = "x"));
  Alcotest.(check bool) "auto mode made progress" true !ok

(* ------------------------- priority & state ------------------------- *)

let test_priority_returns_old () =
  ignore
    (run_app (fun () ->
         let old = T.priority 45 in
         Alcotest.(check int) "default priority" 31 old;
         Alcotest.(check int) "updated" 45 (T.priority 50);
         Alcotest.check_raises "negative rejected"
           (Invalid_argument "Thread.priority: negative priority") (fun () ->
             ignore (T.priority (-1)))))

let test_priority_inherited_by_child () =
  ignore
    (run_app (fun () ->
         ignore (T.priority 40);
         let t =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               Alcotest.(check int) "child inherited 40" 40 (T.priority 40))
         in
         ignore (T.wait ~thread:t ())))

let test_sigmask_inherited_by_child () =
  ignore
    (run_app (fun () ->
         ignore (T.sigsetmask Sigset.Sig_block (Sigset.of_list [ Signo.sigusr1 ]));
         let t =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               let m = T.sigsetmask Sigset.Sig_block Sigset.empty in
               Alcotest.(check bool) "child mask includes SIGUSR1" true
                 (Sigset.mem Signo.sigusr1 m))
         in
         ignore (T.wait ~thread:t ())))

let test_state_transitions () =
  ignore
    (run_app (fun () ->
         let s = Semaphore.create () in
         let t =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () -> Semaphore.p s)
         in
         Alcotest.(check (option string)) "created runnable" (Some "runnable")
           (T.state t);
         T.yield ();
         Alcotest.(check (option string)) "blocked on sema" (Some "blocked")
           (T.state t);
         Semaphore.v s;
         Alcotest.(check (option string)) "runnable after v" (Some "runnable")
           (T.state t);
         ignore (T.wait ~thread:t ());
         Alcotest.(check (option string)) "reaped: unknown id" None (T.state t)))

let test_stop_blocked_thread_defers () =
  ignore
    (run_app (fun () ->
         let s = Semaphore.create () in
         let t = T.create ~flags:[ T.THREAD_WAIT ] (fun () -> Semaphore.p s) in
         T.yield ();
         (* stop while blocked: applied at wake time *)
         T.stop ~thread:t ();
         Semaphore.v s;
         T.yield ();
         Alcotest.(check (option string)) "stopped at wakeup" (Some "stopped")
           (T.state t);
         T.continue t;
         ignore (T.wait ~thread:t ())))

let test_kill_errors () =
  ignore
    (run_app (fun () ->
         Alcotest.check_raises "kill unknown tid"
           (Invalid_argument "Thread.kill: no such thread") (fun () ->
             T.kill 404 Signo.sigusr1)))

(* ------------------------- shared rwlock / condvar -------------------- *)

let test_shared_rwlock_across_processes () =
  let k = Kernel.boot ~cpus:2 () in
  (match Fs.create_file (Kernel.fs k) ~path:"/rw" () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "setup");
  let violations = ref 0 and ops = ref 0 in
  let readers_now = ref 0 and writer_now = ref false in
  let proc kind () =
    let fd = Uctx.open_file "/rw" in
    let seg = Uctx.mmap fd in
    let l = Rwlock.create_shared (Syncvar.place seg ~offset:0) in
    for _ = 1 to 10 do
      match kind with
      | `Reader ->
          Rwlock.enter l Rwlock.Reader;
          incr readers_now;
          if !writer_now then incr violations;
          Uctx.charge_us 120;
          decr readers_now;
          Rwlock.exit l;
          incr ops
      | `Writer ->
          Rwlock.enter l Rwlock.Writer;
          writer_now := true;
          if !readers_now > 0 then incr violations;
          Uctx.charge_us 150;
          writer_now := false;
          Rwlock.exit l;
          incr ops
    done
  in
  ignore (Kernel.spawn k ~name:"r" ~main:(Libthread.boot (proc `Reader)));
  ignore (Kernel.spawn k ~name:"w" ~main:(Libthread.boot (proc `Writer)));
  Kernel.run k;
  Alcotest.(check int) "all ops" 20 !ops;
  Alcotest.(check int) "no overlap across processes" 0 !violations

let test_shared_condvar_monitor_protocol () =
  (* full monitor across processes: producer posts items through shared
     memory; consumer loops on the condition *)
  let k = Kernel.boot ~cpus:2 () in
  (match Fs.create_file (Kernel.fs k) ~path:"/mon" () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "setup");
  let consumed = ref 0 in
  let cell = ref 0 in
  (* the shared counter lives in OCaml, standing in for mapped data;
     the mutex+cv in the file order access to it *)
  ignore
    (Kernel.spawn k ~name:"consumer"
       ~main:
         (Libthread.boot (fun () ->
              let fd = Uctx.open_file "/mon" in
              let seg = Uctx.mmap fd in
              let m = Mutex.create_shared (Syncvar.place seg ~offset:0) in
              let cv = Condvar.create_shared (Syncvar.place seg ~offset:64) in
              for _ = 1 to 5 do
                Mutex.enter m;
                while !cell = 0 do
                  Condvar.wait cv m
                done;
                cell := !cell - 1;
                incr consumed;
                Mutex.exit m
              done)));
  ignore
    (Kernel.spawn k ~name:"producer"
       ~main:
         (Libthread.boot (fun () ->
              let fd = Uctx.open_file "/mon" in
              let seg = Uctx.mmap fd in
              let m = Mutex.create_shared (Syncvar.place seg ~offset:0) in
              let cv = Condvar.create_shared (Syncvar.place seg ~offset:64) in
              for _ = 1 to 5 do
                Uctx.sleep (Time.ms 2);
                Mutex.enter m;
                cell := !cell + 1;
                Condvar.signal cv;
                Mutex.exit m
              done)));
  Kernel.run k;
  Alcotest.(check int) "all items crossed processes" 5 !consumed

let test_shared_mutex_type_confusion_rejected () =
  ignore
    (run_app (fun () ->
         let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
         let _m = Mutex.create_shared (Syncvar.place seg ~offset:0) in
         (* a different variable kind at the same offset must be refused *)
         try
           ignore (Semaphore.create_shared (Syncvar.place seg ~offset:0));
           Alcotest.fail "expected type-confusion rejection"
         with Invalid_argument _ -> ()))

(* ------------------------- misc ------------------------- *)

let test_yield_without_runnable_is_noop () =
  ignore
    (run_app (fun () ->
         let before = (Libthread.stats ()).Libthread.switches in
         T.yield ();
         T.yield ();
         let after = (Libthread.stats ()).Libthread.switches in
         Alcotest.(check int) "no switches when alone" before after))

let test_tls_many_threads () =
  let n = 50 in
  let sum = ref 0 in
  ignore
    (run_app (fun () ->
         let key = Tls.key ~default:0 in
         let ts =
           List.init n (fun i ->
               T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                   Tls.set key (i + 1);
                   T.yield ();
                   sum := !sum + Tls.get key))
         in
         List.iter (fun t -> ignore (T.wait ~thread:t ())) ts));
  Alcotest.(check int) "each thread kept its own value" (n * (n + 1) / 2) !sum

let test_caller_stack_threads_work () =
  let done_ = ref 0 in
  ignore
    (run_app (fun () ->
         let ts =
           List.init 5 (fun _ ->
               T.create ~flags:[ T.THREAD_WAIT ] ~stack:(`Caller 16384)
                 (fun () -> incr done_))
         in
         List.iter (fun t -> ignore (T.wait ~thread:t ())) ts));
  Alcotest.(check int) "caller-stack threads ran" 5 !done_

let test_library_snapshot_matches () =
  ignore
    (run_app (fun () ->
         let s = Semaphore.create () in
         let blocked =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () -> Semaphore.p s)
         in
         let stopped =
           T.create ~flags:[ T.THREAD_STOP; T.THREAD_WAIT ] (fun () -> ())
         in
         T.yield ();
         let snap = Libthread.threads_snapshot () in
         let state_of tid = List.assoc_opt tid snap in
         Alcotest.(check (option string)) "main running" (Some "running")
           (state_of 1);
         Alcotest.(check (option string)) "blocked listed" (Some "blocked")
           (state_of blocked);
         Alcotest.(check (option string)) "stopped listed" (Some "stopped")
           (state_of stopped);
         Semaphore.v s;
         T.continue stopped;
         ignore (T.wait ~thread:blocked ());
         ignore (T.wait ~thread:stopped ())))

let test_sigaltstack_bound_only () =
  ignore
    (run_app ~cpus:2 (fun () ->
         (* unbound: refused, per the paper *)
         (try
            T.sigaltstack true;
            Alcotest.fail "unbound sigaltstack must raise"
          with Invalid_argument _ -> ());
         let b =
           T.create
             ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
             (fun () -> T.sigaltstack true (* allowed: state is the LWP's *))
         in
         ignore (T.wait ~thread:b ())))

let test_bound_thread_rt_class () =
  (* the paper's real-time mixture: a bound thread asks for the RT class
     and outruns timeshare work on the same CPU *)
  let order = ref [] in
  ignore
    (run_app ~cpus:1 (fun () ->
         let rt =
           T.create
             ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
             (fun () ->
               Uctx.priocntl (Sysdefs.Cls_realtime 30);
               Uctx.sleep (Time.ms 5);
               Uctx.charge (Time.ms 20);
               order := "rt" :: !order)
         in
         Uctx.charge (Time.ms 200);
         order := "ts" :: !order;
         ignore (T.wait ~thread:rt ())));
  Alcotest.(check (list string)) "RT bound thread finished first"
    [ "rt"; "ts" ] (List.rev !order)

(* ------------------------- debugger support ------------------------- *)

let test_debugger_attach_snapshot_detach () =
  let module Debugger = Sunos_threads.Debugger in
  let k = Kernel.boot ~cpus:2 () in
  let finished = ref false in
  let pid =
    Kernel.spawn k ~name:"inferior"
      ~main:
        (Libthread.boot (fun () ->
             let s = Semaphore.create () in
             let blocked =
               T.create ~flags:[ T.THREAD_WAIT ] (fun () -> Semaphore.p s)
             in
             let bound =
               T.create
                 ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
                 (fun () -> Semaphore.p s)
             in
             (* compute long enough for the debugger to attach mid-run *)
             Uctx.charge (Time.ms 100);
             Semaphore.v s;
             Semaphore.v s;
             ignore (T.wait ~thread:blocked ());
             ignore (T.wait ~thread:bound ());
             finished := true))
  in
  (* let it get going, then attach *)
  Kernel.run ~until:(Time.ms 20) k;
  (match Debugger.attach k pid with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* advance: running LWPs reach their stop points; nothing progresses *)
  Kernel.run ~until:(Time.ms 60) k;
  (match Debugger.snapshot k pid with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check string) "name" "inferior" s.Debugger.d_pname;
      (* the kernel sees only LWPs; the library table has the threads *)
      Alcotest.(check bool) "lwps visible" true (List.length s.Debugger.d_lwps >= 2);
      Alcotest.(check int) "threads visible" 3
        (List.length s.Debugger.d_threads);
      let bound_views =
        List.filter (fun t -> t.Debugger.dt_bound_lwp <> None)
          s.Debugger.d_threads
      in
      Alcotest.(check int) "one bound thread mapped to its LWP" 1
        (List.length bound_views));
  Alcotest.(check bool) "stopped: no progress" false !finished;
  (match Debugger.detach k pid with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Kernel.run k;
  Alcotest.(check bool) "resumed and finished" true !finished

let test_debugger_bad_pid () =
  let module Debugger = Sunos_threads.Debugger in
  let k = Kernel.boot () in
  (match Debugger.attach k 4242 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "attach to nonsense pid must fail");
  match Debugger.snapshot k 4242 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "snapshot of nonsense pid must fail"

(* The debugger reads the thread table of the process it looks at.
   Kernel 1's pid 1 pauses with 4 threads; kernel 2, booted in the same
   domain, runs a pid 1 of its own to the end.  The snapshot of kernel
   1's pid 1 must still list kernel 1's threads. *)
let test_debugger_reads_its_own_kernel () =
  let module Debugger = Sunos_threads.Debugger in
  let k1 = Kernel.boot ~cpus:2 () in
  let pid =
    Kernel.spawn k1 ~name:"inferior"
      ~main:
        (Libthread.boot (fun () ->
             let tids =
               List.init 3 (fun _ ->
                   T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                       Uctx.sleep (Time.ms 10)))
             in
             List.iter (fun t -> ignore (T.wait ~thread:t ())) tids))
  in
  Kernel.run ~until:(Time.ms 5) k1;
  let k2 = Kernel.boot ~cpus:1 () in
  ignore
    (Kernel.spawn k2 ~name:"other"
       ~main:
         (Libthread.boot (fun () ->
              let t = T.create ~flags:[ T.THREAD_WAIT ] (fun () -> ()) in
              ignore (T.wait ~thread:t ()))));
  Kernel.run k2;
  (match Debugger.snapshot k1 pid with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check (list int)) "kernel 1's threads" [ 1; 2; 3; 4 ]
        (List.map (fun t -> t.Debugger.dt_tid) s.Debugger.d_threads));
  Kernel.run k1

(* ------------------------- per-thread timers ------------------------- *)

let test_timers_many_sleepers_one_lwp () =
  (* the paper's "library routines may implement multiple per-thread
     timers using the per-address-space timer": 20 sleeping threads,
     one kernel timer, zero extra LWPs pinned *)
  let module Timers = Sunos_threads.Timers in
  let woke = ref [] in
  let k =
    run_app (fun () ->
        let ts =
          List.init 20 (fun i ->
              T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                  Timers.sleep (Time.ms (5 + (3 * i)));
                  let now = Uctx.gettime () in
                  woke := (i, now) :: !woke))
        in
        List.iter (fun t -> ignore (T.wait ~thread:t ())) ts)
  in
  Alcotest.(check int) "all woke" 20 (List.length !woke);
  (* each slept at least its span *)
  List.iter
    (fun (i, at) ->
      Alcotest.(check bool)
        (Printf.sprintf "thread %d slept long enough" i)
        true
        Time.(at >= Time.ms (5 + (3 * i))))
    !woke;
  (* the whole point: the sleeps multiplexed over very few LWPs *)
  Alcotest.(check bool) "no LWP explosion" true (Kernel.lwp_create_count k <= 3)

let test_timers_after_and_cancel () =
  let module Timers = Sunos_threads.Timers in
  let fired = ref [] in
  ignore
    (run_app (fun () ->
         let _a = Timers.after (Time.ms 5) (fun () -> fired := 1 :: !fired) in
         let b = Timers.after (Time.ms 10) (fun () -> fired := 2 :: !fired) in
         let _c = Timers.after (Time.ms 15) (fun () -> fired := 3 :: !fired) in
         Alcotest.(check bool) "cancel pending" true (Timers.cancel b);
         Timers.sleep (Time.ms 30);
         Alcotest.(check bool) "cancel after fire" false (Timers.cancel b)));
  Alcotest.(check (list int)) "1 and 3 fired in order, 2 cancelled" [ 1; 3 ]
    (List.rev !fired)

let test_timers_sleep_orders_wakeups () =
  let module Timers = Sunos_threads.Timers in
  let order = ref [] in
  ignore
    (run_app (fun () ->
         let mk tag span =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               Timers.sleep span;
               order := tag :: !order)
         in
         let a = mk "late" (Time.ms 20) in
         let b = mk "early" (Time.ms 5) in
         let c = mk "mid" (Time.ms 12) in
         List.iter (fun t -> ignore (T.wait ~thread:t ())) [ a; b; c ]));
  Alcotest.(check (list string)) "deadline order" [ "early"; "mid"; "late" ]
    (List.rev !order)

let () =
  Alcotest.run "sunos_threads_edges"
    [
      ( "concurrency",
        [
          Alcotest.test_case "shrink" `Quick test_setconcurrency_shrinks;
          Alcotest.test_case "THREAD_NEW_LWP" `Quick test_new_lwp_flag_grows_pool;
          Alcotest.test_case "auto mode" `Quick test_setconcurrency_zero_means_auto;
        ] );
      ( "priority_state",
        [
          Alcotest.test_case "priority old value" `Quick test_priority_returns_old;
          Alcotest.test_case "priority inherited" `Quick
            test_priority_inherited_by_child;
          Alcotest.test_case "sigmask inherited" `Quick
            test_sigmask_inherited_by_child;
          Alcotest.test_case "state transitions" `Quick test_state_transitions;
          Alcotest.test_case "stop blocked defers" `Quick
            test_stop_blocked_thread_defers;
          Alcotest.test_case "kill errors" `Quick test_kill_errors;
        ] );
      ( "shared_sync",
        [
          Alcotest.test_case "shared rwlock" `Quick
            test_shared_rwlock_across_processes;
          Alcotest.test_case "shared monitor" `Quick
            test_shared_condvar_monitor_protocol;
          Alcotest.test_case "type confusion" `Quick
            test_shared_mutex_type_confusion_rejected;
        ] );
      ( "misc",
        [
          Alcotest.test_case "yield alone" `Quick
            test_yield_without_runnable_is_noop;
          Alcotest.test_case "tls many threads" `Quick test_tls_many_threads;
          Alcotest.test_case "caller stacks" `Quick
            test_caller_stack_threads_work;
          Alcotest.test_case "library snapshot" `Quick
            test_library_snapshot_matches;
          Alcotest.test_case "bound RT thread" `Quick test_bound_thread_rt_class;
          Alcotest.test_case "sigaltstack bound-only" `Quick
            test_sigaltstack_bound_only;
        ] );
      ( "debugger",
        [
          Alcotest.test_case "attach/snapshot/detach" `Quick
            test_debugger_attach_snapshot_detach;
          Alcotest.test_case "bad pid" `Quick test_debugger_bad_pid;
          Alcotest.test_case "reads its own kernel's table" `Quick
            test_debugger_reads_its_own_kernel;
        ] );
      ( "timers",
        [
          Alcotest.test_case "many sleepers, one timer" `Quick
            test_timers_many_sleepers_one_lwp;
          Alcotest.test_case "after + cancel" `Quick test_timers_after_and_cancel;
          Alcotest.test_case "wake order" `Quick test_timers_sleep_orders_wakeups;
        ] );
    ]
