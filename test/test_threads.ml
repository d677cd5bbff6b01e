(* Tests of the threads library: the paper's Figure 4 interface, the M:N
   machinery, synchronization (private and process-shared), thread-level
   signals, and the SIGWAITING pool growth. *)

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
module Tls = Sunos_threads.Tls
module Syncvar = Sunos_threads.Syncvar

(* Run [main] as a threaded app on a fresh kernel; return the kernel. *)
let run_app ?(cpus = 1) main =
  let k = Kernel.boot ~cpus () in
  ignore (Kernel.spawn k ~name:"app" ~main:(Libthread.boot main));
  Kernel.run k;
  k

let test_boot_and_create () =
  let child_ran = ref false and joined = ref 0 in
  ignore
    (run_app (fun () ->
         let tid =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () -> child_ran := true)
         in
         joined := T.wait ~thread:tid ()));
  Alcotest.(check bool) "child ran" true !child_ran;
  Alcotest.(check int) "joined the child" 2 !joined

let test_thousand_threads_one_lwp () =
  let n = 1000 in
  let count = ref 0 in
  let k =
    run_app (fun () ->
        let tids =
          List.init n (fun _ ->
              T.create ~flags:[ T.THREAD_WAIT ] (fun () -> incr count))
        in
        List.iter (fun tid -> ignore (T.wait ~thread:tid ())) tids)
  in
  Alcotest.(check int) "all ran" n !count;
  (* the whole point: thousands of threads, almost no LWPs *)
  Alcotest.(check bool) "few LWPs" true (Kernel.lwp_create_count k <= 3)

let test_thread_ids_and_self () =
  let ids = ref [] in
  ignore
    (run_app (fun () ->
         let a = T.create ~flags:[ T.THREAD_WAIT ] (fun () -> ()) in
         let b = T.create ~flags:[ T.THREAD_WAIT ] (fun () -> ()) in
         ids := [ T.get_id (); a; b ];
         ignore (T.wait ~thread:a ());
         ignore (T.wait ~thread:b ())));
  match !ids with
  | [ me; a; b ] ->
      Alcotest.(check int) "main is 1" 1 me;
      Alcotest.(check bool) "distinct" true (a <> b && a <> me && b <> me)
  | _ -> Alcotest.fail "bad ids"

let test_wait_errors () =
  ignore
    (run_app (fun () ->
         (* non-waitable target *)
         let t = T.create (fun () -> T.yield ()) in
         (try
            ignore (T.wait ~thread:t ());
            Alcotest.fail "expected Invalid_argument"
          with Invalid_argument _ -> ());
         (* self-wait *)
         try
           ignore (T.wait ~thread:(T.get_id ()) ());
           Alcotest.fail "expected self-wait error"
         with Invalid_argument _ -> ()))

let test_wait_any () =
  let got = ref [] in
  ignore
    (run_app (fun () ->
         let _a = T.create ~flags:[ T.THREAD_WAIT ] (fun () -> ()) in
         let _b = T.create ~flags:[ T.THREAD_WAIT ] (fun () -> ()) in
         got := [ T.wait (); T.wait () ]));
  Alcotest.(check int) "reaped both" 2 (List.length !got);
  Alcotest.(check bool) "distinct tids" true
    (match !got with [ a; b ] -> a <> b | _ -> false)

let test_thread_exit_only_kills_thread () =
  let after = ref false in
  ignore
    (run_app (fun () ->
         let t =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               T.exit () (* terminates this thread only *))
         in
         ignore (T.wait ~thread:t ());
         after := true));
  Alcotest.(check bool) "main continued" true !after

let test_stop_flag_and_continue () =
  let ran = ref false in
  ignore
    (run_app (fun () ->
         let t =
           T.create
             ~flags:[ T.THREAD_STOP; T.THREAD_WAIT ]
             (fun () -> ran := true)
         in
         T.yield ();
         Alcotest.(check bool) "not started while stopped" false !ran;
         Alcotest.(check (option string)) "state stopped" (Some "stopped")
           (T.state t);
         T.continue t;
         ignore (T.wait ~thread:t ())));
  Alcotest.(check bool) "ran after continue" true !ran

let test_yield_interleaves () =
  let log = ref [] in
  ignore
    (run_app (fun () ->
         let worker tag () =
           for _ = 1 to 3 do
             log := tag :: !log;
             T.yield ()
           done
         in
         let a = T.create ~flags:[ T.THREAD_WAIT ] (worker "a") in
         let b = T.create ~flags:[ T.THREAD_WAIT ] (worker "b") in
         ignore (T.wait ~thread:a ());
         ignore (T.wait ~thread:b ())));
  let l = List.rev !log in
  (* cooperative alternation on one LWP *)
  Alcotest.(check (list string)) "alternation"
    [ "a"; "b"; "a"; "b"; "a"; "b" ]
    l

let test_priority_scheduling () =
  let order = ref [] in
  ignore
    (run_app (fun () ->
         (* created stopped so both join the runq before any runs *)
         let lo =
           T.create
             ~flags:[ T.THREAD_STOP; T.THREAD_WAIT ]
             (fun () -> order := "lo" :: !order)
         in
         let hi =
           T.create
             ~flags:[ T.THREAD_STOP; T.THREAD_WAIT ]
             (fun () -> order := "hi" :: !order)
         in
         ignore (T.priority ~thread:hi 60);
         ignore (T.priority ~thread:lo 5);
         T.continue lo;
         T.continue hi;
         ignore (T.wait ~thread:lo ());
         ignore (T.wait ~thread:hi ())));
  Alcotest.(check (list string)) "high priority first" [ "hi"; "lo" ]
    (List.rev !order)

(* A thread stopped while queued leaves a dead entry at its priority.
   The next pick drops it, finds that level empty and runs the lower-
   priority thread.  Until that pick, the dead entry still counts as
   runnable in the pool's statistics. *)
let test_stale_runq_entry_skipped () =
  let order = ref [] and queued = ref (-1) and after_pick = ref (-1) in
  ignore
    (run_app (fun () ->
         let hi =
           T.create
             ~flags:[ T.THREAD_STOP; T.THREAD_WAIT ]
             (fun () -> order := "hi" :: !order)
         in
         let lo =
           T.create
             ~flags:[ T.THREAD_STOP; T.THREAD_WAIT ]
             (fun () ->
               after_pick := (Libthread.stats ()).Libthread.runnable;
               order := "lo" :: !order)
         in
         ignore (T.priority ~thread:hi 60);
         ignore (T.priority ~thread:lo 5);
         T.continue hi;
         T.stop ~thread:hi ();
         T.continue lo;
         queued := (Libthread.stats ()).Libthread.runnable;
         ignore (T.wait ~thread:lo ());
         T.continue hi;
         ignore (T.wait ~thread:hi ())));
  Alcotest.(check int) "the dead entry counts until a pick drops it" 2
    !queued;
  Alcotest.(check int) "the pick dropped it along with taking lo" 0
    !after_pick;
  Alcotest.(check (list string)) "lo ran first, hi once continued"
    [ "lo"; "hi" ] (List.rev !order)

(* ------------------------- mutex ------------------------- *)

let test_mutex_mutual_exclusion () =
  let counter = ref 0 and in_cs = ref 0 and max_in_cs = ref 0 in
  ignore
    (run_app (fun () ->
         let m = Mutex.create () in
         let worker () =
           for _ = 1 to 20 do
             Mutex.enter m;
             incr in_cs;
             if !in_cs > !max_in_cs then max_in_cs := !in_cs;
             T.yield ();
             (* deliberately switch inside the critical section *)
             incr counter;
             decr in_cs;
             Mutex.exit m
           done
         in
         let ts =
           List.init 5 (fun _ -> T.create ~flags:[ T.THREAD_WAIT ] worker)
         in
         List.iter (fun t -> ignore (T.wait ~thread:t ())) ts));
  Alcotest.(check int) "all increments" 100 !counter;
  Alcotest.(check int) "never two inside" 1 !max_in_cs

let test_mutex_bracketing () =
  let raised = ref false in
  ignore
    (run_app (fun () ->
         let m = Mutex.create () in
         let t =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               try Mutex.exit m with Mutex.Not_owner -> raised := true)
         in
         Mutex.enter m;
         ignore (T.wait ~thread:t ());
         Mutex.exit m));
  Alcotest.(check bool) "release by non-owner raises" true !raised

let test_mutex_try_enter () =
  ignore
    (run_app (fun () ->
         let m = Mutex.create () in
         Alcotest.(check bool) "uncontended try" true (Mutex.try_enter m);
         let t =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               Alcotest.(check bool) "contended try fails" false
                 (Mutex.try_enter m))
         in
         ignore (T.wait ~thread:t ());
         Mutex.exit m))

let test_mutex_spin_variant () =
  (* two bound threads on two CPUs: spin mutex works and excludes *)
  let counter = ref 0 in
  ignore
    (run_app ~cpus:2 (fun () ->
         let m = Mutex.create ~variant:Mutex.Spin () in
         let worker () =
           for _ = 1 to 10 do
             Mutex.enter m;
             let v = !counter in
             Uctx.charge_us 5;
             counter := v + 1;
             Mutex.exit m
           done
         in
         let a =
           T.create ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ] worker
         in
         let b =
           T.create ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ] worker
         in
         ignore (T.wait ~thread:a ());
         ignore (T.wait ~thread:b ())));
  Alcotest.(check int) "no lost updates" 20 !counter

let test_mutex_adaptive_variant () =
  let counter = ref 0 in
  ignore
    (run_app ~cpus:2 (fun () ->
         let m = Mutex.create ~variant:Mutex.Adaptive () in
         let worker () =
           for _ = 1 to 10 do
             Mutex.enter m;
             incr counter;
             Uctx.charge_us 3;
             Mutex.exit m
           done
         in
         let ts =
           List.init 4 (fun i ->
               let flags =
                 if i < 2 then [ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
                 else [ T.THREAD_WAIT ]
               in
               T.create ~flags worker)
         in
         List.iter (fun t -> ignore (T.wait ~thread:t ())) ts));
  Alcotest.(check int) "adaptive excludes" 40 !counter

(* ------------------------- condvar ------------------------- *)

let test_condvar_producer_consumer () =
  let produced = ref [] and consumed = ref [] in
  ignore
    (run_app (fun () ->
         let m = Mutex.create () in
         let cv = Condvar.create () in
         let queue = Queue.create () in
         let done_flag = ref false in
         let consumer () =
           let stop = ref false in
           while not !stop do
             Mutex.enter m;
             while Queue.is_empty queue && not !done_flag do
               Condvar.wait cv m
             done;
             (match Queue.take_opt queue with
             | Some x -> consumed := x :: !consumed
             | None -> if !done_flag then stop := true);
             Mutex.exit m
           done
         in
         let producer () =
           for i = 1 to 10 do
             Mutex.enter m;
             Queue.add i queue;
             produced := i :: !produced;
             Condvar.signal cv;
             Mutex.exit m;
             T.yield ()
           done;
           Mutex.enter m;
           done_flag := true;
           Condvar.broadcast cv;
           Mutex.exit m
         in
         let c = T.create ~flags:[ T.THREAD_WAIT ] consumer in
         let p = T.create ~flags:[ T.THREAD_WAIT ] producer in
         ignore (T.wait ~thread:p ());
         ignore (T.wait ~thread:c ())));
  Alcotest.(check int) "all consumed" 10 (List.length !consumed);
  Alcotest.(check (list int)) "in order" (List.init 10 (fun i -> i + 1))
    (List.rev !consumed)

let test_condvar_broadcast_wakes_all () =
  let woke = ref 0 in
  ignore
    (run_app (fun () ->
         let m = Mutex.create () in
         let cv = Condvar.create () in
         let go = ref false in
         let waiter () =
           Mutex.enter m;
           while not !go do
             Condvar.wait cv m
           done;
           incr woke;
           Mutex.exit m
         in
         let ts =
           List.init 5 (fun _ -> T.create ~flags:[ T.THREAD_WAIT ] waiter)
         in
         T.yield ();
         Mutex.enter m;
         go := true;
         Condvar.broadcast cv;
         Mutex.exit m;
         List.iter (fun t -> ignore (T.wait ~thread:t ())) ts));
  Alcotest.(check int) "all woke" 5 !woke

(* ------------------------- semaphore ------------------------- *)

let test_semaphore_counting () =
  let order = ref [] in
  ignore
    (run_app (fun () ->
         let s = Semaphore.create ~count:2 () in
         let worker i () =
           Semaphore.p s;
           order := (i, "in") :: !order;
           T.yield ();
           order := (i, "out") :: !order;
           Semaphore.v s
         in
         let ts =
           List.init 4 (fun i ->
               T.create ~flags:[ T.THREAD_WAIT ] (worker i))
         in
         List.iter (fun t -> ignore (T.wait ~thread:t ())) ts));
  (* at most 2 concurrently inside *)
  let depth = ref 0 and maxd = ref 0 in
  List.iter
    (fun (_, what) ->
      if what = "in" then begin
        incr depth;
        if !depth > !maxd then maxd := !depth
      end
      else decr depth)
    (List.rev !order);
  Alcotest.(check int) "max concurrency 2" 2 !maxd

let test_semaphore_pingpong () =
  (* the Figure 6 microbenchmark structure *)
  let rounds = ref 0 in
  ignore
    (run_app (fun () ->
         let s1 = Semaphore.create () and s2 = Semaphore.create () in
         let t2 =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               for _ = 1 to 10 do
                 Semaphore.p s2;
                 Semaphore.v s1
               done)
         in
         for _ = 1 to 10 do
           Semaphore.v s2;
           Semaphore.p s1;
           incr rounds
         done;
         ignore (T.wait ~thread:t2 ())));
  Alcotest.(check int) "10 round trips" 10 !rounds

let test_semaphore_try_p () =
  ignore
    (run_app (fun () ->
         let s = Semaphore.create ~count:1 () in
         Alcotest.(check bool) "first try" true (Semaphore.try_p s);
         Alcotest.(check bool) "second fails" false (Semaphore.try_p s);
         Semaphore.v s;
         Alcotest.(check bool) "after v" true (Semaphore.try_p s)))

(* ------------------------- rwlock ------------------------- *)

let test_rwlock_readers_concurrent () =
  let max_readers = ref 0 in
  ignore
    (run_app (fun () ->
         let l = Rwlock.create () in
         let reader () =
           Rwlock.enter l Rwlock.Reader;
           if Rwlock.readers l > !max_readers then
             max_readers := Rwlock.readers l;
           T.yield ();
           Rwlock.exit l
         in
         let ts =
           List.init 4 (fun _ -> T.create ~flags:[ T.THREAD_WAIT ] reader)
         in
         List.iter (fun t -> ignore (T.wait ~thread:t ())) ts));
  Alcotest.(check bool) "readers overlapped" true (!max_readers >= 2)

let test_rwlock_writer_excludes () =
  let violations = ref 0 in
  ignore
    (run_app (fun () ->
         let l = Rwlock.create () in
         let shared = ref 0 in
         let writer () =
           for _ = 1 to 5 do
             Rwlock.enter l Rwlock.Writer;
             if Rwlock.readers l > 0 then incr violations;
             shared := !shared + 1;
             T.yield ();
             Rwlock.exit l
           done
         in
         let reader () =
           for _ = 1 to 5 do
             Rwlock.enter l Rwlock.Reader;
             if Rwlock.has_writer l then incr violations;
             T.yield ();
             Rwlock.exit l
           done
         in
         let ts =
           T.create ~flags:[ T.THREAD_WAIT ] writer
           :: List.init 3 (fun _ -> T.create ~flags:[ T.THREAD_WAIT ] reader)
         in
         List.iter (fun t -> ignore (T.wait ~thread:t ())) ts));
  Alcotest.(check int) "no reader/writer overlap" 0 !violations

let test_rwlock_downgrade () =
  ignore
    (run_app (fun () ->
         let l = Rwlock.create () in
         Rwlock.enter l Rwlock.Writer;
         Rwlock.downgrade l;
         Alcotest.(check int) "now a reader" 1 (Rwlock.readers l);
         Alcotest.(check bool) "no writer" false (Rwlock.has_writer l);
         (* another reader can now come in *)
         let t =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               Alcotest.(check bool) "concurrent read ok" true
                 (Rwlock.try_enter l Rwlock.Reader);
               Rwlock.exit l)
         in
         ignore (T.wait ~thread:t ());
         Rwlock.exit l))

let test_rwlock_try_upgrade () =
  ignore
    (run_app (fun () ->
         let l = Rwlock.create () in
         Rwlock.enter l Rwlock.Reader;
         Alcotest.(check bool) "sole reader upgrades" true
           (Rwlock.try_upgrade l);
         Alcotest.(check bool) "is writer" true (Rwlock.has_writer l);
         Rwlock.exit l))

let test_rwlock_writer_preference () =
  let order = ref [] in
  ignore
    (run_app (fun () ->
         let l = Rwlock.create () in
         Rwlock.enter l Rwlock.Reader;
         let w =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               Rwlock.enter l Rwlock.Writer;
               order := "w" :: !order;
               Rwlock.exit l)
         in
         T.yield ();
         (* writer is now queued: a new reader must NOT slip in *)
         let r =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               Rwlock.enter l Rwlock.Reader;
               order := "r" :: !order;
               Rwlock.exit l)
         in
         T.yield ();
         Rwlock.exit l;
         ignore (T.wait ~thread:w ());
         ignore (T.wait ~thread:r ())));
  Alcotest.(check (list string)) "writer before late reader" [ "w"; "r" ]
    (List.rev !order)

(* A pending upgrade parks until the other readers drain, blocks new
   readers while it pends, and is promoted by the last reader's exit. *)
let test_rwlock_upgrade_under_contention () =
  let order = ref [] in
  ignore
    (run_app (fun () ->
         let l = Rwlock.create () in
         Rwlock.enter l Rwlock.Reader;
         let up =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               Rwlock.enter l Rwlock.Reader;
               (* main still reads: this pends and parks *)
               let ok = Rwlock.try_upgrade l in
               order := (if ok then "upgraded" else "refused") :: !order;
               Alcotest.(check bool) "is writer after upgrade" true
                 (Rwlock.has_writer l);
               Rwlock.exit l)
         in
         let late =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               (* must NOT be admitted while the upgrade pends *)
               Rwlock.enter l Rwlock.Reader;
               order := "late-reader" :: !order;
               Rwlock.exit l)
         in
         T.yield ();
         order := "main-exit" :: !order;
         Rwlock.exit l;
         (* our exit promotes the upgrader ahead of the queued reader *)
         ignore (T.wait ~thread:up ());
         ignore (T.wait ~thread:late ())));
  Alcotest.(check (list string)) "upgrader promoted before late reader"
    [ "main-exit"; "upgraded"; "late-reader" ]
    (List.rev !order)

(* Downgrading mid-hold admits the readers queued behind the writer and
   keeps the caller among them: all three must overlap. *)
let test_rwlock_downgrade_under_contention () =
  let max_readers = ref 0 in
  ignore
    (run_app (fun () ->
         let l = Rwlock.create () in
         Rwlock.enter l Rwlock.Writer;
         let reader () =
           Rwlock.enter l Rwlock.Reader;
           if Rwlock.readers l > !max_readers then
             max_readers := Rwlock.readers l;
           T.yield ();
           Rwlock.exit l
         in
         let r1 = T.create ~flags:[ T.THREAD_WAIT ] reader in
         let r2 = T.create ~flags:[ T.THREAD_WAIT ] reader in
         T.yield ();
         (* both readers are queued on the write hold; downgrade lets
            them in alongside us *)
         Rwlock.downgrade l;
         T.yield ();
         Rwlock.exit l;
         ignore (T.wait ~thread:r1 ());
         ignore (T.wait ~thread:r2 ())));
  Alcotest.(check int) "downgrader and both readers overlapped" 3 !max_readers

(* Shared-variant writer preference: while a writer waits
   ([s_wwaiters > 0]), a new reader can neither barge in with try_enter
   nor be admitted by enter before the writer gets its turn. *)
let test_rwlock_shared_writer_preference () =
  let order = ref [] in
  let k = Kernel.boot ~cpus:1 () in
  (match Fs.create_file (Kernel.fs k) ~path:"/rwfile" () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "setup");
  ignore
    (Kernel.spawn k ~name:"app"
       ~main:
         (Libthread.boot (fun () ->
              let fd = Uctx.open_file "/rwfile" in
              let seg = Uctx.mmap fd in
              let l = Rwlock.create_shared (Syncvar.place seg ~offset:0) in
              Rwlock.enter l Rwlock.Reader;
              let w =
                T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                    Rwlock.enter l Rwlock.Writer;
                    order := "writer-in" :: !order;
                    Rwlock.exit l)
              in
              T.yield ();
              (* the writer now waits in kwait with s_wwaiters = 1 *)
              let r2 =
                T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                    order :=
                      (if Rwlock.try_enter l Rwlock.Reader then "barged"
                       else "barge-refused")
                      :: !order;
                    Rwlock.enter l Rwlock.Reader;
                    order := "reader2-in" :: !order;
                    Rwlock.exit l)
              in
              T.yield ();
              order := "main-exit" :: !order;
              Rwlock.exit l;
              ignore (T.wait ~thread:w ());
              ignore (T.wait ~thread:r2 ()))));
  Kernel.run k;
  Alcotest.(check (list string)) "writer preferred over barging reader"
    [ "barge-refused"; "main-exit"; "writer-in"; "reader2-in" ]
    (List.rev !order)

(* try_enter runs a signal checkpoint: a thread spinning on try-lock
   acquisition must handle a pending thread_kill during the spin, not
   after the lock finally frees. *)
let test_rwlock_try_enter_checkpoint () =
  let handled_at = ref (Time.s 999) and released_at = ref Time.zero in
  ignore
    (run_app ~cpus:4 (fun () ->
         (* four cpus: the holder and killer each charge/sleep on their own
            bound LWP while the pool LWP runs the spinner, so nothing
            serialises behind the holder's 5ms charge *)
         ignore
           (T.sigaction Signo.sigusr1
              (Sysdefs.Sig_handler (fun _ -> handled_at := Uctx.gettime ())));
         let l = Rwlock.create () in
         let locked = Semaphore.create () in
         let spinning = Semaphore.create () in
         let holder =
           T.create
             ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
             (fun () ->
               Rwlock.enter l Rwlock.Writer;
               Semaphore.v locked;
               (* hold for 5ms measured from when the spinner is actually
                  spinning — thread creation costs mean the spinner may
                  not get the pool LWP until several ms in *)
               Semaphore.p spinning;
               Uctx.charge_us 5000;
               released_at := Uctx.gettime ();
               Rwlock.exit l)
         in
         let spinner =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               (* don't start spinning until the writer holds the lock *)
               Semaphore.p locked;
               Semaphore.v spinning;
               Semaphore.v spinning;
               while not (Rwlock.try_enter l Rwlock.Reader) do
                 ()
               done;
               Rwlock.exit l)
         in
         let killer =
           T.create
             ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
             (fun () ->
               (* aim the kill at the middle of the spin *)
               Semaphore.p spinning;
               Uctx.sleep (Time.us 500);
               T.kill spinner Signo.sigusr1)
         in
         ignore (T.wait ~thread:holder ());
         ignore (T.wait ~thread:spinner ());
         ignore (T.wait ~thread:killer ())));
  Alcotest.(check bool) "signal handled during the spin, not after" true
    (Time.compare !handled_at !released_at < 0)

(* ------------------------- TLS ------------------------- *)

let test_tls_isolation () =
  let seen = ref [] in
  ignore
    (run_app (fun () ->
         let worker v () =
           Tls.set Tls.errno v;
           T.yield ();
           (* another thread ran in between; our errno must be intact *)
           seen := Tls.get Tls.errno :: !seen
         in
         let a = T.create ~flags:[ T.THREAD_WAIT ] (worker 7) in
         let b = T.create ~flags:[ T.THREAD_WAIT ] (worker 13) in
         ignore (T.wait ~thread:a ());
         ignore (T.wait ~thread:b ());
         seen := Tls.get Tls.errno :: !seen));
  Alcotest.(check bool) "values isolated" true
    (List.sort compare !seen = [ 0; 7; 13 ])

let test_tls_zero_initialized () =
  ignore
    (run_app (fun () ->
         let key = Tls.key ~default:0 in
         Tls.set key 99;
         let t =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               Alcotest.(check int) "fresh thread sees zero" 0 (Tls.get key))
         in
         ignore (T.wait ~thread:t ())))

(* ------------------------- bound threads ------------------------- *)

let test_bound_thread_runs () =
  let ran_on_lwp = ref 0 in
  let k =
    run_app ~cpus:2 (fun () ->
        let t =
          T.create
            ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
            (fun () -> ran_on_lwp := Uctx.getlwpid ())
        in
        ignore (T.wait ~thread:t ()))
  in
  Alcotest.(check bool) "bound thread on its own LWP" true (!ran_on_lwp >= 2);
  Alcotest.(check bool) "extra LWP was created" true
    (Kernel.lwp_create_count k >= 2)

let test_bound_unbound_sync () =
  (* the paper: bound and unbound threads synchronize in the usual way *)
  let rounds = ref 0 in
  ignore
    (run_app ~cpus:2 (fun () ->
         let s1 = Semaphore.create () and s2 = Semaphore.create () in
         let bound =
           T.create
             ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
             (fun () ->
               for _ = 1 to 5 do
                 Semaphore.p s2;
                 Semaphore.v s1
               done)
         in
         for _ = 1 to 5 do
           Semaphore.v s2;
           Semaphore.p s1;
           incr rounds
         done;
         ignore (T.wait ~thread:bound ())));
  Alcotest.(check int) "bound/unbound ping-pong" 5 !rounds

(* ------------------------- concurrency control ------------------------- *)

let test_setconcurrency_grows_lwps () =
  let k =
    run_app ~cpus:4 (fun () ->
        T.setconcurrency 3;
        let stats = Libthread.stats () in
        Alcotest.(check int) "pool has 3 LWPs" 3 stats.Libthread.pool_lwps;
        (* real parallelism: three compute threads overlap on the CPUs *)
        let t0 = Uctx.gettime () in
        let ts =
          List.init 3 (fun _ ->
              T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                  Uctx.charge (Time.ms 50)))
        in
        List.iter (fun t -> ignore (T.wait ~thread:t ())) ts;
        let elapsed = Time.diff (Uctx.gettime ()) t0 in
        Alcotest.(check bool) "parallel speedup" true
          (Time.to_ms elapsed < 120.))
  in
  Alcotest.(check bool) "kernel saw LWP creates" true
    (Kernel.lwp_create_count k >= 3)

let test_sigwaiting_grows_pool_automatically () =
  (* One LWP; the main thread blocks reading an empty pipe while another
     thread is runnable.  SIGWAITING must grow the pool so the runnable
     thread executes and feeds the pipe. *)
  let fed = ref false and got = ref "" in
  let k =
    run_app ~cpus:2 (fun () ->
        let rfd, wfd = Uctx.pipe () in
        ignore
          (T.create (fun () ->
               fed := true;
               ignore (Uctx.write wfd "data")));
        (* block in the kernel before the helper ever runs *)
        got := Uctx.read rfd ~len:10)
  in
  Alcotest.(check bool) "helper ran" true !fed;
  Alcotest.(check string) "reader unblocked" "data" !got;
  Alcotest.(check bool) "SIGWAITING was used" true
    (Kernel.sigwaiting_count k >= 1)

(* ------------------------- thread signals ------------------------- *)

let test_thread_kill_targets_one_thread () =
  let handled_in = ref 0 in
  ignore
    (run_app (fun () ->
         ignore
           (T.sigaction Signo.sigusr1
              (Sysdefs.Sig_handler (fun _ -> handled_in := T.get_id ())));
         let victim =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               for _ = 1 to 5 do
                 T.yield ()
               done)
         in
         T.yield ();
         T.kill victim Signo.sigusr1;
         ignore (T.wait ~thread:victim ())));
  Alcotest.(check bool) "handled by the victim" true (!handled_in >= 2)

let test_thread_kill_wakes_blocked_thread () =
  let handled = ref false in
  ignore
    (run_app (fun () ->
         ignore
           (T.sigaction Signo.sigusr2
              (Sysdefs.Sig_handler (fun _ -> handled := true)));
         let s = Semaphore.create () in
         let sleeper =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () -> Semaphore.p s)
         in
         T.yield ();
         Alcotest.(check (option string)) "blocked" (Some "blocked")
           (T.state sleeper);
         T.kill sleeper Signo.sigusr2;
         T.yield ();
         Alcotest.(check bool) "handler ran in sleeper" true !handled;
         (* sleeper re-blocked on the semaphore after the handler *)
         Semaphore.v s;
         ignore (T.wait ~thread:sleeper ())))

let test_thread_mask_blocks_delivery () =
  let handled_by = ref 0 in
  ignore
    (run_app ~cpus:1 (fun () ->
         ignore
           (T.sigaction Signo.sigusr1
              (Sysdefs.Sig_handler (fun _ -> handled_by := T.get_id ())));
         (* main masks SIGUSR1; helper leaves it open and blocks *)
         ignore
           (T.sigsetmask Sigset.Sig_block (Sigset.of_list [ Signo.sigusr1 ]));
         let s = Semaphore.create () in
         let open_thread =
           T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
               ignore
                 (T.sigsetmask Sigset.Sig_unblock
                    (Sigset.of_list [ Signo.sigusr1 ]));
               Semaphore.p s)
         in
         T.yield ();
         (* a process-directed signal must go to the open thread *)
         Uctx.kill ~pid:(Uctx.getpid ()) Signo.sigusr1;
         T.yield ();
         Semaphore.v s;
         ignore (T.wait ~thread:open_thread ())));
  Alcotest.(check int) "unmasked thread handled it" 2 !handled_by

let test_sigsend_all_threads () =
  let count = ref 0 in
  ignore
    (run_app (fun () ->
         ignore
           (T.sigaction Signo.sigusr2
              (Sysdefs.Sig_handler (fun _ -> incr count)));
         let barrier = Semaphore.create () in
         let ts =
           List.init 3 (fun _ ->
               T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                   Semaphore.p barrier))
         in
         T.yield ();
         T.sigsend_all Signo.sigusr2;
         T.yield ();
         for _ = 1 to 3 do
           Semaphore.v barrier
         done;
         List.iter (fun t -> ignore (T.wait ~thread:t ())) ts));
  (* main + 3 helpers *)
  Alcotest.(check int) "every thread handled it" 4 !count

(* A signal wakeup at every library wait site (Wake_sites): the handler
   runs once, the wait then completes with its usual outcome, and the
   run drains at the simulated instant pinned here. *)
let signal_wakeup_ends_at =
  [
    ("mutex", 1_429_000L);
    ("condvar", 1_439_000L);
    ("semaphore", 1_411_000L);
    ("rwlock reader", 1_403_000L);
    ("rwlock writer", 1_403_000L);
    ("wait thread", 2_075_000L);
    ("wait any", 2_075_000L);
    ("timer sleep", 22_123_000L);
  ]

let test_signal_wakeup (name, site) () =
  let r = Wake_sites.run site in
  Alcotest.(check int) "handler ran once" 1 r.Wake_sites.handled;
  Alcotest.(check bool) "the wait completed" true r.held;
  Alcotest.(check (option int)) "clean exit" (Some 0) r.status;
  Alcotest.(check int64) "simulated end"
    (List.assoc name signal_wakeup_ends_at)
    r.ended

(* ------------------------- cross-process sync (Figure 1) ----------- *)

let test_shared_mutex_across_processes () =
  let k = Kernel.boot ~cpus:2 () in
  (match Fs.create_file (Kernel.fs k) ~path:"/lockfile" () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "setup");
  let log = ref [] in
  let proc name delay =
    Libthread.boot (fun () ->
        let fd = Uctx.open_file "/lockfile" in
        let seg = Uctx.mmap fd in
        let m = Mutex.create_shared (Syncvar.place seg ~offset:0) in
        Uctx.sleep delay;
        for _ = 1 to 3 do
          Mutex.enter m;
          log := (name, "in") :: !log;
          Uctx.charge_us 500;
          log := (name, "out") :: !log;
          Mutex.exit m
        done)
  in
  ignore (Kernel.spawn k ~name:"p1" ~main:(proc "p1" (Time.us 1)));
  ignore (Kernel.spawn k ~name:"p2" ~main:(proc "p2" (Time.us 2)));
  Kernel.run k;
  (* mutual exclusion across processes: in/out strictly alternate *)
  let depth = ref 0 and bad = ref false in
  List.iter
    (fun (_, w) ->
      if w = "in" then begin
        incr depth;
        if !depth > 1 then bad := true
      end
      else decr depth)
    (List.rev !log);
  Alcotest.(check bool) "no overlap across processes" false !bad;
  Alcotest.(check int) "all sections ran" 12 (List.length !log)

let test_shared_semaphore_across_processes () =
  let k = Kernel.boot ~cpus:2 () in
  (match Fs.create_file (Kernel.fs k) ~path:"/semfile" () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "setup");
  let got = ref 0 in
  ignore
    (Kernel.spawn k ~name:"waiter"
       ~main:
         (Libthread.boot (fun () ->
              let fd = Uctx.open_file "/semfile" in
              let seg = Uctx.mmap fd in
              let s =
                Semaphore.create_shared (Syncvar.place seg ~offset:64)
              in
              for _ = 1 to 3 do
                Semaphore.p s;
                incr got
              done)));
  ignore
    (Kernel.spawn k ~name:"poster"
       ~main:
         (Libthread.boot (fun () ->
              Uctx.sleep (Time.ms 5);
              let fd = Uctx.open_file "/semfile" in
              let seg = Uctx.mmap fd in
              let s =
                Semaphore.create_shared (Syncvar.place seg ~offset:64)
              in
              for _ = 1 to 3 do
                Semaphore.v s;
                Uctx.sleep (Time.ms 1)
              done)));
  Kernel.run k;
  Alcotest.(check int) "posts crossed the process boundary" 3 !got

let test_shared_condvar_across_processes () =
  let k = Kernel.boot ~cpus:2 () in
  (match Fs.create_file (Kernel.fs k) ~path:"/cvfile" () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "setup");
  let observed = ref (-1) in
  ignore
    (Kernel.spawn k ~name:"watcher"
       ~main:
         (Libthread.boot (fun () ->
              let fd = Uctx.open_file "/cvfile" in
              let seg = Uctx.mmap fd in
              let m = Mutex.create_shared (Syncvar.place seg ~offset:0) in
              let cv = Condvar.create_shared (Syncvar.place seg ~offset:64) in
              let cell = Syncvar.place seg ~offset:128 in
              let data =
                Syncvar.locate cell
                  ~key:(Sunos_sim.Univ.key () : int ref Sunos_sim.Univ.key)
                  ~make:(fun () -> ref 0)
              in
              ignore data;
              (* simple protocol: wait until the poster bumps the cv *)
              Mutex.enter m;
              Condvar.wait cv m;
              observed := 42;
              Mutex.exit m)));
  ignore
    (Kernel.spawn k ~name:"poster"
       ~main:
         (Libthread.boot (fun () ->
              Uctx.sleep (Time.ms 10);
              let fd = Uctx.open_file "/cvfile" in
              let seg = Uctx.mmap fd in
              let _m = Mutex.create_shared (Syncvar.place seg ~offset:0) in
              let cv = Condvar.create_shared (Syncvar.place seg ~offset:64) in
              Condvar.signal cv)));
  Kernel.run k;
  Alcotest.(check int) "cross-process condvar wake" 42 !observed

(* ------------------------- stack cache ------------------------- *)

let test_stack_cache_reuse () =
  ignore
    (run_app (fun () ->
         (* first thread: cold stack; after it exits, the next should hit *)
         let a = T.create ~flags:[ T.THREAD_WAIT ] (fun () -> ()) in
         ignore (T.wait ~thread:a ());
         let before = (Libthread.stats ()).Libthread.stack_cache_hits in
         let b = T.create ~flags:[ T.THREAD_WAIT ] (fun () -> ()) in
         ignore (T.wait ~thread:b ());
         let after = (Libthread.stats ()).Libthread.stack_cache_hits in
         Alcotest.(check bool) "cache hit on reuse" true (after > before)))

let test_caller_stack_no_cache () =
  ignore
    (run_app (fun () ->
         let before = (Libthread.stats ()).Libthread.stack_cache_misses in
         let t =
           T.create ~flags:[ T.THREAD_WAIT ] ~stack:(`Caller 8192) (fun () ->
               ())
         in
         ignore (T.wait ~thread:t ());
         let after = (Libthread.stats ()).Libthread.stack_cache_misses in
         Alcotest.(check int) "caller stack bypasses the cache" before after))

let () =
  Alcotest.run "sunos_threads"
    [
      ( "basics",
        [
          Alcotest.test_case "boot+create+wait" `Quick test_boot_and_create;
          Alcotest.test_case "1000 threads, 1 LWP" `Quick
            test_thousand_threads_one_lwp;
          Alcotest.test_case "ids" `Quick test_thread_ids_and_self;
          Alcotest.test_case "wait errors" `Quick test_wait_errors;
          Alcotest.test_case "wait any" `Quick test_wait_any;
          Alcotest.test_case "thread_exit" `Quick
            test_thread_exit_only_kills_thread;
          Alcotest.test_case "STOP flag + continue" `Quick
            test_stop_flag_and_continue;
          Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
          Alcotest.test_case "priorities" `Quick test_priority_scheduling;
          Alcotest.test_case "stale entry skipped" `Quick
            test_stale_runq_entry_skipped;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "mutual exclusion" `Quick
            test_mutex_mutual_exclusion;
          Alcotest.test_case "bracketing" `Quick test_mutex_bracketing;
          Alcotest.test_case "try_enter" `Quick test_mutex_try_enter;
          Alcotest.test_case "spin variant" `Quick test_mutex_spin_variant;
          Alcotest.test_case "adaptive variant" `Quick
            test_mutex_adaptive_variant;
        ] );
      ( "condvar",
        [
          Alcotest.test_case "producer/consumer" `Quick
            test_condvar_producer_consumer;
          Alcotest.test_case "broadcast" `Quick
            test_condvar_broadcast_wakes_all;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "counting" `Quick test_semaphore_counting;
          Alcotest.test_case "ping-pong" `Quick test_semaphore_pingpong;
          Alcotest.test_case "try_p" `Quick test_semaphore_try_p;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "readers concurrent" `Quick
            test_rwlock_readers_concurrent;
          Alcotest.test_case "writer excludes" `Quick
            test_rwlock_writer_excludes;
          Alcotest.test_case "downgrade" `Quick test_rwlock_downgrade;
          Alcotest.test_case "try_upgrade" `Quick test_rwlock_try_upgrade;
          Alcotest.test_case "writer preference" `Quick
            test_rwlock_writer_preference;
          Alcotest.test_case "upgrade under contention" `Quick
            test_rwlock_upgrade_under_contention;
          Alcotest.test_case "downgrade under contention" `Quick
            test_rwlock_downgrade_under_contention;
          Alcotest.test_case "shared writer preference" `Quick
            test_rwlock_shared_writer_preference;
          Alcotest.test_case "try_enter checkpoint" `Quick
            test_rwlock_try_enter_checkpoint;
        ] );
      ( "tls",
        [
          Alcotest.test_case "isolation" `Quick test_tls_isolation;
          Alcotest.test_case "zeroed" `Quick test_tls_zero_initialized;
        ] );
      ( "bound",
        [
          Alcotest.test_case "bound runs" `Quick test_bound_thread_runs;
          Alcotest.test_case "bound/unbound sync" `Quick
            test_bound_unbound_sync;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "setconcurrency" `Quick
            test_setconcurrency_grows_lwps;
          Alcotest.test_case "SIGWAITING auto-grow" `Quick
            test_sigwaiting_grows_pool_automatically;
        ] );
      ( "signals",
        [
          Alcotest.test_case "thread_kill" `Quick
            test_thread_kill_targets_one_thread;
          Alcotest.test_case "kill wakes blocked" `Quick
            test_thread_kill_wakes_blocked_thread;
          Alcotest.test_case "mask routes" `Quick
            test_thread_mask_blocks_delivery;
          Alcotest.test_case "sigsend all" `Quick test_sigsend_all_threads;
        ]
        @ List.map
            (fun ((name, _) as site) ->
              Alcotest.test_case ("wakeup at " ^ name) `Quick
                (test_signal_wakeup site))
            Wake_sites.sites );
      ( "cross_process",
        [
          Alcotest.test_case "shared mutex" `Quick
            test_shared_mutex_across_processes;
          Alcotest.test_case "shared semaphore" `Quick
            test_shared_semaphore_across_processes;
          Alcotest.test_case "shared condvar" `Quick
            test_shared_condvar_across_processes;
        ] );
      ( "stacks",
        [
          Alcotest.test_case "cache reuse" `Quick test_stack_cache_reuse;
          Alcotest.test_case "caller stack" `Quick test_caller_stack_no_cache;
        ] );
    ]
