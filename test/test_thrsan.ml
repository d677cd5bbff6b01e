(* thrsan: the deterministic runtime sanitizer.  Each test enables the
   sanitizer programmatically (the @sanitize alias exercises the THRSAN
   env path over the whole tier-1 suite) and disables it on the way out
   so the switches never leak between tests. *)

module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Mutex = Sunos_threads.Mutex
module Condvar = Sunos_threads.Condvar
module Rwlock = Sunos_threads.Rwlock
module Pool = Sunos_threads.Pool
module Ttypes = Sunos_threads.Ttypes
module Thrsan = Sunos_threads.Thrsan

let with_san f =
  Thrsan.reset ();
  Thrsan.enable ();
  Fun.protect ~finally:(fun () ->
      Thrsan.set_lock_order_mode false;
      Thrsan.disable ())
    f

(* A pinned report names its objects relative to the next free id.  The
   probe spends one id and returns the id the scenario's first object
   will get. *)
let next_obj_id () = (Thrsan.new_obj ~kind:"probe" ()).Ttypes.so_id + 1

(* Two threads take two mutexes in opposite orders, yielding between
   the two acquisitions. *)
let abba_run () =
  let k = Kernel.boot ~cpus:1 () in
  ignore
    (Kernel.spawn k ~name:"abba"
       ~main:
         (Libthread.boot (fun () ->
              let ma = Mutex.create () and mb = Mutex.create () in
              let t1 =
                T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                    Mutex.enter ma;
                    T.yield ();
                    Mutex.enter mb;
                    Mutex.exit mb;
                    Mutex.exit ma)
              in
              let t2 =
                T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                    Mutex.enter mb;
                    T.yield ();
                    Mutex.enter ma;
                    Mutex.exit ma;
                    Mutex.exit mb)
              in
              ignore (T.wait ~thread:t1 ());
              ignore (T.wait ~thread:t2 ()))));
  Kernel.run ~until:(Time.s 5) k;
  k

(* An ABBA deadlock between two threads on two mutexes: the second
   blocked_on closes the waits-for cycle, the sanitizer raises its
   structured report, and the process dies of the uncaught exception
   (status 139) instead of hanging forever. *)
let test_waits_for_deadlock_report () =
  with_san (fun () ->
      let base = next_obj_id () in
      let k = abba_run () in
      Alcotest.(check (option int)) "process died of the deadlock"
        (Some 139) (Kernel.exit_status k 1);
      match Thrsan.last_deadlock () with
      | None -> Alcotest.fail "no deadlock report"
      | Some r ->
          Alcotest.(check int) "two links in the cycle" 2
            (List.length r.Thrsan.dl_links);
          List.iter
            (fun l ->
              Alcotest.(check string) "both links are mutexes" "mutex"
                l.Thrsan.wl_obj_kind;
              Alcotest.(check bool) "each held lock has one holder" true
                (List.length l.Thrsan.wl_holders = 1))
            r.Thrsan.dl_links;
          (* ma (id [base]) was taken first, mb (id [base + 1]) next *)
          let acq = (List.hd r.Thrsan.dl_links).Thrsan.wl_acq_seq in
          Alcotest.(check string) "report text"
            (Printf.sprintf
               "thrsan: deadlock (waits-for cycle):\n\
               \  thread 1/3 waits on mutex mutex#%d (acq#%d) held by 1/2\n\
               \  thread 1/2 waits on mutex mutex#%d (acq#%d) held by 1/3\n"
               base acq (base + 1) (acq + 1))
            r.Thrsan.dl_text)

(* Lock-order mode catches a 3-lock cycle transitively: a<b and b<c are
   recorded on clean runs, so c-then-a trips the DFS even though a and c
   were never held together before. *)
let test_lock_order_transitive_cycle () =
  with_san (fun () ->
      Thrsan.set_lock_order_mode true;
      let base = next_obj_id () in
      let caught = ref None in
      let k = Kernel.boot ~cpus:1 () in
      ignore
        (Kernel.spawn k ~name:"order"
           ~main:
             (Libthread.boot (fun () ->
                  let a = Mutex.create ()
                  and b = Mutex.create ()
                  and c = Mutex.create () in
                  let lock2 x y =
                    Mutex.enter x; Mutex.enter y; Mutex.exit y; Mutex.exit x
                  in
                  lock2 a b;
                  lock2 b c;
                  Mutex.enter c;
                  (try Mutex.enter a
                   with Thrsan.Lock_order_violation (held, wanted) ->
                     caught := Some (held, wanted));
                  Mutex.exit c)));
      Kernel.run k;
      (* taking a (id [base]) while holding c (id [base + 2]) *)
      Alcotest.(check (option (pair string string)))
        "transitive inversion caught, naming both locks"
        (Some
           (Printf.sprintf "mutex#%d" (base + 2), Printf.sprintf "mutex#%d" base))
        !caught)

(* Hang diagnosis on the A2 ablation scenario: with pool growth disabled
   the only LWP blocks in a pipe read while a runnable thread (holding
   the write side's work) starves.  The drain hook must name both the
   starved thread and the sleeping LWP. *)
let test_hang_report_auto_grow_off () =
  with_san (fun () ->
      let k = Kernel.boot ~cpus:2 () in
      Thrsan.watch k;
      ignore
        (Kernel.spawn k ~name:"a2"
           ~main:
             (Libthread.boot ~auto_grow:false (fun () ->
                  let rfd, wfd = Uctx.pipe () in
                  ignore (T.create (fun () -> ignore (Uctx.write wfd "go")));
                  ignore (Uctx.read rfd ~len:10))));
      Kernel.run ~until:(Time.s 5) k;
      match Thrsan.last_hang () with
      | None -> Alcotest.fail "no hang report"
      | Some h ->
          Alcotest.(check bool) "a runnable thread is starving" true
            (List.exists
               (fun t -> t.Thrsan.ht_state = "runnable")
               h.Thrsan.hr_threads);
          Alcotest.(check bool) "the LWP sleeps indefinitely in the pipe"
            true
            (List.exists
               (fun l ->
                 l.Thrsan.hl_indefinite
                 && l.Thrsan.hl_wchan = "pipe_read")
               h.Thrsan.hr_lwps);
          Alcotest.(check bool) "report is rendered" true
            (String.length h.Thrsan.hr_text > 0))

(* Hang diagnosis knows what a blocked thread is blocked ON: a condvar
   wait that is never signalled shows up with the object description,
   and a thread queued behind a lock the waiter still holds shows who
   last took that lock. *)
let test_hang_report_names_condvar () =
  with_san (fun () ->
      let base = next_obj_id () in
      let k = Kernel.boot ~cpus:1 () in
      Thrsan.watch k;
      ignore
        (Kernel.spawn k ~name:"lost-signal"
           ~main:
             (Libthread.boot (fun () ->
                  let m = Mutex.create ()
                  and cv = Condvar.create ()
                  and outer = Mutex.create () in
                  let w =
                    T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                        Mutex.enter outer;
                        Mutex.enter m;
                        Condvar.wait cv m;
                        Mutex.exit m;
                        Mutex.exit outer)
                  in
                  let queued =
                    T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                        Mutex.enter outer;
                        Mutex.exit outer)
                  in
                  ignore (T.wait ~thread:w ());
                  ignore (T.wait ~thread:queued ()))));
      Kernel.run ~until:(Time.s 5) k;
      match Thrsan.last_hang () with
      | None -> Alcotest.fail "no hang report"
      | Some h ->
          Alcotest.(check bool) "waiter reported blocked on the condvar"
            true
            (List.exists
               (fun t ->
                 t.Thrsan.ht_state = "blocked"
                 && String.length t.Thrsan.ht_on >= 7
                 && String.sub t.Thrsan.ht_on 0 7 = "condvar")
               h.Thrsan.hr_threads);
          (* outer (id [base]) and m were taken first, cv (id [base + 2])
             named at its wait *)
          Alcotest.(check string) "report text"
            (Printf.sprintf
               "thrsan: event queue drained with threads still waiting:\n\
               \  thread 1/2 blocked on condvar condvar#%d\n\
               \  thread 1/3 blocked on mutex mutex#%d (last held by 1/2)\n\
               \  thread 1/1 blocked\n\
               \  lwp 1/1 asleep in kernel on \"lwp_park\" (indefinite)\n"
               (base + 2) base)
            h.Thrsan.hr_text)

(* The bare-park audit: a thread whose park sets Tblocked without
   registering a wait anywhere is invisible to wakers; the scheduler
   flags it. *)
let test_bare_park_flagged () =
  with_san (fun () ->
      let k = Kernel.boot ~cpus:1 () in
      ignore
        (Kernel.spawn k ~name:"bare"
           ~main:
             (Libthread.boot (fun () ->
                  let lost =
                    T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                        ignore
                          (Pool.suspend ~park:(fun tcb ->
                               tcb.Ttypes.tstate <- Ttypes.Tblocked)))
                  in
                  ignore (T.wait ~thread:lost ()))));
      Kernel.run ~until:(Time.s 5) k;
      Alcotest.(check bool) "bare park recorded" true
        (Thrsan.bare_parks () <> []))

(* The seeded BUG 14 upgrader parks without registering on the upgrade
   queue.  Its waits-for edge is the sanitizer's own record, which no
   waker reads, so the park is flagged all the same. *)
let test_bug14_upgrader_flagged () =
  with_san (fun () ->
      Rwlock.bug14_bare_upgrader := true;
      Fun.protect
        ~finally:(fun () -> Rwlock.bug14_bare_upgrader := false)
        (fun () ->
          let k = Kernel.boot ~cpus:1 () in
          ignore
            (Kernel.spawn k ~name:"upgrade"
               ~main:
                 (Libthread.boot (fun () ->
                      let rw = Rwlock.create () in
                      Rwlock.enter rw Rwlock.Reader;
                      let w =
                        T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                            Rwlock.enter rw Rwlock.Reader;
                            ignore (Rwlock.try_upgrade rw);
                            Rwlock.exit rw)
                      in
                      T.yield ();
                      Rwlock.exit rw;
                      ignore (T.wait ~thread:w ()))));
          Kernel.run k);
      Alcotest.(check (list (pair int int))) "the upgrader parked bare"
        [ (1, 2) ] (Thrsan.bare_parks ()))

(* Every legitimate library wait registers where its waker looks, even
   when a signal wakes it and it waits again: none is a bare park. *)
let test_legit_waits_not_bare () =
  with_san (fun () ->
      List.iter
        (fun (name, site) ->
          let r = Wake_sites.run site in
          Alcotest.(check bool) (name ^ " completed") true r.Wake_sites.held)
        Wake_sites.sites;
      Alcotest.(check (list (pair int int))) "no bare park" []
        (Thrsan.bare_parks ()))

(* The tables are per domain.  A deadlock found on another domain is
   reported there, not here; and since a domain counts object ids and
   acquisition stamps from its own last reset, the ABBA scenario renders
   one text on two domains at once and then on this one. *)
let test_tables_per_domain () =
  with_san (fun () ->
      let abba_text () =
        Thrsan.reset ();
        ignore (abba_run ());
        Option.map (fun r -> r.Thrsan.dl_text) (Thrsan.last_deadlock ())
      in
      let there = Domain.join (Domain.spawn abba_text) in
      Alcotest.(check bool) "the spawned domain has its report" true
        (there <> None);
      Alcotest.(check bool) "this domain has none" true
        (Thrsan.last_deadlock () = None);
      let d1 = Domain.spawn abba_text and d2 = Domain.spawn abba_text in
      let t1 = Domain.join d1 and t2 = Domain.join d2 in
      let here = abba_text () in
      Alcotest.(check (option string)) "first concurrent domain" here t1;
      Alcotest.(check (option string)) "second concurrent domain" here t2;
      Alcotest.(check (option string)) "the earlier domain" here there)

(* Zero-cost-off sanity: with tracking off, the hooks record nothing. *)
let test_disabled_records_nothing () =
  Thrsan.reset ();
  Thrsan.disable ();
  let k = Kernel.boot ~cpus:1 () in
  ignore
    (Kernel.spawn k ~name:"quiet"
       ~main:
         (Libthread.boot (fun () ->
              let m = Mutex.create () in
              Mutex.enter m;
              Mutex.exit m)));
  Kernel.run k;
  Alcotest.(check bool) "no reports when off" true
    (Thrsan.last_deadlock () = None
    && Thrsan.last_hang () = None
    && Thrsan.bare_parks () = [])

let () =
  Alcotest.run "thrsan"
    [
      ( "deadlock",
        [
          Alcotest.test_case "ABBA waits-for cycle" `Quick
            test_waits_for_deadlock_report;
        ] );
      ( "lock-order",
        [
          Alcotest.test_case "transitive 3-lock cycle" `Quick
            test_lock_order_transitive_cycle;
        ] );
      ( "hang",
        [
          Alcotest.test_case "A2 pool starvation" `Quick
            test_hang_report_auto_grow_off;
          Alcotest.test_case "names the condvar" `Quick
            test_hang_report_names_condvar;
        ] );
      ( "audit",
        [
          Alcotest.test_case "bare park" `Quick test_bare_park_flagged;
          Alcotest.test_case "BUG 14 upgrader park" `Quick
            test_bug14_upgrader_flagged;
          Alcotest.test_case "legit waits are not bare parks" `Quick
            test_legit_waits_not_bare;
          Alcotest.test_case "off records nothing" `Quick
            test_disabled_records_nothing;
        ] );
      ( "domains",
        [
          Alcotest.test_case "tables per domain" `Quick test_tables_per_domain;
        ] );
    ]
