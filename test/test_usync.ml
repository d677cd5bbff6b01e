(* USYNC_PROCESS: process-shared synchronization.  Cross-fork mutual
   exclusion and wakeups through shared anonymous segments, the
   MAP_PRIVATE/MAP_SHARED fork semantics of anonymous mappings, robust
   (OWNERDEAD) lock recovery when a holder dies — cleanly or by chaos
   proc-kill — and the observability hooks: /proc wait channels and
   sanitizer objects named by their shared placement. *)

module Time = Sunos_sim.Time
module Faultgen = Sunos_sim.Faultgen
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Procfs = Sunos_kernel.Procfs
module Signo = Sunos_kernel.Signo
module Sysdefs = Sunos_kernel.Sysdefs
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Mutex = Sunos_threads.Mutex
module Condvar = Sunos_threads.Condvar
module Rwlock = Sunos_threads.Rwlock
module Syncvar = Sunos_threads.Syncvar
module Semaphore = Sunos_threads.Semaphore
module Thrsan = Sunos_threads.Thrsan
module Lockdebug = Sunos_threads.Lockdebug

(* ------------------- anon mapping semantics at fork ------------------- *)

(* The observable difference between MAP_SHARED and MAP_PRIVATE anon
   segments is whether a kwait/kwake channel crosses the fork: a private
   mapping is snapshot-cloned into the child, so parent and child wait
   on different channels. *)
let wake_crosses ~shared =
  let k = Kernel.boot ~cpus:2 () in
  let woken = ref false and timed_out = ref false in
  ignore
    (Kernel.spawn k ~name:"wk" ~main:(fun () ->
         let seg = Uctx.mmap_anon ~size:4096 ~shared in
         ignore
           (Uctx.fork1 ~child_main:(fun () ->
                match Uctx.kwait ~seg ~offset:0 ~timeout:(Time.ms 50) () with
                | `Woken -> woken := true
                | `Timeout -> timed_out := true));
         Uctx.sleep (Time.ms 10);
         ignore (Uctx.kwake ~seg ~offset:0 ~count:1);
         ignore (Uctx.waitpid ())));
  Kernel.run k;
  (!woken, !timed_out)

let test_shared_anon_aliases_across_fork () =
  let woken, timed_out = wake_crosses ~shared:true in
  Alcotest.(check (pair bool bool))
    "shared: parent's wake reaches the child" (true, false)
    (woken, timed_out)

let test_private_anon_not_aliased_across_fork () =
  let woken, timed_out = wake_crosses ~shared:false in
  Alcotest.(check (pair bool bool))
    "private: the child waits on its own clone and times out" (false, true)
    (woken, timed_out)

(* ---------------------- cross-fork exclusion -------------------------- *)

let test_mutex_excludes_across_fork () =
  let k = Kernel.boot ~cpus:2 () in
  let depth = ref 0 and overlap = ref false and entries = ref 0 in
  let critical m () =
    for _ = 1 to 10 do
      Mutex.enter m;
      incr depth;
      if !depth > 1 then overlap := true;
      incr entries;
      Uctx.charge_us 40;
      decr depth;
      Mutex.exit m
    done
  in
  ignore
    (Kernel.spawn k ~name:"mx"
       ~main:
         (Libthread.boot (fun () ->
              let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
              let m = Mutex.create_shared (Syncvar.place seg ~offset:0) in
              ignore
                (Uctx.fork1 ~child_main:(Libthread.boot (critical m)));
              critical m ();
              ignore (Uctx.waitpid ()))));
  Kernel.run k;
  Alcotest.(check bool) "no overlapping critical sections" false !overlap;
  Alcotest.(check int) "both processes got through" 20 !entries

let test_rwlock_across_fork () =
  let k = Kernel.boot ~cpus:2 () in
  let readers = ref 0
  and max_readers = ref 0
  and writers = ref 0
  and overlap = ref false in
  let work l () =
    for i = 1 to 12 do
      if i mod 4 = 0 then begin
        Rwlock.enter l Rwlock.Writer;
        incr writers;
        if !writers > 1 || !readers > 0 then overlap := true;
        Uctx.charge_us 50;
        decr writers;
        Rwlock.exit l
      end
      else begin
        Rwlock.enter l Rwlock.Reader;
        incr readers;
        if !writers > 0 then overlap := true;
        (* linger so the other process's readers pile in *)
        Uctx.sleep (Time.ms 1);
        if !readers > !max_readers then max_readers := !readers;
        decr readers;
        Rwlock.exit l
      end
    done
  in
  ignore
    (Kernel.spawn k ~name:"rw"
       ~main:
         (Libthread.boot (fun () ->
              let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
              let l = Rwlock.create_shared (Syncvar.place seg ~offset:0) in
              ignore (Uctx.fork1 ~child_main:(Libthread.boot (work l)));
              work l ();
              ignore (Uctx.waitpid ()))));
  Kernel.run k;
  Alcotest.(check bool) "writers excluded everyone" false !overlap;
  Alcotest.(check bool) "readers from both processes overlapped" true
    (!max_readers >= 2)

let test_condvar_wakes_across_fork () =
  let k = Kernel.boot ~cpus:2 () in
  let observed = ref false in
  let flag = ref false in
  ignore
    (Kernel.spawn k ~name:"cv"
       ~main:
         (Libthread.boot (fun () ->
              let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
              let m = Mutex.create_shared (Syncvar.place seg ~offset:0) in
              let cv = Condvar.create_shared (Syncvar.place seg ~offset:64) in
              ignore
                (Uctx.fork1
                   ~child_main:
                     (Libthread.boot (fun () ->
                          Mutex.enter m;
                          while not !flag do
                            Condvar.wait cv m
                          done;
                          observed := true;
                          Mutex.exit m)));
              Uctx.sleep (Time.ms 5);
              Mutex.enter m;
              flag := true;
              Condvar.signal cv;
              Mutex.exit m;
              ignore (Uctx.waitpid ()))));
  Kernel.run k;
  Alcotest.(check bool) "child saw the flag via the shared condvar" true
    !observed

(* ------------------------- robust recovery ---------------------------- *)

let test_robust_mutex_owner_death () =
  let k = Kernel.boot ~cpus:2 () in
  let flagged = ref false and repaired = ref false and reusable = ref false in
  ignore
    (Kernel.spawn k ~name:"rb"
       ~main:
         (Libthread.boot (fun () ->
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
              flagged := Mutex.owner_dead m;
              (* an un-repaired robust lock refuses try_enter *)
              Alcotest.(check bool) "try_enter refuses OWNERDEAD" false
                (Mutex.try_enter m);
              (match Mutex.enter_robust m with
              | `Owner_dead ->
                  repaired := true;
                  Mutex.set_consistent m
              | `Locked -> ());
              Mutex.exit m;
              (* consistent again: plain enter works *)
              Mutex.enter m;
              reusable := true;
              Mutex.exit m)));
  Kernel.run k;
  Alcotest.(check bool) "OWNERDEAD flagged after the owner died" true
    !flagged;
  Alcotest.(check bool) "next acquirer got `Owner_dead to repair" true
    !repaired;
  Alcotest.(check bool) "lock usable after set_consistent" true !reusable

let test_robust_rwlock_writer_death () =
  let k = Kernel.boot ~cpus:2 () in
  let repaired = ref false and reusable = ref false in
  ignore
    (Kernel.spawn k ~name:"rbw"
       ~main:
         (Libthread.boot (fun () ->
              let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
              let l =
                Rwlock.create_shared ~robust:true
                  (Syncvar.place seg ~offset:0)
              in
              let pid =
                Uctx.fork1
                  ~child_main:
                    (Libthread.boot (fun () ->
                         Rwlock.enter l Rwlock.Writer))
              in
              ignore (Uctx.waitpid ~pid ());
              (* asking for the read side still admits us as the writer:
                 repair needs exclusion *)
              (match Rwlock.enter_robust l Rwlock.Reader with
              | `Owner_dead ->
                  repaired := Rwlock.has_writer l;
                  Rwlock.set_consistent l;
                  Rwlock.downgrade l;
                  Alcotest.(check int) "a reader after downgrade" 1
                    (Rwlock.readers l)
              | `Locked -> ());
              Rwlock.exit l;
              Rwlock.enter l Rwlock.Writer;
              reusable := true;
              Rwlock.exit l)));
  Kernel.run k;
  Alcotest.(check bool) "reader admitted as writer to repair" true !repaired;
  Alcotest.(check bool) "rwlock usable after set_consistent" true !reusable

let test_plain_enter_raises_owner_dead () =
  let k = Kernel.boot ~cpus:2 () in
  let raised = ref false in
  ignore
    (Kernel.spawn k ~name:"re"
       ~main:
         (Libthread.boot (fun () ->
              let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
              let m =
                Mutex.create_shared ~robust:true (Syncvar.place seg ~offset:0)
              in
              let pid =
                Uctx.fork1
                  ~child_main:(Libthread.boot (fun () -> Mutex.enter m))
              in
              ignore (Uctx.waitpid ~pid ());
              (match Mutex.enter m with
              | () -> ()
              | exception Mutex.Owner_dead -> raised := true);
              (* the exception path released the lock un-repaired; a
                 robust acquirer can still pick it up *)
              (match Mutex.enter_robust m with
              | `Owner_dead -> Mutex.set_consistent m
              | `Locked -> ());
              Mutex.exit m)));
  Kernel.run k;
  Alcotest.(check bool) "plain enter raised Owner_dead" true !raised

(* A chaos proc-kill must land while the child holds the lock: the
   kernel's sweep at proc_exit finds the dead owner in the lock word and
   leaves it OWNERDEAD.  The child's critical section loops over [touch]
   syscalls so in-section rolls vastly outnumber the few the thread
   library makes at startup; the rate is tuned so the deterministic roll
   sequence gets past those and kills mid-section (the simulation is
   seeded, so this is a fixed outcome, asserted below). *)
let test_chaos_prockill_mid_critical_section () =
  let profile =
    { Faultgen.off with Faultgen.label = "kill-child"; proc_kill = 0.05 }
  in
  let k = Kernel.boot ~cpus:2 ~chaos:profile () in
  let status = ref (-1) and repaired = ref false in
  ignore
    (Kernel.spawn k ~name:"ck"
       ~main:
         (Libthread.boot (fun () ->
              let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
              let m =
                Mutex.create_shared ~robust:true (Syncvar.place seg ~offset:0)
              in
              let pid =
                Uctx.fork1
                  ~child_main:
                    (Libthread.boot (fun () ->
                         Mutex.enter m;
                         for _ = 1 to 200 do
                           Uctx.touch seg ~offset:0
                         done;
                         Mutex.exit m))
              in
              let _, st = Uctx.waitpid ~pid () in
              status := st;
              (match Mutex.enter_robust m with
              | `Owner_dead ->
                  repaired := true;
                  Mutex.set_consistent m
              | `Locked -> ());
              Mutex.exit m)));
  Kernel.run k;
  Alcotest.(check int) "child killed by chaos (137)" 137 !status;
  Alcotest.(check bool) "lock repaired after the kill" true !repaired;
  Alcotest.(check bool) "proc-kill site counted" true
    (List.mem_assoc "proc-kill" (Kernel.chaos_counts k))

let ownerdead_records k =
  List.length
    (List.filter
       (fun r -> r.Sunos_sim.Tracebuf.kind = Sunos_sim.Tracebuf.Ownerdead)
       (Kernel.trace_records k))

(* A holder can die without its process: a bound thread that exits
   holding a robust mutex and a read hold takes its LWP with it, and
   that LWP's exit repairs both words while the main thread lives on. *)
let test_robust_lwp_exit_repairs () =
  let k = Kernel.boot ~cpus:2 () in
  let flagged = ref false and readers = ref (-1) and repaired = ref false in
  ignore
    (Kernel.spawn k ~name:"lx"
       ~main:
         (Libthread.boot (fun () ->
              let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
              let m =
                Mutex.create_shared ~robust:true (Syncvar.place seg ~offset:0)
              in
              let l =
                Rwlock.create_shared ~robust:true
                  (Syncvar.place seg ~offset:64)
              in
              let t =
                T.create ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
                  (fun () ->
                    Mutex.enter m;
                    Rwlock.enter l Rwlock.Reader;
                    T.exit ())
              in
              (* the bound thread runs, exits and takes its LWP along *)
              Uctx.sleep (Time.ms 5);
              flagged := Mutex.owner_dead m;
              readers := Rwlock.readers l;
              (match Mutex.enter_robust m with
              | `Owner_dead ->
                  repaired := true;
                  Mutex.set_consistent m
              | `Locked -> ());
              Mutex.exit m;
              ignore (T.wait ~thread:t ()))));
  Kernel.run k;
  Alcotest.(check bool) "the mutex is OWNERDEAD after the LWP exit" true
    !flagged;
  Alcotest.(check int) "the dead thread's read hold is dropped" 0 !readers;
  Alcotest.(check bool) "enter_robust returned `Owner_dead" true !repaired;
  Alcotest.(check int) "one ownerdead record per repaired word" 2
    (ownerdead_records k)

(* An LWP exit repairs only the words its dead threads held: a bound
   thread's LWP exiting beside a live holder leaves that lock alone. *)
let test_robust_lwp_exit_spares_live_holder () =
  let k = Kernel.boot ~cpus:2 () in
  let flagged = ref true and held = ref false in
  ignore
    (Kernel.spawn k ~name:"ls"
       ~main:
         (Libthread.boot (fun () ->
              let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
              let m =
                Mutex.create_shared ~robust:true (Syncvar.place seg ~offset:0)
              in
              Mutex.enter m;
              let t =
                T.create ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
                  (fun () -> ())
              in
              Uctx.sleep (Time.ms 5);
              ignore (T.wait ~thread:t ());
              flagged := Mutex.owner_dead m;
              held := Mutex.holding m;
              Mutex.exit m)));
  Kernel.run k;
  Alcotest.(check bool) "the live holder's mutex is not OWNERDEAD" false
    !flagged;
  Alcotest.(check bool) "main still holds it" true !held;
  Alcotest.(check int) "no ownerdead record" 0 (ownerdead_records k)

(* A lock still held when its run stops keeps its owner in its word.  A
   second kernel booted afterwards in the same domain reuses pid 1; its
   exit must not check the first run's lock (the segment is not one it
   maps), so that lock keeps its owner and the second kernel traces no
   OWNERDEAD. *)
let test_robust_entry_stays_with_its_kernel () =
  let k1 = Kernel.boot ~cpus:1 () in
  let lock = ref None in
  ignore
    (Kernel.spawn k1 ~name:"holder"
       ~main:
         (Libthread.boot (fun () ->
              let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
              let m =
                Mutex.create_shared ~robust:true (Syncvar.place seg ~offset:0)
              in
              Mutex.enter m;
              lock := Some m;
              Uctx.sleep (Time.s 1);
              Mutex.exit m)));
  Kernel.run ~until:(Time.add Time.zero (Time.ms 10)) k1;
  let m = Option.get !lock in
  let k2 = Kernel.boot ~cpus:1 () in
  ignore (Kernel.spawn k2 ~name:"bystander" ~main:(fun () -> ()));
  Kernel.run k2;
  Alcotest.(check bool) "the first run's lock is not OWNERDEAD" false
    (Mutex.owner_dead m);
  Alcotest.(check int) "the second kernel traced no ownerdead" 0
    (ownerdead_records k2)

(* ------------------------- observability ------------------------------ *)

(* While a child blocks on a shared mutex, /proc names the wait channel
   (segment + offset) and lists the cross-process waiter. *)
let test_procfs_wait_channels () =
  let k = Kernel.boot ~cpus:2 () in
  ignore
    (Kernel.spawn k ~name:"wc"
       ~main:
         (Libthread.boot (fun () ->
              let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
              let m = Mutex.create_shared (Syncvar.place seg ~offset:0) in
              Mutex.enter m;
              ignore
                (Uctx.fork1
                   ~child_main:
                     (Libthread.boot (fun () ->
                          Mutex.enter m;
                          Mutex.exit m)));
              Uctx.sleep (Time.ms 50);
              Mutex.exit m;
              ignore (Uctx.waitpid ()))));
  (* stop mid-run while the child is parked on the channel *)
  Kernel.run ~until:(Time.ms 20) k;
  let wcs = Procfs.wait_channels k in
  let ours =
    List.find_opt
      (fun wc -> wc.Procfs.wc_seg_name = "[anon]" && wc.Procfs.wc_offset = 0)
      wcs
  in
  (match ours with
  | None -> Alcotest.fail "no wait channel for the shared mutex"
  | Some wc ->
      Alcotest.(check bool) "a waiter from another process listed" true
        (List.exists (fun (pid, _) -> pid <> 1) wc.Procfs.wc_waiters));
  let txt = Format.asprintf "%a" Procfs.pp_wait_channels k in
  Alcotest.(check bool) "pp_wait_channels names the channel" true
    (String.length txt > 0);
  (* and the run completes once resumed *)
  Kernel.run k;
  Alcotest.(check (list Alcotest.reject)) "no channel left behind" []
    (Procfs.wait_channels k)

(* Shared locks get their sanitizer identity from their placement, so
   thrsan reports name them "segment+offset" — and both processes land
   on the same graph node, letting a cross-process lock-order inversion
   close the cycle. *)
let test_thrsan_names_shared_objects () =
  Thrsan.reset ();
  Thrsan.enable ();
  Thrsan.set_lock_order_mode true;
  Fun.protect
    ~finally:(fun () ->
      Thrsan.set_lock_order_mode false;
      Thrsan.disable ())
    (fun () ->
      let k = Kernel.boot ~cpus:2 () in
      let names = ref None in
      ignore
        (Kernel.spawn k ~name:"abba"
           ~main:
             (Libthread.boot (fun () ->
                  let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
                  let m1 =
                    Mutex.create_shared (Syncvar.place seg ~offset:0)
                  in
                  let m2 =
                    Mutex.create_shared (Syncvar.place seg ~offset:64)
                  in
                  (* record the order m1 -> m2 in this process *)
                  Mutex.enter m1;
                  Mutex.enter m2;
                  Mutex.exit m2;
                  Mutex.exit m1;
                  (* the child tries the inverse order *)
                  ignore
                    (Uctx.fork1
                       ~child_main:
                         (Libthread.boot (fun () ->
                              Mutex.enter m2;
                              (match Mutex.enter m1 with
                              | () -> Mutex.exit m1
                              | exception Thrsan.Lock_order_violation
                                  (held, wanted) ->
                                  names := Some (held, wanted));
                              Mutex.exit m2)));
                  ignore (Uctx.waitpid ()))));
      Kernel.run k;
      match !names with
      | None -> Alcotest.fail "no cross-process lock-order violation"
      | Some (held, wanted) ->
          Alcotest.(check string) "held named by placement" "[anon]+64" held;
          Alcotest.(check string) "wanted named by placement" "[anon]+0"
            wanted)

(* Two anonymous segments share the name "[anon]" but not their lock
   words: shared Lockdebug locks at offset 0 of each are two locks, so
   taking L1 -> F and then F -> L2 is no order inversion. *)
let test_thrsan_anon_segments_distinct () =
  Thrsan.reset ();
  let k = Kernel.boot ~cpus:1 () in
  (match Sunos_kernel.Fs.create_file (Kernel.fs k) ~path:"/locks" () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "setup");
  let violation = ref None in
  ignore
    (Kernel.spawn k ~name:"order"
       ~main:
         (Libthread.boot (fun () ->
              let lock name seg =
                Lockdebug.create_shared ~name (Syncvar.place seg ~offset:0)
              in
              let l1 = lock "L1" (Uctx.mmap_anon ~size:4096 ~shared:true) in
              let l2 = lock "L2" (Uctx.mmap_anon ~size:4096 ~shared:true) in
              let f = lock "F" (Uctx.mmap (Uctx.open_file "/locks")) in
              let nest a b =
                Lockdebug.enter a;
                Lockdebug.enter b;
                Lockdebug.exit b;
                Lockdebug.exit a
              in
              try
                nest l1 f;
                nest f l2
              with Thrsan.Lock_order_violation (held, wanted) ->
                violation := Some (held, wanted))));
  Kernel.run k;
  Alcotest.(check (option (pair string string))) "no order violation" None
    !violation

(* ------------- thread-signal delivery in shared-sync loops ------------ *)

(* The missing-checkpoint class of BUG 13/14, shared-mutex edition: a
   thread cycling on a process-shared mutex must pass a thread-level
   delivery point on every acquisition, so a pending thread_kill
   reaches its handler mid-loop.  Kernel-level kwait wakeups keep
   tstate Trunning — thread_kill can only queue the signal — so
   enter_shared's own checkpoint is the only delivery point the loop
   has. *)
let test_shared_mutex_loop_delivers_thread_kill () =
  let k = Kernel.boot ~cpus:2 () in
  let handled = ref false and handled_mid_loop = ref false in
  ignore
    (Kernel.spawn k ~name:"mxsig"
       ~main:
         (Libthread.boot (fun () ->
              ignore
                (T.sigaction Signo.sigusr1
                   (Sysdefs.Sig_handler (fun _ -> handled := true)));
              let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
              let m = Mutex.create_shared (Syncvar.place seg ~offset:0) in
              let started = Semaphore.create () in
              let victim =
                T.create
                  ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
                  (fun () ->
                    Semaphore.v started;
                    for _ = 1 to 100 do
                      Mutex.enter m;
                      Uctx.charge_us 20;
                      Mutex.exit m
                    done;
                    (* recorded by the victim itself, before any
                       delivery point that thread exit might add *)
                    handled_mid_loop := !handled)
              in
              Semaphore.p started;
              Uctx.sleep (Time.us 200);
              T.kill victim Signo.sigusr1;
              ignore (T.wait ~thread:victim ()))));
  Kernel.run k;
  Alcotest.(check bool) "thread_kill delivered inside the lock loop" true
    !handled_mid_loop

(* Same class, bare syncvar edition: a thread polling Syncvar.wait with
   short kwait timeouts never leaves Trunning, so without a checkpoint
   at wait entry a pending thread_kill starves for the whole loop. *)
let test_syncvar_wait_loop_delivers_thread_kill () =
  let k = Kernel.boot ~cpus:2 () in
  let handled = ref false and handled_mid_loop = ref false in
  ignore
    (Kernel.spawn k ~name:"svsig"
       ~main:
         (Libthread.boot (fun () ->
              ignore
                (T.sigaction Signo.sigusr1
                   (Sysdefs.Sig_handler (fun _ -> handled := true)));
              let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
              let pl = Syncvar.place seg ~offset:0 in
              let started = Semaphore.create () in
              let victim =
                T.create
                  ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
                  (fun () ->
                    Semaphore.v started;
                    let rounds = ref 0 in
                    while (not !handled) && !rounds < 200 do
                      incr rounds;
                      ignore
                        (Syncvar.wait pl ~timeout:(Time.us 100)
                           ~expect:(fun () -> true)
                           ())
                    done;
                    handled_mid_loop := !handled)
              in
              Semaphore.p started;
              Uctx.sleep (Time.us 300);
              T.kill victim Signo.sigusr1;
              ignore (T.wait ~thread:victim ()))));
  Kernel.run k;
  Alcotest.(check bool) "thread_kill delivered inside the kwait loop" true
    !handled_mid_loop

let () =
  Alcotest.run "usync"
    [
      ( "anon-fork",
        [
          Alcotest.test_case "shared anon aliases across fork" `Quick
            test_shared_anon_aliases_across_fork;
          Alcotest.test_case "private anon cloned at fork" `Quick
            test_private_anon_not_aliased_across_fork;
        ] );
      ( "cross-process",
        [
          Alcotest.test_case "mutex excludes across fork" `Quick
            test_mutex_excludes_across_fork;
          Alcotest.test_case "rwlock shares readers across fork" `Quick
            test_rwlock_across_fork;
          Alcotest.test_case "condvar wakes across fork" `Quick
            test_condvar_wakes_across_fork;
        ] );
      ( "robust",
        [
          Alcotest.test_case "mutex owner death -> repair" `Quick
            test_robust_mutex_owner_death;
          Alcotest.test_case "rwlock writer death -> repair" `Quick
            test_robust_rwlock_writer_death;
          Alcotest.test_case "plain enter raises Owner_dead" `Quick
            test_plain_enter_raises_owner_dead;
          Alcotest.test_case "chaos proc-kill mid critical section" `Quick
            test_chaos_prockill_mid_critical_section;
          Alcotest.test_case "entry stays with its kernel" `Quick
            test_robust_entry_stays_with_its_kernel;
          Alcotest.test_case "LWP exit repairs a dead thread's locks" `Quick
            test_robust_lwp_exit_repairs;
          Alcotest.test_case "LWP exit spares a live holder" `Quick
            test_robust_lwp_exit_spares_live_holder;
        ] );
      ( "observability",
        [
          Alcotest.test_case "/proc wait channels" `Quick
            test_procfs_wait_channels;
          Alcotest.test_case "thrsan names shared objects" `Quick
            test_thrsan_names_shared_objects;
          Alcotest.test_case "anon segments are distinct locks" `Quick
            test_thrsan_anon_segments_distinct;
        ] );
      ( "signal-delivery",
        [
          Alcotest.test_case "shared-mutex loop delivers thread_kill" `Quick
            test_shared_mutex_loop_delivers_thread_kill;
          Alcotest.test_case "syncvar-wait loop delivers thread_kill" `Quick
            test_syncvar_wait_loop_delivers_thread_kill;
        ] );
    ]
