(* Run-ahead charge coalescing must be invisible to the simulation: the
   kernel grants a resumed fiber a CPU budget bounded by its remaining
   quantum, the next pending event, and the cost model's coalesce
   window, and settles the accumulated slice in one event — so with the
   budget capped strictly below every observable horizon, a coalesced
   run and a charge-by-charge run must produce byte-identical traces and
   identical per-process accounted CPU.

   This suite pins that equivalence on the three paper workloads, on
   Figure 6's synchronization runs and on targeted budget edges: quantum
   expiry mid-ledger, a signal landing during the run-ahead window,
   parking with an unsettled ledger, the dispatch storm, and the edges
   of a prefix settled without an event of its own. *)

module Time = Sunos_sim.Time
module Eventq = Sunos_sim.Eventq
module Cost = Sunos_hw.Cost_model
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Sysdefs = Sunos_kernel.Sysdefs
module Signo = Sunos_kernel.Signo
module Libthread = Sunos_threads.Libthread
module T = Sunos_threads.Thread
module W = Sunos_workloads.Window_system
module Microbench = Sunos_workloads.Microbench

let cost_off = { Cost.default with coalesce = false }

(* Everything the optimization could plausibly disturb is in
   Golden.lines: the trace, the scheduling counters, the clock, each
   CPU's busy time and each process's accounted user/system CPU as /proc
   reports it. *)
let check_equal name run =
  Golden.check_same name
    (Golden.read (run ~cost:cost_off) Golden.lines)
    (Golden.read (run ~cost:Cost.default) Golden.lines)

(* --- the three pinned workloads, coalescing off vs on ---------------- *)

let test_net () =
  check_equal "net-server" (fun ~cost ->
      Golden.server ~cost { Golden.net with compute_steps = 4 })

let test_db () =
  check_equal "database" (fun ~cost -> Golden.database ~cost Golden.db)

let test_db_mmap () =
  check_equal "database-mmap" (fun ~cost ->
      Golden.database ~cost { Golden.db with mmap_io = true })

let test_window () =
  check_equal "window-system" (fun ~cost debrief ->
      W.run
        (module Sunos_baselines.Mt)
        ~cpus:2 ~cost ~trace:true ~debrief
        { W.default_params with widgets = 30; events = 120 })

(* Figure 6's runs: the semaphore ping-pong between unbound threads,
   bound threads and two processes, per synchronization. *)
let test_microbench_sync () =
  let lines ~cost =
    let s = Microbench.sync ~cost () in
    List.map
      (fun (name, us) -> Printf.sprintf "%s %.17g us" name us)
      [
        ("setjmp", s.Microbench.setjmp_us);
        ("unbound", s.unbound_us);
        ("bound", s.bound_us);
        ("cross-process", s.cross_process_us);
      ]
  in
  Golden.check_same "microbench-sync" (lines ~cost:cost_off)
    (lines ~cost:Cost.default)

(* --- budget edges ---------------------------------------------------- *)

(* Run a program under both modes and compare. *)
let check_edge ?(cpus = 1) name prog =
  check_equal name (fun ~cost debrief ->
      let k = Kernel.boot ~cpus ~cost () in
      prog k;
      Kernel.run k;
      debrief k)

(* Quantum expiry mid-ledger: two competing CPU hogs on one CPU charge
   in 1ms slices, far past the timeshare quantum, so run-ahead windows
   end on quantum exhaustion and expiry lands mid-accumulation.  The
   preemption count and both LWPs' accounted CPU must not move. *)
let test_quantum_expiry () =
  check_edge "quantum-expiry" (fun k ->
      for i = 1 to 2 do
        ignore
          (Kernel.spawn k
             ~name:(Printf.sprintf "hog%d" i)
             ~main:(fun () ->
               for _ = 1 to 400 do
                 Uctx.charge_us 1_000
               done))
      done)

(* A signal posted during run-ahead: a real-timer expiry (an event, so
   it bounds the granted budget) fires while the fiber is mid-window;
   the handler must run at the same instant and see the same accounted
   CPU in both modes. *)
let test_signal_during_runahead () =
  check_edge "signal-during-runahead" (fun k ->
      ignore
        (Kernel.spawn k ~name:"alarmed" ~main:(fun () ->
             let fired = ref 0 in
             ignore
               (Uctx.sigaction Signo.sigalrm
                  (Sysdefs.Sig_handler (fun _ -> incr fired)));
             Uctx.setitimer Sysdefs.Timer_real (Some (Time.ms 5));
             for _ = 1 to 40 do
               Uctx.charge_us 500
             done;
             if !fired <> 1 then failwith "alarm did not fire exactly once")))

(* Parking with an unsettled ledger: user-level threads charge and then
   block in the kernel, so their LWP parks while the ledger holds an
   unsettled prefix; the settle event must land before the park in both
   modes. *)
let test_park_unsettled () =
  check_edge "park-unsettled" (fun k ->
      ignore
        (Kernel.spawn k ~name:"parker"
           ~main:
             (Libthread.boot (fun () ->
                  T.setconcurrency 2;
                  let ts =
                    List.init 3 (fun i ->
                        T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                            for _ = 1 to 10 do
                              Uctx.charge_us (300 + (i * 70));
                              Uctx.sleep (Time.us 900)
                            done))
                  in
                  List.iter (fun t -> ignore (T.wait ~thread:t ())) ts))))

(* The dispatch storm (test/golden.ml): sixty LWPs on one CPU charge
   and sleep in turn behind a deep run queue.  Coalescing folds 1,078
   of its 1,200 charge slices into grants. *)
let test_storm () =
  check_equal "dispatch-storm" (fun ~cost debrief ->
      Golden.storm ~cost debrief)

(* --- the folded prefix ------------------------------------------------ *)

(* A step after run-ahead starts its next busy interval at the end of the
   coalesced prefix.  These edges put foreign events right after that
   instant and at a quantum boundary; both modes must agree. *)

(* A syscall to get past start-up (whose grant is closed by the other
   CPU's start), then three charges that coalesce under the next grant. *)
let run_ahead () =
  ignore (Uctx.getpid ());
  for _ = 1 to 3 do
    Uctx.charge_us 10
  done

(* The instant the coalesced prefix of [run_ahead] ends, read back from a
   solo run: a [gettime] right after it executes at the end of its trap
   entry. *)
let prefix_end =
  lazy
    (let t = ref 0L in
     let k = Kernel.boot ~cpus:2 () in
     ignore
       (Kernel.spawn k ~name:"solo" ~main:(fun () ->
            run_ahead ();
            t := Uctx.gettime ()));
     Kernel.run k;
     Time.diff !t
       (Int64.add Cost.default.trap_entry Cost.default.syscall_fixed))

(* A neighbour on the other CPU, started with the caller, whose first
   charge completes 1 ns after the caller's prefix ends. *)
let neighbour k =
  let start = Cost.default.kernel_dispatch in
  let span = Time.diff (Int64.succ (Lazy.force prefix_end)) start in
  ignore
    (Kernel.spawn k ~name:"neighbour" ~main:(fun () ->
         Uctx.charge span;
         ignore (Uctx.getpid ())))

(* The prefix is followed by a syscall, and the neighbour's charge
   completes inside the trap entry that the prefix's end starts. *)
let test_prefix_then_syscall () =
  Alcotest.(check bool) "the neighbour's event lies inside the trap entry"
    true
    Time.(Int64.add Cost.default.trap_entry Cost.default.syscall_fixed > 1L);
  check_edge ~cpus:2 "prefix-then-syscall" (fun k ->
      ignore
        (Kernel.spawn k ~name:"caller" ~main:(fun () ->
             run_ahead ();
             ignore (Uctx.getpid ())));
      neighbour k)

(* The prefix is followed by the thread's exit: the LWP must die at the
   settled instant, 1 ns before the neighbour's event, with the prefix in
   its accounted CPU. *)
let test_prefix_then_exit () =
  check_edge ~cpus:2 "prefix-then-exit" (fun k ->
      ignore (Kernel.spawn k ~name:"exiter" ~main:run_ahead);
      neighbour k)

(* Two hogs on one CPU charge a quarter quantum at a time: three charges
   coalesce, and the fourth starts a slice that ends exactly when the
   quantum runs out, where the other hog preempts. *)
let test_prefix_exhausts_quantum () =
  let quarter = Int64.div Cost.default.quantum 4L in
  Alcotest.(check int64) "the quantum splits in quarters"
    Cost.default.quantum (Int64.mul quarter 4L);
  check_edge "prefix-exhausts-quantum" (fun k ->
      for i = 1 to 2 do
        ignore
          (Kernel.spawn k
             ~name:(Printf.sprintf "quarter%d" i)
             ~main:(fun () ->
               for _ = 1 to 12 do
                 Uctx.charge quarter
               done))
      done)

(* --- the event queue micro-fix: on_drain fires in registration order *)

let test_on_drain_order () =
  let q = Eventq.create () in
  let order = ref [] in
  List.iter
    (fun i -> Eventq.on_drain q (fun () -> order := i :: !order))
    [ 1; 2; 3 ];
  ignore (Eventq.at q 5L ignore);
  Eventq.run q;
  Alcotest.(check (list int)) "registration order" [ 1; 2; 3 ]
    (List.rev !order)

let () =
  Alcotest.run "coalesce"
    [
      ( "equivalence",
        [
          Alcotest.test_case "net-server off=on" `Quick test_net;
          Alcotest.test_case "database off=on" `Quick test_db;
          Alcotest.test_case "database-mmap off=on" `Quick test_db_mmap;
          Alcotest.test_case "window-system off=on" `Quick test_window;
          Alcotest.test_case "microbench sync off=on" `Quick
            test_microbench_sync;
        ] );
      ( "budget-edges",
        [
          Alcotest.test_case "quantum expiry mid-ledger" `Quick
            test_quantum_expiry;
          Alcotest.test_case "signal during run-ahead" `Quick
            test_signal_during_runahead;
          Alcotest.test_case "park with unsettled ledger" `Quick
            test_park_unsettled;
          Alcotest.test_case "dispatch storm" `Quick test_storm;
        ] );
      ( "folded-prefix",
        [
          Alcotest.test_case "prefix then syscall, event inside the trap"
            `Quick test_prefix_then_syscall;
          Alcotest.test_case "prefix then exit" `Quick test_prefix_then_exit;
          Alcotest.test_case "prefix exhausts the quantum on a slice boundary"
            `Quick test_prefix_exhausts_quantum;
        ] );
      ( "eventq",
        [
          Alcotest.test_case "on_drain registration order" `Quick
            test_on_drain_order;
        ] );
    ]
