(* Run-ahead charge coalescing must be invisible to the simulation: the
   kernel grants a resumed fiber a CPU budget bounded by its remaining
   quantum, the next pending event, and the cost model's coalesce
   window, and settles the accumulated slice in one event — so with the
   budget capped strictly below every observable horizon, a coalesced
   run and a charge-by-charge run must produce byte-identical traces and
   identical per-LWP accounted CPU.

   This suite pins that equivalence on the three paper workloads and on
   targeted budget edges: quantum expiry mid-ledger, a signal landing
   during the run-ahead window, parking with an unsettled ledger, and
   the edges of a prefix settled without an event of its own. *)

module Time = Sunos_sim.Time
module Eventq = Sunos_sim.Eventq
module Cost = Sunos_hw.Cost_model
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Procfs = Sunos_kernel.Procfs
module Sysdefs = Sunos_kernel.Sysdefs
module Signo = Sunos_kernel.Signo
module Libthread = Sunos_threads.Libthread
module T = Sunos_threads.Thread
module S = Sunos_workloads.Net_server
module Db = Sunos_workloads.Database
module W = Sunos_workloads.Window_system

let cost_off = { Cost.default with coalesce = false }
let cost_of ~coalesce = if coalesce then Cost.default else cost_off

(* Everything the optimization could plausibly disturb: the trace tag
   stream, scheduling counters, the clock, and each LWP's accounted
   user/system CPU as /proc reports it. *)
type probe = {
  tag_digest : string;
  tag_count : int;
  dispatches : int;
  preemptions : int;
  end_time : Time.t;
  cpu : (int * string * (int * Time.span * Time.span) list) list;
      (* pid, "utime/stime", per-LWP (lwpid, utime, stime) *)
}

let probe_of_kernel k =
  let tags =
    List.map Sunos_sim.Tracebuf.tag (Kernel.trace_records k)
  in
  {
    tag_digest = Digest.to_hex (Digest.string (String.concat "," tags));
    tag_count = List.length tags;
    dispatches = Kernel.dispatch_count k;
    preemptions = Kernel.preemption_count k;
    end_time = Kernel.now k;
    cpu =
      List.map
        (fun pi ->
          ( pi.Procfs.pi_pid,
            Printf.sprintf "%Ld/%Ld" pi.Procfs.pi_utime pi.Procfs.pi_stime,
            List.map
              (fun li ->
                ( li.Procfs.li_lwpid,
                  li.Procfs.li_utime,
                  li.Procfs.li_stime ))
              pi.Procfs.pi_lwps ))
        (Procfs.snapshot k);
  }

let check_equal name (off : probe) (on : probe) =
  Alcotest.(check string) (name ^ " trace digest") off.tag_digest on.tag_digest;
  Alcotest.(check int) (name ^ " trace count") off.tag_count on.tag_count;
  Alcotest.(check int) (name ^ " dispatches") off.dispatches on.dispatches;
  Alcotest.(check int) (name ^ " preemptions") off.preemptions on.preemptions;
  Alcotest.(check int64) (name ^ " end time") off.end_time on.end_time;
  Alcotest.(check int)
    (name ^ " process count")
    (List.length off.cpu) (List.length on.cpu);
  List.iter2
    (fun (pid0, t0, lwps0) (pid1, t1, lwps1) ->
      Alcotest.(check int) (name ^ " pid") pid0 pid1;
      Alcotest.(check string)
        (Printf.sprintf "%s pid %d proc cpu" name pid0)
        t0 t1;
      List.iter2
        (fun (id0, u0, s0) (id1, u1, s1) ->
          Alcotest.(check int) (name ^ " lwpid") id0 id1;
          Alcotest.(check int64)
            (Printf.sprintf "%s pid %d lwp %d utime" name pid0 id0)
            u0 u1;
          Alcotest.(check int64)
            (Printf.sprintf "%s pid %d lwp %d stime" name pid0 id0)
            s0 s1)
        lwps0 lwps1)
    off.cpu on.cpu

(* --- the three pinned workloads, coalescing off vs on ---------------- *)

let net_probe ~coalesce =
  let p =
    {
      S.default_params with
      connections = 12;
      requests_per_conn = 2;
      think_time_us = 20_000;
      connect_stagger_us = 500;
      compute_steps = 4;
      disk_every = 8;
      workers = 4;
      concurrency = 4;
      client_concurrency = 12;
      listen_backlog = 32;
    }
  in
  let out = ref None in
  ignore
    (S.run
       (module Sunos_baselines.Mt)
       ~cpus:2 ~cost:(cost_of ~coalesce) ~trace:true
       ~debrief:(fun k -> out := Some (probe_of_kernel k))
       p);
  Option.get !out

let db_probe ~mmap ~coalesce =
  let p =
    {
      Db.default_params with
      processes = 2;
      threads_per_process = 4;
      records = 16;
      transactions_per_thread = 10;
      mmap_io = mmap;
    }
  in
  let out = ref None in
  ignore
    (Db.run ~cpus:2 ~cost:(cost_of ~coalesce) ~trace:true
       ~debrief:(fun k -> out := Some (probe_of_kernel k))
       p);
  Option.get !out

let window_probe ~coalesce =
  let p = { W.default_params with widgets = 30; events = 120 } in
  let out = ref None in
  ignore
    (W.run
       (module Sunos_baselines.Mt)
       ~cpus:2 ~cost:(cost_of ~coalesce) ~trace:true
       ~debrief:(fun k -> out := Some (probe_of_kernel k))
       p);
  Option.get !out

let test_net () =
  check_equal "net-server" (net_probe ~coalesce:false) (net_probe ~coalesce:true)

let test_db () =
  check_equal "database"
    (db_probe ~mmap:false ~coalesce:false)
    (db_probe ~mmap:false ~coalesce:true)

let test_db_mmap () =
  check_equal "database-mmap"
    (db_probe ~mmap:true ~coalesce:false)
    (db_probe ~mmap:true ~coalesce:true)

let test_window () =
  check_equal "window-system"
    (window_probe ~coalesce:false)
    (window_probe ~coalesce:true)

(* --- budget edges ---------------------------------------------------- *)

(* Run a program under both modes and compare probes. *)
let edge_probe ~cpus prog ~coalesce =
  let k = Kernel.boot ~cpus ~cost:(cost_of ~coalesce) () in
  prog k;
  Kernel.run k;
  probe_of_kernel k

let check_edge ?(cpus = 1) name prog =
  check_equal name
    (edge_probe ~cpus prog ~coalesce:false)
    (edge_probe ~cpus prog ~coalesce:true)

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
        ] );
      ( "budget-edges",
        [
          Alcotest.test_case "quantum expiry mid-ledger" `Quick
            test_quantum_expiry;
          Alcotest.test_case "signal during run-ahead" `Quick
            test_signal_during_runahead;
          Alcotest.test_case "park with unsettled ledger" `Quick
            test_park_unsettled;
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
