(* Golden runs: the determinism configurations and the dispatch storm,
   stated once, and the one text that pins a run or compares two.

   [lines] renders a finished run: its scheduler counters, where the CPU
   time went, each process's accounted CPU and every trace record.
   test_determinism prints it for each configuration and dune diffs that
   output against test_determinism.expected, so a moved figure shows up
   as a diff line that names the record.  Suites that compare two runs
   with each other (coalescing off and on, copies on several domains, a
   chaos replay) compare their lines with [check_same], which names the
   first line that differs. *)

module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Procfs = Sunos_kernel.Procfs
module Machine = Sunos_hw.Machine
module Cpu = Sunos_hw.Cpu
module Eventq = Sunos_sim.Eventq
module Time = Sunos_sim.Time
module Tracebuf = Sunos_sim.Tracebuf
module S = Sunos_workloads.Net_server
module Db = Sunos_workloads.Database
module KV = Sunos_workloads.Kv_store

(* --- the configurations ---------------------------------------------- *)

(* The threaded server and its closed-loop clients. *)
let net =
  {
    S.default_params with
    connections = 12;
    requests_per_conn = 2;
    think_time_us = 20_000;
    connect_stagger_us = 500;
    disk_every = 8;
    workers = 4;
    concurrency = 4;
    client_concurrency = 12;
    listen_backlog = 32;
  }

(* The epoll server under the open-loop Poisson generator: readiness
   lists, ONESHOT re-arms and the catch-up sender all on the golden
   path.  Small enough to stay well under the trace-ring cap. *)
let net_epoll =
  {
    S.default_params with
    connections = 12;
    requests_per_conn = 2;
    disk_every = 8;
    workers = 4;
    concurrency = 8;
    listen_backlog = 32;
    epoll = true;
    open_loop = true;
    pollers = 2;
    connectors = 2;
    arrival_rate_rps = 400.;
    max_pending = 2;
    drain_grace_us = 2_000_000;
  }

(* The server with bounded connect retries, request deadlines and load
   shedding: the configuration the chaos runs use. *)
let hardened =
  {
    S.default_params with
    connections = 10;
    requests_per_conn = 3;
    think_time_us = 1_000;
    connect_stagger_us = 500;
    workers = 4;
    concurrency = 4;
    client_concurrency = 10;
    listen_backlog = 8;
    connect_retry_limit = 12;
    retry_base_us = 300;
    request_deadline_us = 250_000;
    shed_queue_limit = 6;
  }

let db =
  {
    Db.default_params with
    processes = 2;
    threads_per_process = 4;
    records = 16;
    transactions_per_thread = 10;
  }

let kv ~procs =
  {
    KV.default_params with
    server_procs = procs;
    shards = 4;
    clients = 6;
    requests_per_client = 4;
    workers_per_server = 3;
    think_time_us = 500;
  }

(* Each runner boots a 2-CPU machine with [chaos] (default: SUNOS_CHAOS,
   else off), [cost] and [trace] (default on), runs the workload to the
   end and hands the live kernel to [debrief].  The server runs the MT
   model. *)
let server ?chaos ?cost ?(trace = true) p debrief =
  S.run (module Sunos_baselines.Mt) ~cpus:2 ?chaos ?cost ~trace ~debrief p

let database ?chaos ?cost ?(trace = true) p debrief =
  Db.run ~cpus:2 ?chaos ?cost ~trace ~debrief p

let kv_store ?chaos ?(trace = true) p debrief =
  KV.run ~cpus:2 ?chaos ~trace ~debrief p

(* The dispatch storm, on one CPU: 60 LWPs each charge 50 us and sleep
   200 us twenty times, so the run queue stays deep and dispatching,
   sleeping and waking do most of the work. *)
let storm ?chaos ?cost ?(trace = true) debrief =
  let k = Kernel.boot ~cpus:1 ?chaos ?cost () in
  if not trace then Kernel.set_tracing k false;
  ignore
    (Kernel.spawn k ~name:"storm" ~main:(fun () ->
         for _ = 1 to 60 do
           ignore
             (Uctx.lwp_create
                ~entry:(fun () ->
                  for _ = 1 to 20 do
                    Uctx.charge_us 50;
                    Uctx.sleep (Time.us 200)
                  done;
                  Uctx.lwp_exit ())
                ())
         done));
  Kernel.run k;
  debrief k

(* [f] of the live kernel [run] hands its debrief. *)
let read run f =
  let out = ref None in
  ignore (run (fun k -> out := Some (f k)));
  Option.get !out

(* --- the text -------------------------------------------------------- *)

(* The scheduler counters, then where the CPU time went: the makespan,
   each CPU's busy time and the syscall count.  Busy time records where
   every charge landed, so it moves if the engine fires events in
   another order or settles run-ahead charges at other instants, even
   when the trace does not. *)
let counters k =
  let m = Kernel.machine k in
  let now = Machine.now m in
  [
    Printf.sprintf "dispatches=%d preemptions=%d" (Kernel.dispatch_count k)
      (Kernel.preemption_count k);
    Printf.sprintf "makespan=%Ld busy=%s syscalls=%d" now
      (String.concat ","
         (Array.to_list
            (Array.map
               (fun c -> Int64.to_string (Cpu.busy_time c ~now))
               m.Machine.cpus)))
      (Kernel.syscall_count k);
  ]

(* A process's accounted CPU as /proc reports it. *)
let proc_line pi =
  Printf.sprintf "pid%d utime/stime=%Ld/%Ld" pi.Procfs.pi_pid
    pi.Procfs.pi_utime pi.Procfs.pi_stime

(* A trace record as it reads when rendered: time, tag and message. *)
let render r =
  Printf.sprintf "%Ld %s %s" r.Tracebuf.time (Tracebuf.tag r)
    (Tracebuf.message r)

let lines k =
  counters k
  @ List.map proc_line (Procfs.snapshot k)
  @ List.map render (Kernel.trace_records k)

(* How many events the engine fired, then the same events by kind
   ([Kernel.event_counts]), then how many of them fired from the queue's
   register (beside the kinds, which sum to [events=]).  The figures in
   [lines] do not see the engine's own cost, so a change to it shows up
   here; it stays out of [lines] because coalescing run-ahead charges
   changes it by design. *)
let events k =
  let q = (Kernel.machine k).Machine.eventq in
  Printf.sprintf "events=%d\nevents by kind: %s\nevents from the register=%d"
    (Eventq.events_fired q)
    (String.concat " "
       (List.map
          (fun (kind, n) -> Printf.sprintf "%s=%d" kind n)
          (Kernel.event_counts k)))
    (Eventq.register_fired q)

let check_same name a b =
  let rec go i = function
    | [], [] -> ()
    | x :: xs, y :: ys when String.equal x y -> go (i + 1) (xs, ys)
    | x :: _, y :: _ ->
        Alcotest.failf "%s: line %d differs: %s against %s" name i x y
    | x :: _, [] -> Alcotest.failf "%s: line %d only in the first: %s" name i x
    | [], y :: _ ->
        Alcotest.failf "%s: line %d only in the second: %s" name i y
  in
  go 1 (a, b)
