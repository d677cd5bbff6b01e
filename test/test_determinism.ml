(* Same-seed determinism regression for the dispatcher rewrite.

   The golden values below were recorded from the pre-rewrite dispatcher
   (the PR 1 tree, which scanned and rebuilt a per-priority Queue on every
   dispatch).  The O(1) run-queue rewrite must be behaviour-preserving:
   on fixed seeds the network-server and database workloads must produce
   byte-identical trace tag sequences and identical dispatch/preemption
   counter values.  The text digests, recorded while the kernel still
   formatted each record at emit time, pin every record's rendered text
   now that records are typed and rendered when read.

   To re-record (only legitimate after an *intentional* scheduling-policy
   change): run with SUNOS_PRINT_GOLDENS=1 and paste the output. *)

module Kernel = Sunos_kernel.Kernel
module Machine = Sunos_hw.Machine
module Cpu = Sunos_hw.Cpu
module S = Sunos_workloads.Net_server
module Db = Sunos_workloads.Database
module KV = Sunos_workloads.Kv_store

type probe = {
  tag_digest : string;
  text_digest : string;
  tag_count : int;
  dispatches : int;
  preemptions : int;
}

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Every record as it reads when rendered: time, tag and message. *)
let render r =
  Printf.sprintf "%Ld %s %s" r.Sunos_sim.Tracebuf.time
    (Sunos_sim.Tracebuf.tag r)
    (Sunos_sim.Tracebuf.message r)

let probe_of_kernel k =
  let records = Kernel.trace_records k in
  let tags = List.map Sunos_sim.Tracebuf.tag records in
  {
    tag_digest = Digest.to_hex (Digest.string (String.concat "," tags));
    text_digest = digest (List.map render records);
    tag_count = List.length tags;
    dispatches = Kernel.dispatch_count k;
    preemptions = Kernel.preemption_count k;
  }

let net_run f =
  let p =
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
  in
  let out = ref None in
  ignore
    (S.run
       (module Sunos_baselines.Mt)
       ~cpus:2 ~trace:true
       ~debrief:(fun k -> out := Some (f k))
       p);
  Option.get !out

(* The epoll server under the open-loop Poisson generator: readiness
   lists, ONESHOT re-arms and the catch-up sender all on the golden
   path.  Small enough to stay well under the trace-ring cap. *)
let net_epoll_run f =
  let p =
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
  in
  let out = ref None in
  ignore
    (S.run
       (module Sunos_baselines.Mt)
       ~cpus:2 ~trace:true
       ~debrief:(fun k -> out := Some (f k))
       p);
  Option.get !out

let db_run f =
  let p =
    {
      Db.default_params with
      processes = 2;
      threads_per_process = 4;
      records = 16;
      transactions_per_thread = 10;
    }
  in
  let out = ref None in
  ignore
    (Db.run ~cpus:2 ~trace:true
       ~debrief:(fun k -> out := Some (f k))
       p);
  Option.get !out

let kv_run ~procs f =
  let p =
    {
      KV.default_params with
      server_procs = procs;
      shards = 4;
      clients = 6;
      requests_per_client = 4;
      workers_per_server = 3;
      think_time_us = 500;
    }
  in
  let out = ref None in
  ignore
    (KV.run ~cpus:2 ~trace:true
       ~debrief:(fun k -> out := Some (f k))
       p);
  Option.get !out

let net_probe () = net_run probe_of_kernel
let net_epoll_probe () = net_epoll_run probe_of_kernel
let db_probe () = db_run probe_of_kernel
let kv_probe ~procs () = kv_run ~procs probe_of_kernel

(* Where the CPU time went: the makespan, each CPU's busy time and the
   syscall count.  Busy time records where every charge landed, so it
   moves if the engine fires events in another order or settles
   run-ahead charges at other instants, even when the trace tags do
   not. *)
let timing k =
  let m = Kernel.machine k in
  let now = Machine.now m in
  Printf.sprintf "makespan=%Ld busy=%s syscalls=%d" now
    (String.concat ","
       (Array.to_list
          (Array.map (fun c -> Int64.to_string (Cpu.busy_time c ~now))
             m.Machine.cpus)))
    (Kernel.syscall_count k)

let timing_probes () =
  [
    ("net", net_run timing);
    ("net-epoll", net_epoll_run timing);
    ("db", db_run timing);
    ("kv", kv_run ~procs:2 timing);
  ]

(* How many events the engine fired: the simulated figures above do not
   see the engine's own cost, so a change to it shows up here. *)
let events k = Sunos_sim.Eventq.events_fired (Kernel.machine k).Machine.eventq

let event_probes () =
  [
    ("net", net_run events);
    ("net-epoll", net_epoll_run events);
    ("db", db_run events);
    ("kv", kv_run ~procs:2 events);
  ]

let print_goldens () =
  let show name p =
    Printf.printf
      "%s: digest=%S text_digest=%S tag_count=%d dispatches=%d \
       preemptions=%d\n"
      name p.tag_digest p.text_digest p.tag_count p.dispatches p.preemptions
  in
  show "net" (net_probe ());
  show "net-epoll" (net_epoll_probe ());
  show "db" (db_probe ());
  show "kv" (kv_probe ~procs:2 ());
  List.iter
    (fun (name, t) -> Printf.printf "%s timing: %S\n" name t)
    (timing_probes ());
  List.iter
    (fun (name, n) -> Printf.printf "%s events: %d\n" name n)
    (event_probes ())

(* --- recorded goldens (pre-rewrite dispatcher, fixed seeds) ----------- *)

let golden_net =
  {
    tag_digest = "8fffe7b5bfb695c486aa300e034e1cb7";
    text_digest = "8ce78484088009c8180dcc220ec0243e";
    tag_count = 544;
    dispatches = 223;
    preemptions = 31;
  }

let golden_db =
  {
    tag_digest = "ce1dad7ea79bac69892ce0bd4b57df7a";
    text_digest = "6b25106d868133ea4b1035d5f7c48e1e";
    tag_count = 128;
    dispatches = 64;
    preemptions = 0;
  }

(* Recorded when the epoll server + open-loop generator landed. *)
let golden_net_epoll =
  {
    tag_digest = "c2ca74fcfda3833e951a1f91804d96fd";
    text_digest = "26ea5b66c75bfd02bc0f93c12deaf054";
    tag_count = 732;
    dispatches = 276;
    preemptions = 13;
  }

(* Recorded when the kv store landed (process-shared synchronization). *)
let golden_kv =
  {
    tag_digest = "3078f6e4f062459f550fc3c01a64eedf";
    text_digest = "45c330364106e6d11ff9f5338815dc14";
    tag_count = 473;
    dispatches = 190;
    preemptions = 17;
  }

(* Recorded on the sharded event queue, before it became one heap. *)
let golden_timing =
  [
    ("net", "makespan=378069040 busy=97285000,45778000 syscalls=731");
    ("net-epoll", "makespan=182942827 busy=98466000,63516000 syscalls=1069");
    ("db", "makespan=737079352 busy=53260000,50886000 syscalls=632");
    ("kv", "makespan=144194662 busy=65803000,49091000 syscalls=595");
  ]

(* Events fired per run.  First pinned at net 2777, net-epoll 3742, db
   2262, kv 2096; lowered when a charge or syscall after a run-ahead
   prefix stopped needing a settle event of its own. *)
let golden_events =
  [ ("net", 2560); ("net-epoll", 3568); ("db", 2027); ("kv", 1989) ]

let check name golden actual =
  Alcotest.(check string)
    (name ^ " trace tag digest") golden.tag_digest actual.tag_digest;
  Alcotest.(check string)
    (name ^ " trace text digest") golden.text_digest actual.text_digest;
  Alcotest.(check int) (name ^ " trace tag count") golden.tag_count
    actual.tag_count;
  Alcotest.(check int) (name ^ " dispatches") golden.dispatches
    actual.dispatches;
  Alcotest.(check int) (name ^ " preemptions") golden.preemptions
    actual.preemptions

let test_net () = check "net-server" golden_net (net_probe ())

let test_net_epoll () =
  check "net-server-epoll" golden_net_epoll (net_epoll_probe ())
let test_db () = check "database" golden_db (db_probe ())
let test_kv () = check "kv-store" golden_kv (kv_probe ~procs:2 ())

(* The kv store forks server processes and synchronizes them through a
   shared segment; same-seed runs must stay bit-identical at any process
   count — more processes change the schedule, never make it random. *)
let test_kv_run_to_run () =
  List.iter
    (fun procs ->
      let a = kv_probe ~procs () and b = kv_probe ~procs () in
      check (Printf.sprintf "kv procs=%d run-to-run" procs) a b)
    [ 2; 3 ]

let test_timing () =
  Alcotest.(check (list (pair string string)))
    "makespan, CPU busy time, syscalls" golden_timing (timing_probes ())

let test_events () =
  Alcotest.(check (list (pair string int)))
    "events fired" golden_events (event_probes ())

let () =
  if Sys.getenv_opt "SUNOS_PRINT_GOLDENS" <> None then print_goldens ()
  else
    Alcotest.run "determinism"
      [
        ( "golden",
          [
            Alcotest.test_case "net-server same-seed" `Quick test_net;
            Alcotest.test_case "net-server epoll+open-loop same-seed" `Quick
              test_net_epoll;
            Alcotest.test_case "database same-seed" `Quick test_db;
            Alcotest.test_case "kv-store same-seed" `Quick test_kv;
            Alcotest.test_case "kv-store run-to-run x procs" `Quick
              test_kv_run_to_run;
            Alcotest.test_case "CPU timing same-seed" `Quick test_timing;
            Alcotest.test_case "events fired same-seed" `Quick test_events;
          ] );
      ]
