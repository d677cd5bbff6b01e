(* Determinism across real domains: the simulated outcome must be a pure
   function of the seed — never of how many real domains run machines
   at the same time.

   The engine drives each machine on one domain, and the only real
   parallelism left is running independent machines side by side, as
   `bench -j N` does.  That is safe only if every piece of state shared
   between machines is domain-local or atomic.  Each workload here is
   run once on the main domain, then on 1, 2 and 4 domains at once, all
   running the same seed; every copy must match the sequential run bit
   for bit: trace tag digest, dispatch/preemption counters, events fired,
   makespan and each CPU's busy time.  A chaos (network-heavy)
   run is held to the same standard: fault injection draws from its own
   per-machine stream.  Finally the single event heap is checked at
   quiescence: a drained run leaves neither live nor cancelled entries.

   The sanitizer keeps its tables per domain (lib/core/thrsan.ml), so
   @sanitize runs this suite under THRSAN=1 too. *)

module Kernel = Sunos_kernel.Kernel
module Machine = Sunos_hw.Machine
module Cpu = Sunos_hw.Cpu
module Eventq = Sunos_sim.Eventq
module Faultgen = Sunos_sim.Faultgen
module S = Sunos_workloads.Net_server
module Db = Sunos_workloads.Database
module KV = Sunos_workloads.Kv_store

let domain_counts = [ 1; 2; 4 ]

type probe = {
  tag_digest : string;
  tag_count : int;
  dispatches : int;
  preemptions : int;
  events_fired : int;
  makespan : int64;
  cpu_busy : int64 list;
}

let probe_of_kernel k =
  let tags =
    List.map Sunos_sim.Tracebuf.tag (Kernel.trace_records k)
  in
  let m = Kernel.machine k in
  let now = Machine.now m in
  {
    tag_digest = Digest.to_hex (Digest.string (String.concat "," tags));
    tag_count = List.length tags;
    dispatches = Kernel.dispatch_count k;
    preemptions = Kernel.preemption_count k;
    events_fired = Eventq.events_fired m.Machine.eventq;
    makespan = now;
    cpu_busy =
      Array.to_list (Array.map (fun c -> Cpu.busy_time c ~now) m.Machine.cpus);
  }

let check name (a : probe) (b : probe) =
  Alcotest.(check string) (name ^ " trace tag digest") a.tag_digest b.tag_digest;
  Alcotest.(check int) (name ^ " trace tag count") a.tag_count b.tag_count;
  Alcotest.(check int) (name ^ " dispatches") a.dispatches b.dispatches;
  Alcotest.(check int) (name ^ " preemptions") a.preemptions b.preemptions;
  Alcotest.(check int) (name ^ " events fired") a.events_fired b.events_fired;
  Alcotest.(check int64) (name ^ " makespan") a.makespan b.makespan;
  Alcotest.(check (list int64)) (name ^ " CPU busy time") a.cpu_busy b.cpu_busy

(* [n] copies of [run] on [n] domains at once, in domain order. *)
let on_domains n run =
  List.init n (fun _ -> Domain.spawn run) |> List.map Domain.join

let across_domains name run =
  let base = run () in
  List.iter
    (fun d ->
      List.iteri
        (fun i p -> check (Printf.sprintf "%s domains=%d copy %d" name d i) base p)
        (on_domains d run))
    domain_counts

(* --- workload probes ---------------------------------------------------- *)

let net_params =
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

let net_run ?chaos p ~debrief =
  ignore (S.run (module Sunos_baselines.Mt) ~cpus:2 ?chaos ~trace:true ~debrief p)

let db_run ~debrief =
  let p =
    {
      Db.default_params with
      processes = 2;
      threads_per_process = 4;
      records = 16;
      transactions_per_thread = 10;
    }
  in
  ignore (Db.run ~cpus:2 ~trace:true ~debrief p)

let kv_run ~debrief =
  let p =
    {
      KV.default_params with
      server_procs = 2;
      shards = 4;
      clients = 6;
      requests_per_client = 4;
      workers_per_server = 3;
      think_time_us = 500;
    }
  in
  ignore (KV.run ~cpus:2 ~trace:true ~debrief p)

let probe run () =
  let out = ref None in
  run ~debrief:(fun k -> out := Some (probe_of_kernel k));
  Option.get !out

let test_net () = across_domains "net-server" (probe (net_run net_params))
let test_db () = across_domains "database" (probe db_run)
let test_kv () = across_domains "kv-store" (probe kv_run)

(* Network-heavy fault injection on the hardened server, two machines
   on two domains against the sequential run. *)
let chaos_params =
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

let test_chaos () =
  let run = probe (net_run ~chaos:Faultgen.network_heavy chaos_params) in
  let base = run () in
  List.iteri
    (fun i p ->
      check (Printf.sprintf "net-server chaos network-heavy copy %d" i) base p)
    (on_domains 2 run)

(* --- engine ------------------------------------------------------------- *)

(* Every workload drains the queue, and the run skims cancelled handles
   off the top before it stops: at quiescence the heap is empty, not
   merely free of live events. *)
let test_heap_drained () =
  let drained name run =
    let fired = ref 0 and live = ref (-1) and population = ref (-1) in
    run ~debrief:(fun k ->
        let q = (Kernel.machine k).Machine.eventq in
        fired := Eventq.events_fired q;
        live := Eventq.pending_count q;
        population := Eventq.heap_population q);
    Alcotest.(check bool) (name ^ " fired events") true (!fired > 0);
    Alcotest.(check int) (name ^ " no live events") 0 !live;
    Alcotest.(check int) (name ^ " no cancelled leftovers") 0 !population
  in
  drained "net-server" (net_run net_params);
  drained "database" db_run;
  drained "kv-store" kv_run

let () =
  Alcotest.run "parallel"
    [
      ( "domains",
        [
          Alcotest.test_case "net-server bit-identical x domains" `Quick
            test_net;
          Alcotest.test_case "database bit-identical x domains" `Quick test_db;
          Alcotest.test_case "kv-store bit-identical x domains" `Quick test_kv;
          Alcotest.test_case "chaos network-heavy domains=2" `Quick test_chaos;
        ] );
      ( "engine",
        [ Alcotest.test_case "heap drained at quiescence" `Quick
            test_heap_drained ] );
    ]
