(* The three benchmark workloads, each driven through its public entry
   point.  One iteration runs the workload once and returns what the
   benchmark measures and checks:

   - completed, attempted and failed ops;
   - [model]: the simulated results a seed fixes (latency, makespan,
     syscall and dispatch counts, CPU times, explored schedules).  They
     are compared with the figures recorded in expected.txt, and a model
     change has to update that file;
   - [engine]: engine-side counts a seed also fixes (events fired, minor
     words) that an engine optimisation may legitimately move.  They only
     have to repeat exactly within a run;
   - [problems]: conservation identities that fail, for any seed. *)

module Time = Sunos_sim.Time
module Eventq = Sunos_sim.Eventq
module Histogram = Sunos_sim.Histogram
module Hist = Sunos_sim.Stats.Hist
module Tracebuf = Sunos_sim.Tracebuf
module Explore = Sunos_sim.Explore
module Machine = Sunos_hw.Machine
module Kernel = Sunos_kernel.Kernel
module Procfs = Sunos_kernel.Procfs
module Net = Sunos_workloads.Net_server
module Db = Sunos_workloads.Database
module Scenarios = Sunos_workloads.Explore_scenarios

(* [Bench] is the size one timed iteration runs at; [Probe] the larger
   configuration whose figures expected.txt also records.  server-epoll
   runs at its probe size in both. *)
type scale = Bench | Probe

(* Read from the live kernel in [debrief], after the run and before the
   driver computes its results. *)
type counts = {
  events : int;
  syscalls : int;
  dispatches : int;
  preemptions : int;
  sigwaiting : int;
  lwp_creates : int;
  utime : Time.span;
  stime : Time.span;
  majflt : int;
  trace_records : int;  (** kept plus dropped *)
}

type sim = { p50_ms : float; p99_ms : float; samples : int; makespan_s : float }
type epoll = { wakeups : int; delivered : int; edges : int; coalesced : int }

type outcome = {
  ops : int;
  attempted : int;
  failed : int;
  model : (string * string) list;
  engine : (string * string) list;
  problems : string list;
  counts : counts option;  (** [None]: the machines are not visible *)
  sim : sim option;
  epoll : epoll option;
  explored : int;  (** schedules, explore-all only *)
  pruned : int;
}

type t = {
  name : string;
  cpus : int;  (** simulated CPUs, also the set-up boot's *)
  ref_seed : int;  (** the seed expected.txt records *)
  inputs : scale -> seed:int -> unit;  (** input construction alone *)
  run : scale -> seed:int -> trace:bool -> outcome;
}

let debrief slot k =
  let m = Kernel.machine k in
  let procs = Procfs.snapshot k in
  let sum f = List.fold_left (fun a p -> Int64.add a (f p)) 0L procs in
  slot :=
    Some
      {
        events = Eventq.events_fired m.Machine.eventq;
        syscalls = Kernel.syscall_count k;
        dispatches = Kernel.dispatch_count k;
        preemptions = Kernel.preemption_count k;
        sigwaiting = Kernel.sigwaiting_count k;
        lwp_creates = Kernel.lwp_create_count k;
        utime = sum (fun p -> p.Procfs.pi_utime);
        stime = sum (fun p -> p.Procfs.pi_stime);
        majflt =
          List.fold_left (fun a p -> a + p.Procfs.pi_majflt) 0 procs;
        trace_records =
          List.length (Kernel.trace_records k) + Tracebuf.dropped m.Machine.trace;
      }

(* Run [f ~debrief] with the debrief wrapped in a span, and return its
   result with the counts it read. *)
let with_debrief f =
  let slot = ref None in
  let r = f ~debrief:(fun k -> Span.time "debrief" (fun () -> debrief slot k)) in
  match !slot with
  | Some c -> (r, c)
  | None -> failwith "workload returned without calling debrief"

let check identities =
  List.filter_map (fun (what, ok) -> if ok then None else Some what) identities

let i = string_of_int
let f x = Printf.sprintf "%.17g" x
let ns span = Int64.to_string span

let count_fields c =
  [
    ("syscalls", i c.syscalls);
    ("dispatches", i c.dispatches);
    ("preemptions", i c.preemptions);
    ("sigwaiting", i c.sigwaiting);
    ("lwp_creates", i c.lwp_creates);
    ("utime_ns", ns c.utime);
    ("stime_ns", ns c.stime);
    ("majflt", i c.majflt);
  ]

(* ------------------------------ server-epoll ------------------------------ *)

(* The server-100k section's shape: sharded edge-triggered epoll server,
   open-loop Poisson client at a fixed offered rate, 4 CPUs, M:N model. *)
let server_params ~seed =
  {
    Net.default_params with
    connections = 10_000;
    requests_per_conn = 1;
    parse_compute_us = 5;
    reply_compute_us = 5;
    disk_every = 0;
    epoll = true;
    open_loop = true;
    pollers = 4;
    workers = 32;
    concurrency = 40;
    connectors = 8;
    arrival_rate_rps = 600.;
    max_pending = 4;
    drain_grace_us = 5_000_000;
    listen_backlog = 64;
    seed = Int64.of_int seed;
  }

let run_server _scale ~seed ~trace =
  let p = server_params ~seed in
  let r, c =
    with_debrief (fun ~debrief ->
        Net.run (module Sunos_baselines.Mt) ~cpus:4 ~trace ~debrief p)
  in
  let lat = r.Net.latency in
  let sim =
    {
      p50_ms = Time.to_ms (Histogram.percentile lat 0.5);
      p99_ms = Time.to_ms (Histogram.percentile lat 0.99);
      samples = Histogram.count lat;
      makespan_s = Time.to_s r.Net.makespan;
    }
  in
  let sum g = List.fold_left (fun a e -> a + g e) 0 r.Net.epoll_stats in
  let ep =
    {
      wakeups = sum (fun e -> e.Procfs.ei_wakeups);
      delivered = sum (fun e -> e.Procfs.ei_delivered);
      edges = sum (fun e -> e.Procfs.ei_edges);
      coalesced = sum (fun e -> e.Procfs.ei_coalesced);
    }
  in
  {
    ops = r.Net.served;
    attempted = r.Net.issued;
    failed = r.Net.issued - r.Net.served;
    model =
      [
        ("issued", i r.Net.issued);
        ("served", i r.Net.served);
        ("shed", i r.Net.shed);
        ("aborted", i r.Net.aborted);
        ("latency_samples", i sim.samples);
        ("latency_p50_ns", ns (Histogram.percentile lat 0.5));
        ("latency_p99_ns", ns (Histogram.percentile lat 0.99));
        ("latency_mean_ns", f (Histogram.mean lat));
        ("makespan_ns", ns r.Net.makespan);
        ("epoll_edges", i ep.edges);
        ("epoll_coalesced", i ep.coalesced);
        ("epoll_wakeups", i ep.wakeups);
        ("epoll_delivered", i ep.delivered);
      ]
      @ count_fields c;
    engine = [ ("events", i c.events) ];
    problems =
      check
        [
          ( "served + shed + aborted = issued",
            r.Net.served + r.Net.shed + r.Net.aborted = r.Net.issued );
          ( "issued = connections x requests_per_conn",
            r.Net.issued = p.Net.connections * p.Net.requests_per_conn );
          ("one latency sample per served request", sim.samples = r.Net.served);
          ("results.syscalls = kernel syscall count", r.Net.syscalls = c.syscalls);
        ];
    counts = Some c;
    sim = Some sim;
    epoll = Some ep;
    explored = 0;
    pruned = 0;
  }

(* -------------------------------- db-mmap --------------------------------- *)

(* The Figure-1 database worked through the mapping: 2 processes x 8
   threads over 32 contended records, every 25th transaction faulting its
   page back in, 2 CPUs. *)
let db_params scale ~seed =
  {
    Db.default_params with
    processes = 2;
    threads_per_process = 8;
    records = 32;
    transactions_per_thread =
      (match scale with Bench -> 10_000 | Probe -> 30_000);
    io_every = 25;
    mmap_io = true;
    seed = Int64.of_int seed;
  }

let run_db scale ~seed ~trace =
  let p = db_params scale ~seed in
  let r, c = with_debrief (fun ~debrief -> Db.run ~cpus:2 ~trace ~debrief p) in
  let lat = r.Db.latency in
  let sim =
    {
      p50_ms = Time.to_ms (Hist.percentile lat 0.5);
      p99_ms = Time.to_ms (Hist.percentile lat 0.99);
      samples = Hist.count lat;
      makespan_s = Time.to_s r.Db.makespan;
    }
  in
  let attempted =
    p.Db.processes * p.Db.threads_per_process * p.Db.transactions_per_thread
  in
  {
    ops = r.Db.committed;
    attempted;
    failed = attempted - r.Db.committed;
    model =
      [
        ("committed", i r.Db.committed);
        ("latency_samples", i sim.samples);
        ("latency_p50_ns", ns (Hist.percentile lat 0.5));
        ("latency_p99_ns", ns (Hist.percentile lat 0.99));
        ("makespan_ns", ns r.Db.makespan);
      ]
      @ count_fields c;
    engine = [ ("events", i c.events) ];
    problems =
      check
        [
          ("committed = processes x threads x transactions", r.Db.committed = attempted);
          ("results.majflt = /proc majflt", r.Db.majflt = c.majflt);
        ];
    counts = Some c;
    sim = Some sim;
    epoll = None;
    explored = 0;
    pruned = 0;
  }

(* ------------------------------ explore-all ------------------------------- *)

(* DPOR exhaustion of every bundled scenario, calling the explorer
   directly so no repro file is ever written.  Each exhaustion and each
   schedule's [sc_run] is a span; explore-all takes no seed. *)
let rounds = function Bench -> 8 | Probe -> 25

let exhaust sc =
  let name = sc.Scenarios.sc_name in
  let st =
    Span.time ("exhaust " ^ name) (fun () ->
        Explore.explore (fun () -> Span.time "sc_run" sc.Scenarios.sc_run))
  in
  let found = st.Explore.failures <> [] in
  let problem =
    if st.Explore.capped then Some (name ^ ": exhaustion capped")
    else if found <> sc.Scenarios.sc_expect_fail then
      Some
        (name
        ^ if found then ": unexpected failing schedule"
          else ": expected failing schedule not found")
    else None
  in
  let fields =
    [
      (name ^ ".explored", i st.Explore.explored);
      (name ^ ".pruned", i st.Explore.pruned);
      (name ^ ".failures", i (List.length st.Explore.failures));
      (name ^ ".max_decisions", i st.Explore.max_decisions);
    ]
  in
  (st, problem, fields)

let run_explore scale ~seed:_ ~trace:_ =
  let results =
    List.init (rounds scale) (fun _ -> List.map exhaust Scenarios.all)
    |> List.concat
  in
  let problems = List.filter_map (fun (_, p, _) -> p) results in
  let total g = List.fold_left (fun a (st, _, _) -> a + g st) 0 results in
  let explored = total (fun st -> st.Explore.explored) in
  let pruned = total (fun st -> st.Explore.pruned) in
  let first_round =
    List.concat_map (fun (_, _, fs) -> fs)
      (List.filteri (fun j _ -> j < List.length Scenarios.all) results)
  in
  let n = List.length results in
  {
    ops = n - List.length problems;
    attempted = n;
    failed = List.length problems;
    (* the first round in full; the later rounds through the totals *)
    model = first_round @ [ ("schedules", i explored); ("pruned", i pruned) ];
    engine = [];
    problems;
    counts = None;
    sim = None;
    epoll = None;
    explored;
    pruned;
  }

let all =
  [
    {
      name = "server-epoll";
      cpus = 4;
      ref_seed = 31;
      inputs = (fun _ ~seed -> ignore (Sys.opaque_identity (server_params ~seed)));
      run = run_server;
    };
    {
      name = "db-mmap";
      cpus = 2;
      ref_seed = 23;
      inputs = (fun scale ~seed -> ignore (Sys.opaque_identity (db_params scale ~seed)));
      run = run_db;
    };
    {
      name = "explore-all";
      cpus = 1;
      ref_seed = 0;
      inputs = (fun _ ~seed:_ -> ignore (Sys.opaque_identity Scenarios.all));
      run = run_explore;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
