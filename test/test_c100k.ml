(* C100k smoke: a scaled-down (5k-connection) run of the epoll server
   under open-loop Poisson load.

   Checks, in one run:
   - conservation: served + shed + aborted = issued, even with arrivals
     that never find a free pipeline slot and stragglers cut off by the
     drain grace;
   - the epoll plumbing actually carried the run (wakeups and
     deliveries happened, readiness was batched);
   - determinism: the trace-tag digest and scheduler counters match the
     recorded golden — the same values on every run, every host.

   To re-record (only after an *intentional* scheduling change): run
   with SUNOS_PRINT_GOLDENS=1 and paste the output. *)

module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module S = Sunos_workloads.Net_server
module Procfs = Sunos_kernel.Procfs

type probe = {
  tag_digest : string;
  tag_count : int;
  dispatches : int;
  preemptions : int;
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
  }

let smoke_params =
  {
    S.default_params with
    connections = 5_000;
    requests_per_conn = 2;
    (* this smoke is about plumbing and accounting, not the overload
       knee (that belongs to the figure): keep the server off the
       22ms-per-access 1991 disk (disk_every = 0: the file is faulted
       in once and stays resident) and give the drain a generous grace
       — the sender's drain loop exits early once pending hits zero *)
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
  }

let smoke_run () =
  let out = ref None in
  let r =
    S.run
      (module Sunos_baselines.Mt)
      ~cpus:4 ~trace:true
      ~debrief:(fun k -> out := Some (probe_of_kernel k))
      smoke_params
  in
  (r, Option.get !out)

let golden =
  {
    tag_digest = "df9702018ede799a171064066f167bf8";
    tag_count = 65_536;
    dispatches = 66_039;
    preemptions = 569;
  }

let print_goldens () =
  let r, p = smoke_run () in
  Printf.printf
    "c100k: issued=%d served=%d shed=%d aborted=%d gaveup=%d refused=%d\n"
    r.S.issued r.S.served r.S.shed r.S.aborted r.S.gaveup r.S.refused;
  Printf.printf "c100k: maxconc=%d makespan=%Ldns thr=%.0f rps\n"
    r.S.max_concurrent r.S.makespan r.S.throughput_rps;
  List.iter
    (fun ei ->
      Printf.printf
        "c100k: epoll pid=%d fd=%d interest=%d ready=%d edges=%d wakeups=%d \
         delivered=%d\n"
        ei.Procfs.ei_pid ei.Procfs.ei_fd ei.Procfs.ei_interest
        ei.Procfs.ei_ready ei.Procfs.ei_edges ei.Procfs.ei_wakeups
        ei.Procfs.ei_delivered)
    r.S.epoll_stats;
  Printf.printf "c100k: digest=%S tag_count=%d dispatches=%d preemptions=%d\n"
    p.tag_digest p.tag_count p.dispatches p.preemptions

let check_conservation (r : S.results) =
  Alcotest.(check int)
    "served + shed + aborted accounts for every arrival" r.S.issued
    (r.S.served + r.S.shed + r.S.aborted);
  Alcotest.(check bool) "most arrivals served" true
    (r.S.served > r.S.issued / 2);
  Alcotest.(check int) "peak connections = all of them" 5_000
    r.S.max_concurrent

let check_epoll_carried (r : S.results) =
  (* 4 server shards + 4 client reader shards *)
  Alcotest.(check int) "epoll instances debriefed" 8
    (List.length r.S.epoll_stats);
  List.iter
    (fun ei ->
      Alcotest.(check bool)
        (Printf.sprintf "epoll pid%d/fd%d saw edges" ei.Procfs.ei_pid
           ei.Procfs.ei_fd)
        true
        (ei.Procfs.ei_edges > 0);
      Alcotest.(check bool)
        (Printf.sprintf "epoll pid%d/fd%d delivered >= wakeups"
           ei.Procfs.ei_pid ei.Procfs.ei_fd)
        true
        (ei.Procfs.ei_delivered >= ei.Procfs.ei_wakeups))
    r.S.epoll_stats

let test_smoke () =
  let r, p = smoke_run () in
  check_conservation r;
  check_epoll_carried r;
  Alcotest.(check string) "trace tag digest" golden.tag_digest p.tag_digest;
  Alcotest.(check int) "trace tag count" golden.tag_count p.tag_count;
  Alcotest.(check int) "dispatches" golden.dispatches p.dispatches;
  Alcotest.(check int) "preemptions" golden.preemptions p.preemptions

let () =
  if Sys.getenv_opt "SUNOS_PRINT_GOLDENS" <> None then print_goldens ()
  else
    Alcotest.run "c100k"
      [
        ( "smoke",
          [ Alcotest.test_case "5k epoll open-loop" `Quick test_smoke ] );
      ]
