(* C100k smoke: a scaled-down (5k-connection) run of the epoll server
   under open-loop Poisson load.

   In one run it checks:
   - conservation: served + shed + aborted = issued, even with arrivals
     that never find a free pipeline slot and stragglers cut off by the
     drain grace;
   - the epoll plumbing actually carried the run (wakeups and
     deliveries happened, readiness was batched).
   A failed check raises, so re-recording the output cannot accept one.

   It then prints the run's figures: request accounting, per-epoll
   stats, Golden.counters, the records per trace tag and the digest of
   the tag stream (the ring holds too many records to read).  dune diffs
   the output against test_c100k.expected; after an intentional change
   to a figure, read the diff and accept it with `dune promote`. *)

module Kernel = Sunos_kernel.Kernel
module S = Sunos_workloads.Net_server
module Procfs = Sunos_kernel.Procfs
module Tracebuf = Sunos_sim.Tracebuf

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

let require what ok = if not ok then failwith ("c100k: " ^ what)

let check_conservation (r : S.results) =
  require "served + shed + aborted accounts for every arrival"
    (r.S.issued = r.S.served + r.S.shed + r.S.aborted);
  require "most arrivals served" (r.S.served > r.S.issued / 2);
  require "peak connections = all of them" (r.S.max_concurrent = 5_000)

let check_epoll_carried (r : S.results) =
  (* 4 server shards + 4 client reader shards *)
  require "8 epoll instances debriefed" (List.length r.S.epoll_stats = 8);
  List.iter
    (fun ei ->
      let name what =
        Printf.sprintf "epoll pid%d/fd%d %s" ei.Procfs.ei_pid ei.Procfs.ei_fd
          what
      in
      require (name "saw edges") (ei.Procfs.ei_edges > 0);
      require
        (name "delivered >= wakeups")
        (ei.Procfs.ei_delivered >= ei.Procfs.ei_wakeups))
    r.S.epoll_stats

(* Records per tag, by tag, then the digest of the tags in ring order. *)
let trace_lines k =
  let tags = List.map Tracebuf.tag (Kernel.trace_records k) in
  let counts = Hashtbl.create 32 in
  List.iter
    (fun t ->
      Hashtbl.replace counts t
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts t)))
    tags;
  Printf.sprintf "records=%d digest=%s" (List.length tags)
    (Digest.to_hex (Digest.string (String.concat "," tags)))
  :: List.map
       (fun (t, n) -> Printf.sprintf "%s %d" t n)
       (List.sort compare (List.of_seq (Hashtbl.to_seq counts)))

let () =
  let out = ref [] in
  let r =
    S.run
      (module Sunos_baselines.Mt)
      ~cpus:4 ~trace:true
      ~debrief:(fun k -> out := Golden.counters k @ trace_lines k)
      smoke_params
  in
  check_conservation r;
  check_epoll_carried r;
  Printf.printf "issued=%d served=%d shed=%d aborted=%d gaveup=%d refused=%d\n"
    r.S.issued r.S.served r.S.shed r.S.aborted r.S.gaveup r.S.refused;
  Printf.printf "maxconc=%d makespan=%Ldns thr=%.0f rps\n" r.S.max_concurrent
    r.S.makespan r.S.throughput_rps;
  List.iter
    (fun ei ->
      Printf.printf
        "epoll pid=%d fd=%d interest=%d ready=%d edges=%d wakeups=%d \
         delivered=%d\n"
        ei.Procfs.ei_pid ei.Procfs.ei_fd ei.Procfs.ei_interest
        ei.Procfs.ei_ready ei.Procfs.ei_edges ei.Procfs.ei_wakeups
        ei.Procfs.ei_delivered)
    r.S.epoll_stats;
  List.iter print_endline !out
