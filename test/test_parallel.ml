(* Determinism across real domains: the simulated outcome must be a pure
   function of the seed — never of how many real domains run machines
   at the same time.

   The engine drives each machine on one domain, and the only real
   parallelism left is running independent machines side by side, as
   `bench -j N` does.  That is safe only if every piece of state shared
   between machines is domain-local or atomic.  Each workload here is
   run once on the main domain, then on 1, 2 and 4 domains at once, all
   running the same seed; every copy must match the sequential run line
   for line: the events fired and Golden.lines (every trace record, the
   scheduler counters, the makespan, each CPU's busy time and each
   process's accounted CPU).  A chaos (network-heavy) run is held to the
   same standard: fault injection draws from its own per-machine stream.
   The kv store is also run twice at two process counts.  Finally the
   single event heap is checked at quiescence: a drained run leaves
   neither live nor cancelled entries.

   The sanitizer keeps its tables per domain (lib/core/thrsan.ml), so
   @sanitize runs this suite under THRSAN=1 too. *)

module Kernel = Sunos_kernel.Kernel
module Machine = Sunos_hw.Machine
module Eventq = Sunos_sim.Eventq
module Faultgen = Sunos_sim.Faultgen

let domain_counts = [ 1; 2; 4 ]

(* The events fired and Golden.lines of the run [run] makes. *)
let probe run () =
  Golden.read run (fun k -> Golden.events k :: Golden.lines k)

(* [n] copies of [run] on [n] domains at once, in domain order. *)
let on_domains n run =
  List.init n (fun _ -> Domain.spawn run) |> List.map Domain.join

let across_domains name run =
  let base = run () in
  List.iter
    (fun d ->
      List.iteri
        (fun i p ->
          Golden.check_same
            (Printf.sprintf "%s domains=%d copy %d" name d i)
            base p)
        (on_domains d run))
    domain_counts

(* --- workload probes ---------------------------------------------------- *)

let net = Golden.server Golden.net
let net_epoll = Golden.server Golden.net_epoll
let db = Golden.database Golden.db
let kv procs = Golden.kv_store (Golden.kv ~procs)

let test_net () = across_domains "net-server" (probe net)
let test_net_epoll () = across_domains "net-server-epoll" (probe net_epoll)
let test_db () = across_domains "database" (probe db)
let test_kv () = across_domains "kv-store" (probe (kv 2))

(* The kv store forks server processes and synchronizes them through a
   shared segment; same-seed runs must stay bit-identical at any process
   count — more processes change the schedule, never make it random. *)
let test_kv_procs () =
  List.iter
    (fun procs ->
      let run = probe (kv procs) in
      Golden.check_same
        (Printf.sprintf "kv procs=%d run-to-run" procs)
        (run ()) (run ()))
    [ 2; 3 ]

(* Network-heavy fault injection on the hardened server, two machines
   on two domains against the sequential run. *)
let test_chaos () =
  let run =
    probe (Golden.server ~chaos:Faultgen.network_heavy Golden.hardened)
  in
  let base = run () in
  List.iteri
    (fun i p ->
      Golden.check_same
        (Printf.sprintf "net-server chaos network-heavy copy %d" i)
        base p)
    (on_domains 2 run)

(* --- engine ------------------------------------------------------------- *)

(* Every workload drains the queue, and the run skims cancelled handles
   off the top before it stops: at quiescence the heap is empty, not
   merely free of live events. *)
let test_heap_drained () =
  let drained name run =
    let fired = ref 0 and live = ref (-1) and population = ref (-1) in
    ignore
      (run (fun k ->
           let q = (Kernel.machine k).Machine.eventq in
           fired := Eventq.events_fired q;
           live := Eventq.pending_count q;
           population := Eventq.heap_population q));
    Alcotest.(check bool) (name ^ " fired events") true (!fired > 0);
    Alcotest.(check int) (name ^ " no live events") 0 !live;
    Alcotest.(check int) (name ^ " no cancelled leftovers") 0 !population
  in
  drained "net-server" net;
  drained "net-server-epoll" net_epoll;
  drained "database" db;
  drained "kv-store" (kv 2)

let () =
  Alcotest.run "parallel"
    [
      ( "domains",
        [
          Alcotest.test_case "net-server bit-identical x domains" `Quick
            test_net;
          Alcotest.test_case "net-server epoll bit-identical x domains" `Quick
            test_net_epoll;
          Alcotest.test_case "database bit-identical x domains" `Quick test_db;
          Alcotest.test_case "kv-store bit-identical x domains" `Quick test_kv;
          Alcotest.test_case "kv-store run-to-run x procs" `Quick
            test_kv_procs;
          Alcotest.test_case "chaos network-heavy domains=2" `Quick test_chaos;
        ] );
      ( "engine",
        [ Alcotest.test_case "heap drained at quiescence" `Quick
            test_heap_drained ] );
    ]
