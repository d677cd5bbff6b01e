(* Chaos suite: deterministic fault injection end to end.

   Four claims are pinned here:
   1. Chaos off is inert — the determinism goldens (recorded before the
      fault injector existed) still hold bit-for-bit when a run is
      booted with the explicit [off] profile.
   2. Chaos on is deterministic — same (seed, profile) replays the same
      fault schedule, trace digest and request accounting.
   3. Hardened workloads degrade, never lose — under every canned
      profile each request is accounted for (served + shed + aborted)
      and each transaction commits.
   4. The kernel/runtime fixes that hardening exposed stay fixed —
      EINTR'd sleeps still sleep their full span, a timeout-EINTR
      re-arms the SIGWAITING edge, non-blocking socket outcomes are
      distinguishable, and the LWP pool replenishes itself when the
      injector kills its members.

   Fault-count goldens re-record with SUNOS_PRINT_GOLDENS=1. *)

module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Errno = Sunos_kernel.Errno
module Signo = Sunos_kernel.Signo
module Sigset = Sunos_kernel.Sigset
module Sysdefs = Sunos_kernel.Sysdefs
module Time = Sunos_sim.Time
module Faultgen = Sunos_sim.Faultgen
module S = Sunos_workloads.Net_server
module Db = Sunos_workloads.Database
module W = Sunos_workloads.Window_system
module A = Sunos_workloads.Array_compute
module KV = Sunos_workloads.Kv_store

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

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

let check_probe name golden actual =
  Alcotest.(check string)
    (name ^ " trace tag digest") golden.tag_digest actual.tag_digest;
  Alcotest.(check int) (name ^ " trace tag count") golden.tag_count
    actual.tag_count;
  Alcotest.(check int) (name ^ " dispatches") golden.dispatches
    actual.dispatches;
  Alcotest.(check int) (name ^ " preemptions") golden.preemptions
    actual.preemptions

(* ------------------------------------------------------------------ *)
(* 1. Chaos off is inert                                               *)
(* ------------------------------------------------------------------ *)

(* The exact configurations and goldens of test_determinism: booting
   with the explicit [off] profile must reproduce them bit-for-bit.
   If these fail while test_determinism passes, the chaos plumbing
   perturbs disabled runs — the one thing it must never do. *)

let det_net_params =
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

let det_db_params =
  {
    Db.default_params with
    processes = 2;
    threads_per_process = 4;
    records = 16;
    transactions_per_thread = 10;
  }

let golden_net =
  {
    tag_digest = "8fffe7b5bfb695c486aa300e034e1cb7";
    tag_count = 544;
    dispatches = 223;
    preemptions = 31;
  }

let golden_db =
  {
    tag_digest = "ce1dad7ea79bac69892ce0bd4b57df7a";
    tag_count = 128;
    dispatches = 64;
    preemptions = 0;
  }

let net_probe_off () =
  let out = ref None in
  ignore
    (S.run
       (module Sunos_baselines.Mt)
       ~cpus:2 ~chaos:Faultgen.off ~trace:true
       ~debrief:(fun k ->
         Alcotest.(check int) "off injects nothing" 0 (Kernel.chaos_total k);
         out := Some (probe_of_kernel k))
       det_net_params);
  Option.get !out

let db_probe_off () =
  let out = ref None in
  ignore
    (Db.run ~cpus:2 ~chaos:Faultgen.off ~trace:true
       ~debrief:(fun k -> out := Some (probe_of_kernel k))
       det_db_params);
  Option.get !out

let test_off_inert_net () =
  check_probe "chaos-off net-server" golden_net (net_probe_off ())

let test_off_inert_db () =
  check_probe "chaos-off database" golden_db (db_probe_off ())

(* ------------------------------------------------------------------ *)
(* 2 + 3. Hardened workloads under the canned profiles                 *)
(* ------------------------------------------------------------------ *)

let hardened_params =
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

let run_net profile =
  let counts = ref [] and pr = ref None in
  let r =
    S.run
      (module Sunos_baselines.Mt)
      ~cpus:2 ~chaos:profile ~trace:true
      ~debrief:(fun k ->
        counts := Kernel.chaos_counts k;
        pr := Some (probe_of_kernel k))
      hardened_params
  in
  (r, !counts, Option.get !pr)

let total_requests p = p.S.connections * p.S.requests_per_conn

let check_conservation name (r : S.results) =
  Alcotest.(check int)
    (name ^ ": served+shed+aborted accounts for every request")
    (total_requests hardened_params)
    (r.S.served + r.S.shed + r.S.aborted);
  Alcotest.(check bool) (name ^ ": some requests served") true (r.S.served > 0)

let test_profiles_net () =
  List.iter
    (fun profile ->
      let r, _, _ = run_net profile in
      check_conservation profile.Faultgen.label r)
    [ Faultgen.light; Faultgen.network_heavy; Faultgen.scheduler_heavy ]

let test_profiles_db () =
  List.iter
    (fun profile ->
      let p =
        {
          Db.default_params with
          processes = 2;
          threads_per_process = 4;
          records = 8;
          transactions_per_thread = 6;
        }
      in
      let r = Db.run ~cpus:2 ~chaos:profile p in
      Alcotest.(check int)
        (profile.Faultgen.label ^ ": every transaction commits")
        (p.Db.processes * p.Db.threads_per_process
       * p.Db.transactions_per_thread)
        r.Db.committed)
    [ Faultgen.light; Faultgen.network_heavy; Faultgen.scheduler_heavy ]

let test_profiles_windows () =
  List.iter
    (fun profile ->
      let p = { W.default_params with widgets = 20; events = 60 } in
      let r = W.run (module Sunos_baselines.Mt) ~cpus:2 ~chaos:profile p in
      Alcotest.(check int)
        (profile.Faultgen.label ^ ": every event handled")
        p.W.events r.W.handled)
    [ Faultgen.light; Faultgen.network_heavy; Faultgen.scheduler_heavy ]

let test_profiles_array () =
  List.iter
    (fun profile ->
      let p =
        { A.default_params with rows = 16; sweeps = 4; mode = A.Unbound 8 }
      in
      let r = A.run ~cpus:2 ~chaos:profile p in
      Alcotest.(check bool)
        (profile.Faultgen.label ^ ": sweeps completed")
        true
        Time.(r.A.makespan > 0L))
    [ Faultgen.light; Faultgen.network_heavy; Faultgen.scheduler_heavy ]

(* Proc-kill on the kv store: every get and every put ends served or
   applied, shed or aborted, and each class's issued count comes from
   the op mix the clients drew, so an op booked under the other class
   breaks one of the two identities.  The rate is one that kills servers
   with both gets and puts in flight. *)
let test_profiles_kv () =
  let kill =
    { Faultgen.off with Faultgen.label = "proc-kill"; proc_kill = 5e-3 }
  in
  let p =
    {
      KV.default_params with
      server_procs = 4;
      clients = 8;
      requests_per_client = 5;
      workers_per_server = 2;
      think_time_us = 500;
      read_pct = 50;
      batch = 1;
      request_deadline_us = 150_000;
    }
  in
  let r = KV.run ~cpus:2 ~chaos:kill p in
  Alcotest.(check int) "issued = clients x requests"
    (p.KV.clients * p.KV.requests_per_client)
    (r.KV.gets_issued + r.KV.puts_issued);
  Alcotest.(check bool) "gets conserved" true (KV.gets_conserved r);
  Alcotest.(check bool) "puts conserved" true (KV.puts_conserved r);
  Alcotest.(check bool) "servers were killed" true (r.KV.killed > 0);
  Alcotest.(check bool) "gets and puts were aborted" true
    (r.KV.gets_aborted > 0 && r.KV.puts_aborted > 0)

(* Same (seed, profile) must replay the identical run: fault schedule,
   trace digest and request accounting all bit-equal. *)
let test_chaos_deterministic () =
  let r1, c1, p1 = run_net Faultgen.network_heavy in
  let r2, c2, p2 = run_net Faultgen.network_heavy in
  check_probe "chaos replay" p1 p2;
  Alcotest.(check (list (pair string int))) "fault schedule replays" c1 c2;
  Alcotest.(check (list int)) "request accounting replays"
    [ r1.S.served; r1.S.shed; r1.S.aborted; r1.S.gaveup; r1.S.refused ]
    [ r2.S.served; r2.S.shed; r2.S.aborted; r2.S.gaveup; r2.S.refused ]

(* ------------------------------------------------------------------ *)
(* Pinned fault-count goldens                                          *)
(* ------------------------------------------------------------------ *)

(* The light-profile fault schedule for the fixed hardened config: a
   change here means the chaos stream or an injection site moved —
   legitimate only with an intentional Faultgen/kernel change
   (re-record with SUNOS_PRINT_GOLDENS=1). *)
let golden_light_counts =
  [
    ("conn-refuse", 1);
    ("conn-rst", 1);
    ("eintr-sleep", 3);
    ("enomem-lwp", 2);
    ("fault-spike", 1);
    ("peer-stall", 1);
    ("preempt-storm", 9);
  ]

let golden_light_accounting = (27, 0, 3)

let light_run () =
  let r, counts, _ = run_net Faultgen.light in
  (r, counts)

let test_fault_count_golden () =
  let r, counts = light_run () in
  Alcotest.(check (list (pair string int)))
    "light-profile fault counts" golden_light_counts counts;
  let served, shed, aborted = golden_light_accounting in
  Alcotest.(check (list int)) "light-profile accounting"
    [ served; shed; aborted ]
    [ r.S.served; r.S.shed; r.S.aborted ]

let print_goldens () =
  let r, counts = light_run () in
  Printf.printf "let golden_light_counts =\n  [ %s ]\n"
    (String.concat "; "
       (List.map (fun (s, n) -> Printf.sprintf "(%S, %d)" s n) counts));
  Printf.printf "let golden_light_accounting = (%d, %d, %d)\n" r.S.served
    r.S.shed r.S.aborted

(* ------------------------------------------------------------------ *)
(* 4. Kernel semantics under injected faults                           *)
(* ------------------------------------------------------------------ *)

let eintr_all =
  { Faultgen.off with label = "eintr-all"; eintr_sleep = 1.0 }

(* SA_RESTART contract: a sleep that is EINTR'd (here: on every single
   nanosleep) still sleeps its full requested span before returning. *)
let test_eintr_sleep_full_span () =
  let k = Kernel.boot ~cpus:1 ~chaos:eintr_all () in
  let elapsed = ref Time.zero in
  ignore
    (Kernel.spawn k ~name:"sleeper" ~main:(fun () ->
         let t0 = Uctx.gettime () in
         Uctx.sleep (Time.us 300);
         elapsed := Time.diff (Uctx.gettime ()) t0));
  Kernel.run k;
  Alcotest.(check bool) "slept at least the requested span" true
    Time.(!elapsed >= Time.us 300);
  Alcotest.(check bool) "the sleep was actually interrupted" true
    (Faultgen.count (Kernel.chaos k) "eintr-sleep" >= 1)

(* The SIGWAITING re-arm fix: an EINTR that arrives by *timeout* (chaos)
   is an ordinary wakeup and must re-arm the all-LWPs-blocked edge; only
   signal-caused EINTRs skip the re-arm (storm prevention).

   Construction: LWP2 blocks forever on an empty pipe with SIGUSR1
   masked.  Main blocks on a second pipe — first all-indefinite edge
   fires (count 1) and disarms.  A watcher process SIGUSR1s the main
   LWP out of its read (signal path: no re-arm), main then runs a
   chaos-EINTR'd sleep (timeout path: must re-arm) and blocks again.
   The second all-indefinite edge can only fire — count 2 — if the
   timeout-EINTR wake re-armed it. *)
let test_timeout_eintr_rearms_sigwaiting () =
  let k = Kernel.boot ~cpus:1 ~chaos:eintr_all () in
  let target_pid = ref 0 in
  let got_eintr = ref false in
  let main () =
    ignore
      (Uctx.sigaction Signo.sigusr1 (Sysdefs.Sig_handler (fun _ -> ())));
    let b_r, _b_w = Uctx.pipe () in
    let a_r, _a_w = Uctx.pipe () in
    ignore
      (Uctx.lwp_create
         ~entry:(fun () ->
           Uctx.sigprocmask Sigset.Sig_block
             (Sigset.of_list [ Signo.sigusr1 ]);
           ignore (Uctx.read b_r ~len:1))
         ());
    (match Uctx.syscall (Sysdefs.Sys_read (a_r, 1)) with
    | Sysdefs.R_err Errno.EINTR -> got_eintr := true
    | _ -> ());
    Uctx.sleep (Time.us 200);
    ignore (Uctx.syscall (Sysdefs.Sys_read (a_r, 1)))
  in
  target_pid := Kernel.spawn k ~name:"blocker" ~main;
  ignore
    (Kernel.spawn k ~name:"watcher" ~main:(fun () ->
         Uctx.sleep (Time.ms 2);
         Uctx.kill ~pid:!target_pid Signo.sigusr1));
  Kernel.run k;
  Alcotest.(check bool) "signal interrupted the pipe read" true !got_eintr;
  Alcotest.(check bool)
    "second all-blocked edge fired after the timeout-EINTR re-arm" true
    (Kernel.sigwaiting_count k >= 2)

(* Non-blocking socket outcomes are a closed variant: not-ready, EOF,
   and reset are three different answers (plus EINVAL off sockets). *)
let test_nb_socket_variants () =
  let k = Kernel.boot ~cpus:1 () in
  let obs : (string * bool) list ref = ref [] in
  let note tag ok = obs := (tag, ok) :: !obs in
  ignore
    (Kernel.spawn k ~name:"sockets" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"vx" ~backlog:4 in
         note "accept-empty-is-again" (Uctx.accept_nb lfd = `Again);
         let cfd = Uctx.connect "vx" in
         let sfd =
           match Uctx.accept_nb lfd with
           | `Conn fd ->
               note "accept-pending-is-conn" true;
               fd
           | `Again | `Aborted ->
               note "accept-pending-is-conn" false;
               -1
         in
         note "read-empty-is-again" (Uctx.try_read cfd ~len:8 = `Again);
         ignore (Uctx.write sfd "hello");
         Uctx.sleep (Time.ms 2);
         note "read-delivered-is-data"
           (match Uctx.try_read cfd ~len:8 with
           | `Data "hello" -> true
           | _ -> false);
         Uctx.close sfd;
         Uctx.sleep (Time.ms 2);
         note "read-after-close-is-eof" (Uctx.try_read cfd ~len:8 = `Eof);
         Uctx.close cfd;
         (* abortive close: undelivered inbound data turns into an RST *)
         let cfd2 = Uctx.connect "vx" in
         (match Uctx.accept_nb lfd with
         | `Conn sfd2 ->
             ignore (Uctx.write cfd2 "boom");
             Uctx.close sfd2;
             note "read-after-rst-is-reset"
               (Uctx.try_read cfd2 ~len:8 = `Reset);
             note "write-after-rst-raises"
               (match Uctx.write cfd2 "x" with
               | _ -> false
               | exception Errno.Unix_error (Errno.ECONNRESET, _) -> true)
         | `Again | `Aborted -> note "read-after-rst-is-reset" false);
         let pr, _pw = Uctx.pipe () in
         note "non-socket-is-einval"
           (match Uctx.try_read pr ~len:1 with
           | _ -> false
           | exception Errno.Unix_error (Errno.EINVAL, _) -> true)));
  Kernel.run k;
  List.iter (fun (tag, ok) -> Alcotest.(check bool) tag true ok) !obs

(* Injected EAGAIN is spurious, not lossy: the data/connection stays put
   and a blocking call (not an injection site) still collects it. *)
let test_injected_eagain_is_spurious () =
  let eagain_all =
    { Faultgen.off with label = "eagain-all"; eagain_sock = 1.0 }
  in
  let k = Kernel.boot ~cpus:1 ~chaos:eagain_all () in
  let obs : (string * bool) list ref = ref [] in
  let note tag ok = obs := (tag, ok) :: !obs in
  ignore
    (Kernel.spawn k ~name:"eagain" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"ea" ~backlog:4 in
         let cfd = Uctx.connect "ea" in
         note "pending-conn-reported-again" (Uctx.accept_nb lfd = `Again);
         let sfd = Uctx.accept lfd in
         ignore (Uctx.write sfd "x");
         Uctx.sleep (Time.ms 2);
         note "buffered-data-reported-again"
           (Uctx.try_read cfd ~len:1 = `Again);
         note "blocking-read-still-collects" (Uctx.read cfd ~len:1 = "x")));
  Kernel.run k;
  List.iter (fun (tag, ok) -> Alcotest.(check bool) tag true ok) !obs;
  Alcotest.(check bool) "eagain faults were injected" true
    (Faultgen.count (Kernel.chaos k) "eagain-sock" >= 2)

(* LWP death + replenishment: with the injector killing parked pool
   LWPs (and starving creation with transient ENOMEM), the SIGWAITING /
   ESRCH-repair / backoff machinery must still finish every
   transaction. *)
let test_pool_replenishment () =
  let reaper =
    {
      Faultgen.off with
      label = "reaper";
      lwp_reap = 0.3;
      enomem_lwp = 0.3;
    }
  in
  let p =
    {
      Db.default_params with
      processes = 1;
      threads_per_process = 6;
      records = 8;
      transactions_per_thread = 8;
    }
  in
  let reaped = ref 0 and starved = ref 0 in
  let r =
    Db.run ~cpus:2 ~chaos:reaper
      ~debrief:(fun k ->
        reaped := Faultgen.count (Kernel.chaos k) "lwp-reap";
        starved := Faultgen.count (Kernel.chaos k) "enomem-lwp")
      p
  in
  Alcotest.(check int) "every transaction commits despite reaping"
    (p.Db.processes * p.Db.threads_per_process * p.Db.transactions_per_thread)
    r.Db.committed;
  Alcotest.(check bool) "LWPs actually died" true (!reaped > 0);
  Alcotest.(check bool) "LWP creation actually failed" true (!starved > 0)

(* ------------------------------------------------------------------ *)
(* Fault generator                                                     *)
(* ------------------------------------------------------------------ *)

(* The fault schedule is a pure function of (seed, profile): two
   generators built alike answer an identical probe sequence alike,
   and a different seed gives a different schedule. *)
let test_schedule_pure_in_seed () =
  let sweep seed =
    let g = Faultgen.create ~seed { Faultgen.off with label = "plain" } in
    List.init 200 (fun _ -> Faultgen.fire g ~site:"probe" 0.5)
  in
  Alcotest.(check (list bool))
    "same (seed, profile): same fire sequence" (sweep 7L) (sweep 7L);
  Alcotest.(check bool) "different seed: different fire sequence" true
    (sweep 7L <> sweep 8L)

let () =
  if Sys.getenv_opt "SUNOS_PRINT_GOLDENS" <> None then print_goldens ()
  else
    Alcotest.run "chaos"
      [
        ( "inert-off",
          [
            Alcotest.test_case "net-server matches determinism golden"
              `Quick test_off_inert_net;
            Alcotest.test_case "database matches determinism golden" `Quick
              test_off_inert_db;
          ] );
        ( "profiles",
          [
            Alcotest.test_case "net-server conserves requests" `Quick
              test_profiles_net;
            Alcotest.test_case "database commits everything" `Quick
              test_profiles_db;
            Alcotest.test_case "window-system handles everything" `Quick
              test_profiles_windows;
            Alcotest.test_case "array-compute completes" `Quick
              test_profiles_array;
            Alcotest.test_case "kv-store conserves each op class" `Quick
              test_profiles_kv;
            Alcotest.test_case "same (seed, profile) replays" `Quick
              test_chaos_deterministic;
            Alcotest.test_case "light-profile fault counts pinned" `Quick
              test_fault_count_golden;
          ] );
        ( "semantics",
          [
            Alcotest.test_case "EINTR'd sleep keeps its span" `Quick
              test_eintr_sleep_full_span;
            Alcotest.test_case "timeout-EINTR re-arms SIGWAITING" `Quick
              test_timeout_eintr_rearms_sigwaiting;
            Alcotest.test_case "non-blocking socket variants" `Quick
              test_nb_socket_variants;
            Alcotest.test_case "injected EAGAIN is spurious" `Quick
              test_injected_eagain_is_spurious;
            Alcotest.test_case "pool replenishes reaped LWPs" `Quick
              test_pool_replenishment;
          ] );
        ( "faultgen",
          [
            Alcotest.test_case "schedule pure in (seed, profile)" `Quick
              test_schedule_pure_in_seed;
          ] );
      ]
