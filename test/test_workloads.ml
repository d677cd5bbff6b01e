(* Integration tests: the workload generators complete, conserve their
   work counts, and show the architectural effects the paper predicts. *)

module Time = Sunos_sim.Time
module Hist = Sunos_sim.Stats.Hist
module W = Sunos_workloads.Window_system
module S = Sunos_workloads.Net_server
module D = Sunos_workloads.Database
module A = Sunos_workloads.Array_compute
module Wire = Sunos_workloads.Wire
module Rng = Sunos_sim.Rng
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Errno = Sunos_kernel.Errno

let small_w = { W.default_params with widgets = 25; events = 80 }

let test_windows_all_models_complete () =
  List.iter
    (fun (module M : Sunos_baselines.Model.S) ->
      let r = W.run (module M) ~cpus:2 small_w in
      Alcotest.(check int) (M.name ^ ": all events handled") small_w.W.events
        r.W.handled;
      Alcotest.(check int)
        (M.name ^ ": latency samples")
        small_w.W.events
        (Hist.count r.W.latency))
    Sunos_baselines.Model.all

let test_windows_mn_uses_few_lwps () =
  let mt = W.run (module Sunos_baselines.Mt) ~cpus:2 small_w in
  let one2one = W.run (module Sunos_baselines.Cthreads) ~cpus:2 small_w in
  Alcotest.(check bool) "M:N uses far fewer LWPs" true
    (mt.W.lwps_created * 5 < one2one.W.lwps_created);
  Alcotest.(check int) "1:1 pays one LWP per thread + boot"
    (one2one.W.threads_created)
    one2one.W.lwps_created

let test_windows_deterministic () =
  let a = W.run (module Sunos_baselines.Mt) ~cpus:2 small_w in
  let b = W.run (module Sunos_baselines.Mt) ~cpus:2 small_w in
  Alcotest.(check bool) "same seed, same makespan" true
    (Time.compare a.W.makespan b.W.makespan = 0)

let small_s =
  { S.default_params with connections = 10; requests_per_conn = 2; workers = 4 }

let test_server_all_models_complete () =
  List.iter
    (fun (module M : Sunos_baselines.Model.S) ->
      let r = S.run (module M) ~cpus:1 small_s in
      Alcotest.(check int) (M.name ^ ": all served")
        (small_s.S.connections * small_s.S.requests_per_conn)
        r.S.served)
    Sunos_baselines.Model.all

let test_server_mn_beats_1to1_throughput () =
  let mt = S.run (module Sunos_baselines.Mt) ~cpus:1 small_s in
  let one2one = S.run (module Sunos_baselines.Cthreads) ~cpus:1 small_s in
  Alcotest.(check bool) "M:N throughput higher" true
    (mt.S.throughput_rps > one2one.S.throughput_rps)

let test_database_conserves_transactions () =
  let p = { D.default_params with transactions_per_thread = 10 } in
  let r = D.run ~cpus:2 p in
  Alcotest.(check int) "all committed"
    (p.D.processes * p.D.threads_per_process * 10)
    r.D.committed;
  Alcotest.(check bool) "disk was exercised" true (r.D.majflt > 0)

let test_database_warm_start_no_faults () =
  let p =
    {
      D.default_params with
      transactions_per_thread = 5;
      io_every = max_int;
      start_cold = false;
    }
  in
  let r = D.run ~cpus:2 p in
  Alcotest.(check int) "no major faults when pre-warmed" 0 r.D.majflt

let test_array_bound_beats_oversubscribed () =
  let base = A.default_params in
  let many = A.run ~cpus:4 { base with mode = A.Unbound 64 } in
  let bound = A.run ~cpus:4 { base with mode = A.Bound } in
  Alcotest.(check bool) "bound 1/CPU faster than 64 unbound" true
    (Time.compare bound.A.makespan many.A.makespan < 0);
  Alcotest.(check bool) "and with fewer switches" true
    (bound.A.thread_switches < many.A.thread_switches)

let test_array_gang_helps_spinners_under_load () =
  let base = { A.default_params with spin_barrier = true } in
  let plain = A.run ~cpus:4 ~background_load:true { base with mode = A.Bound } in
  let gang =
    A.run ~cpus:4 ~background_load:true { base with mode = A.Bound_gang }
  in
  Alcotest.(check bool) "gang >= 1.5x faster with spinning barriers" true
    (Time.to_ms plain.A.makespan > 1.5 *. Time.to_ms gang.A.makespan)

let test_array_work_independent_of_mode () =
  (* same rows x sweeps everywhere; only the schedule changes *)
  let base = { A.default_params with sweeps = 4 } in
  List.iter
    (fun mode ->
      let r = A.run ~cpus:4 { base with mode } in
      Alcotest.(check bool) "completed" true Time.(r.A.makespan > 0L))
    [ A.Unbound 8; A.Bound; A.Bound_gang ]

module M = Sunos_workloads.Microtask

let test_microtask_raw_lwps () =
  let p = M.default_params in
  let r = M.run ~cpus:4 p in
  Alcotest.(check int) "all iterations, all doalls"
    (M.iterations * p.M.doalls) r.M.iterations_done;
  Alcotest.(check int) "one LWP per worker + master"
    (p.M.workers + 1) r.M.lwps_created

let test_microtask_modes_agree () =
  let p = M.default_params in
  let raw = M.run ~cpus:4 { p with mode = M.Raw_lwps } in
  let thr = M.run ~cpus:4 { p with mode = M.Bound_threads } in
  Alcotest.(check int) "same work done" raw.M.iterations_done
    thr.M.iterations_done;
  (* both parallelize: within 3x of each other *)
  let a = Time.to_ms raw.M.makespan and b = Time.to_ms thr.M.makespan in
  Alcotest.(check bool) "comparable makespans" true (a < 3. *. b && b < 3. *. a)

(* --- the shared wire kit, on a zero-cost machine: every instant below
   is exact, and a connect costs one network round trip --- *)

let free_machine procs =
  let k = Kernel.boot ~cost:Sunos_hw.Cost_model.free () in
  List.iter (fun (name, main) -> ignore (Kernel.spawn k ~name ~main)) procs;
  Kernel.run k

(* A refused connect to a name nobody listens on: one round trip. *)
let refusal_rtt () =
  let t0 = Uctx.gettime () in
  (try ignore (Uctx.connect "nobody")
   with Errno.Unix_error (Errno.ECONNREFUSED, _) -> ());
  Time.diff (Uctx.gettime ()) t0

(* The peer sends half a frame and goes silent: the read hands back what
   arrived, at the deadline to the nanosecond. *)
let test_deadline_read_times_out () =
  let got = ref ("", Time.zero, Time.zero) in
  free_machine
    [
      ( "server",
        fun () ->
          let lfd = Uctx.listen ~name:"w" ~backlog:1 in
          let fd = Uctx.accept lfd in
          Uctx.write_all fd "0123456789";
          Uctx.sleep (Time.ms 50);
          Uctx.close fd;
          Uctx.close lfd );
      ( "client",
        fun () ->
          let fd = Option.get (Wire.connect_retry ~refused:ignore "w") in
          let deadline = Time.add (Uctx.gettime ()) (Time.ms 5) in
          let reply = Wire.deadline_read fd ~len:32 ~deadline in
          got := (reply, Uctx.gettime (), deadline);
          Uctx.close fd );
    ];
  let reply, t, deadline = !got in
  Alcotest.(check string) "the short frame" "0123456789" reply;
  Alcotest.(check int64) "returned at the deadline" deadline t

(* The peer closes with the request unread, which resets the connection:
   the read raises ECONNRESET rather than returning short. *)
let test_deadline_read_reset () =
  let raised = ref false in
  free_machine
    [
      ( "server",
        fun () ->
          let lfd = Uctx.listen ~name:"w" ~backlog:1 in
          let fd = Uctx.accept lfd in
          Uctx.sleep (Time.ms 10);
          Uctx.close fd;
          Uctx.close lfd );
      ( "client",
        fun () ->
          let fd = Option.get (Wire.connect_retry ~refused:ignore "w") in
          Uctx.write_all fd "request";
          (try
             ignore
               (Wire.deadline_read fd ~len:32
                  ~deadline:(Time.add (Uctx.gettime ()) (Time.ms 50)))
           with Errno.Unix_error (Errno.ECONNRESET, _) -> raised := true);
          Uctx.close fd );
    ];
  Alcotest.(check bool) "ECONNRESET raised" true !raised

(* Nobody listens: the backoff connect gives up at refusal [limit + 1],
   after [limit + 1] round trips and the [limit] backoff-plus-jitter
   sleeps, whose jitter replays from the same seed. *)
let test_connect_backoff_gives_up () =
  let limit = 4 and base_us = 300 in
  let got = ref (Some 0, 0, Time.zero, Time.zero) in
  free_machine
    [
      ( "client",
        fun () ->
          let rtt = refusal_rtt () in
          let refusals = ref 0 in
          let t0 = Uctx.gettime () in
          let fd =
            Wire.connect_backoff ~rng:(Rng.create ~seed:5L) ~limit ~base_us
              ~refused:(fun () -> incr refusals)
              "nobody"
          in
          got := (fd, !refusals, Time.diff (Uctx.gettime ()) t0, rtt) );
    ];
  let fd, refusals, took, rtt = !got in
  let rng = Rng.create ~seed:5L in
  let slept = ref 0 in
  for n = 0 to limit - 1 do
    slept := !slept + (base_us * (1 lsl min n 6)) + Rng.int rng base_us
  done;
  Alcotest.(check bool) "gave up" true (fd = None);
  Alcotest.(check int) "limit + 1 refusals" (limit + 1) refusals;
  Alcotest.(check int64) "gave up at the formula's instant"
    (Int64.add (Int64.mul (Int64.of_int (limit + 1)) rtt) (Time.us !slept))
    took

(* The listener appears at 7 ms: the legacy connect is refused once per
   round trip plus 2 ms until then, and the first attempt whose SYN
   arrives after it connects. *)
let test_connect_retry_until_listener () =
  let got = ref (None, 0, Time.zero, Time.zero, Time.zero) in
  free_machine
    [
      ( "server",
        fun () ->
          Uctx.sleep (Time.ms 7);
          let lfd = Uctx.listen ~name:"late" ~backlog:1 in
          Uctx.close (Uctx.accept lfd);
          Uctx.close lfd );
      ( "client",
        fun () ->
          let rtt = refusal_rtt () in
          let refusals = ref 0 in
          let t0 = Uctx.gettime () in
          let fd =
            Wire.connect_retry ~refused:(fun () -> incr refusals) "late"
          in
          got := (fd, !refusals, t0, Uctx.gettime (), rtt);
          Option.iter Uctx.close fd );
    ];
  let fd, refusals, t0, t, rtt = !got in
  (* attempt [n] starts at t0 + n * (rtt + 2 ms) and is decided one round
     trip later *)
  let decided n =
    Int64.add t0
      (Int64.add rtt (Int64.mul (Int64.of_int n) (Int64.add rtt (Time.ms 2))))
  in
  Alcotest.(check bool) "connected" true (fd <> None);
  Alcotest.(check int64) "connected by the attempt after the last refusal"
    (decided refusals) t;
  Alcotest.(check bool) "the last refusal came before the listener" true
    Time.(decided (refusals - 1) < ms 7);
  Alcotest.(check bool) "the connect came after it" true Time.(t >= ms 7)

let () =
  Alcotest.run "sunos_workloads"
    [
      ( "windows",
        [
          Alcotest.test_case "all models complete" `Quick
            test_windows_all_models_complete;
          Alcotest.test_case "M:N uses few LWPs" `Quick
            test_windows_mn_uses_few_lwps;
          Alcotest.test_case "deterministic" `Quick test_windows_deterministic;
        ] );
      ( "server",
        [
          Alcotest.test_case "all models complete" `Quick
            test_server_all_models_complete;
          Alcotest.test_case "M:N beats 1:1" `Quick
            test_server_mn_beats_1to1_throughput;
        ] );
      ( "database",
        [
          Alcotest.test_case "conserves txns" `Quick
            test_database_conserves_transactions;
          Alcotest.test_case "warm start" `Quick
            test_database_warm_start_no_faults;
        ] );
      ( "array",
        [
          Alcotest.test_case "bound beats oversubscribed" `Quick
            test_array_bound_beats_oversubscribed;
          Alcotest.test_case "gang helps spinners" `Quick
            test_array_gang_helps_spinners_under_load;
          Alcotest.test_case "all modes complete" `Quick
            test_array_work_independent_of_mode;
        ] );
      ( "microtask",
        [
          Alcotest.test_case "raw LWP runtime" `Quick test_microtask_raw_lwps;
          Alcotest.test_case "modes agree" `Quick test_microtask_modes_agree;
        ] );
      ( "wire",
        [
          Alcotest.test_case "deadline read times out short" `Quick
            test_deadline_read_times_out;
          Alcotest.test_case "deadline read raises on reset" `Quick
            test_deadline_read_reset;
          Alcotest.test_case "backoff connect gives up" `Quick
            test_connect_backoff_gives_up;
          Alcotest.test_case "legacy connect waits for the listener" `Quick
            test_connect_retry_until_listener;
        ] );
    ]
