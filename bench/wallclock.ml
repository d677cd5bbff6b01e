(* Wall-clock of whole simulated workloads: the reproduction's own
   engine, not the 1991 cost model.  The engine's single calls (heap op,
   event, effect round trip, boot, thread handoff) are timed per layer
   by perfbench/layers.ml. *)

module Eventq = Sunos_sim.Eventq
module Cost = Sunos_hw.Cost_model
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx

(* ------------------------------------------------------------------ *)
(* Scaling sections: wall-clock of whole simulated workloads            *)
(* ------------------------------------------------------------------ *)

(* Each section times one engine-stressing workload at full scale (the
   [scaling] target, which appends a labelled run to BENCH_wallclock.json
   at the invoker's cwd — run it from the repo root) and at reduced scale
   (the [smoke] target wired into dune runtest, which fails when a
   section regresses by more than 5x wall-clock or 3x minor allocation
   over its recorded baseline, catching accidental quadratic or
   allocation-storm reintroductions).

   Kernel-backed sections run twice at full scale — run-ahead charge
   coalescing off, then on — so the JSON trajectory records the benefit
   of batched CPU accounting alongside the GC counters that explain it
   (coalesced charges never build Charge-effect continuations or settle
   events, so minor allocation drops with the event count). *)

module S = Sunos_workloads.Net_server
module Db = Sunos_workloads.Database
module KV = Sunos_workloads.Kv_store
module Microbench = Sunos_workloads.Microbench

let cost_of ~coalesce =
  if coalesce then Cost.default else { Cost.default with coalesce = false }

let server_conns ~conns ~cpus ~coalesce =
  let p =
    {
      S.default_params with
      connections = conns;
      requests_per_conn = 3;
      think_time_us = 5_000_000;
      connect_stagger_us = 1_000;
      parse_compute_us = 80;
      reply_compute_us = 60;
      disk_every = 64;
      workers = 8;
      concurrency = 2 * cpus;
      client_concurrency = conns;
      listen_backlog = 512;
    }
  in
  ignore (S.run (module Sunos_baselines.Mt) ~cpus ~cost:(cost_of ~coalesce) p)

(* C100k: the sharded epoll server holding [conns] connections under
   open-loop Poisson load — readiness lists, compact per-connection
   records, ONESHOT re-arms and the catch-up sender, all at full scale.
   Arrival count tracks the connection axis (the [requests_per_conn]
   multiplier), so the 100k full run is also 100k served requests. *)
let server_epoll_open ~conns ~cpus ~coalesce =
  let p =
    {
      S.default_params with
      connections = conns;
      requests_per_conn = (if conns >= 10_000 then 1 else 2);
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
  in
  ignore (S.run (module Sunos_baselines.Mt) ~cpus ~cost:(cost_of ~coalesce) p)

(* Compute-bound uniprocessor server (the paper's own machine class): no
   think time, long tokenizing parse/reply phases with an uncontended
   stats mutex on the hot path.  This is the regime run-ahead coalescing
   targets — quantum-length horizons, user-level sync between charges. *)
let server_compute ~conns ~reqs ~coalesce =
  let p =
    {
      S.default_params with
      connections = conns;
      requests_per_conn = reqs;
      think_time_us = 0;
      connect_stagger_us = 200;
      parse_compute_us = 8_000;
      reply_compute_us = 6_000;
      compute_steps = 32;
      disk_every = 0;
      workers = 4;
      concurrency = 1;
      client_concurrency = conns;
      listen_backlog = 64;
    }
  in
  ignore (S.run (module Sunos_baselines.Mt) ~cpus:1 ~cost:(cost_of ~coalesce) p)

(* Figure-1 literal database: records worked through the mapping, so a
   warm transaction is pure user-level work between syscall horizons. *)
let database_mmap ~processes ~threads ~txns ~coalesce =
  let p =
    {
      Db.default_params with
      processes;
      threads_per_process = threads;
      transactions_per_thread = txns;
      records = 2048;
      io_every = 25;
      mmap_io = true;
    }
  in
  ignore (Db.run ~cpus:2 ~cost:(cost_of ~coalesce) p)

(* The original syscall-per-transaction shape, kept as a section so the
   trajectory still tracks the read/write path. *)
let database_syscall ~processes ~threads ~txns ~coalesce =
  let p =
    {
      Db.default_params with
      processes;
      threads_per_process = threads;
      transactions_per_thread = txns;
      records = 64;
    }
  in
  ignore (Db.run ~cpus:2 ~cost:(cost_of ~coalesce) p)

(* Process-shared synchronization: forked servers contending on robust
   shard rwlocks in a shared segment, socket traffic from a separate
   load generator, write batching to a mapped file — the cross-process
   futex path (kwait/kwake + handle translation) under real load. *)
let kv_store ~procs ~clients ~reqs ~coalesce =
  let p =
    {
      KV.default_params with
      server_procs = procs;
      clients;
      requests_per_client = reqs;
      workers_per_server = ((clients + procs - 1) / procs);
      think_time_us = 500;
      request_deadline_us = 400_000;
    }
  in
  ignore (KV.run ~cpus:2 ~cost:(cost_of ~coalesce) p)

(* Dispatch-bound: one CPU, many kernel LWPs ping-ponging through short
   charge/sleep cycles, so the run queue stays deep and the dispatcher
   itself dominates the wall-clock. *)
let dispatch_storm ~lwps ~iters ~coalesce =
  let k = Kernel.boot ~cpus:1 ~cost:(cost_of ~coalesce) () in
  Kernel.set_tracing k false;
  ignore
    (Kernel.spawn k ~name:"storm" ~main:(fun () ->
         for _ = 1 to lwps do
           ignore
             (Uctx.lwp_create
                ~entry:(fun () ->
                  for _ = 1 to iters do
                    Uctx.charge_us 50;
                    Uctx.sleep (Sunos_sim.Time.us 200)
                  done;
                  Uctx.lwp_exit ())
                ())
         done));
  Kernel.run k

(* Cancel-heavy churn: the net server's poll-timeout pattern.  A long
   timeout is re-armed (schedule + cancel) on every short event, so
   cancelled handles pile up in the heap unless the queue compacts. *)
let eventq_churn n ~coalesce:_ =
  let q = Eventq.create () in
  let timeout = ref None in
  let rec tick i =
    if i < n then begin
      (match !timeout with Some h -> Eventq.cancel h | None -> ());
      timeout := Some (Eventq.after q 1_000_000L ignore);
      ignore (Eventq.after q 10L (fun () -> tick (i + 1)))
    end
  in
  tick 0;
  Eventq.run q

type section = {
  name : string;
  kernel : bool;  (* coalescing applies: scaling times it off then on *)
  smoke_baseline_s : float;  (* recorded smoke wall-clock, coalesce on *)
  smoke_baseline_mw : float;  (* recorded smoke minor words, coalesce on *)
  full : coalesce:bool -> unit;
  smoke : coalesce:bool -> unit;
}

let sections =
  [
    {
      name = "server-1000conn";
      kernel = true;
      smoke_baseline_s = 0.042;
      smoke_baseline_mw = 5.6e6;
      full = server_conns ~conns:1000 ~cpus:4;
      smoke = server_conns ~conns:100 ~cpus:2;
    };
    {
      name = "server-100k";
      kernel = true;
      smoke_baseline_s = 0.094;
      smoke_baseline_mw = 2.6e7;
      full = server_epoll_open ~conns:100_000 ~cpus:4;
      smoke = server_epoll_open ~conns:1_000 ~cpus:2;
    };
    {
      name = "server-compute";
      kernel = true;
      smoke_baseline_s = 0.002;
      smoke_baseline_mw = 3.0e5;
      full = server_compute ~conns:8 ~reqs:50;
      smoke = server_compute ~conns:4 ~reqs:10;
    };
    {
      name = "database";
      kernel = true;
      smoke_baseline_s = 0.004;
      smoke_baseline_mw = 2.0e5;
      full = database_mmap ~processes:2 ~threads:8 ~txns:800;
      smoke = database_mmap ~processes:2 ~threads:4 ~txns:60;
    };
    {
      name = "database-syscall";
      kernel = true;
      smoke_baseline_s = 0.002;
      smoke_baseline_mw = 5.0e5;
      full = database_syscall ~processes:4 ~threads:16 ~txns:250;
      smoke = database_syscall ~processes:2 ~threads:6 ~txns:15;
    };
    {
      name = "microbench-sync";
      kernel = true;
      smoke_baseline_s = 0.003;
      smoke_baseline_mw = 5.0e5;
      full = (fun ~coalesce -> ignore (Microbench.sync ~cost:(cost_of ~coalesce) ()));
      smoke = (fun ~coalesce -> ignore (Microbench.sync ~cost:(cost_of ~coalesce) ()));
    };
    {
      name = "kv-store";
      kernel = true;
      smoke_baseline_s = 0.001;
      smoke_baseline_mw = 3.0e5;
      full = kv_store ~procs:3 ~clients:24 ~reqs:16;
      smoke = kv_store ~procs:2 ~clients:8 ~reqs:5;
    };
    {
      name = "dispatch-storm";
      kernel = true;
      smoke_baseline_s = 0.006;
      smoke_baseline_mw = 1.0e6;
      full = dispatch_storm ~lwps:500 ~iters:200;
      smoke = dispatch_storm ~lwps:60 ~iters:20;
    };
    {
      name = "eventq-churn";
      kernel = false;
      smoke_baseline_s = 0.002;
      smoke_baseline_mw = 1.3e6;
      full = eventq_churn 200_000;
      smoke = eventq_churn 20_000;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Measurement: wall-clock plus the GC counters that explain it        *)
(* ------------------------------------------------------------------ *)

type meas = {
  wall_s : float;
  minor_w : float;  (* minor words allocated *)
  promoted_w : float;
  majors : int;  (* major collections *)
}

(* One timed run with its GC deltas; wall-clock is then refined to the
   best of a few repeats (short sections bounce by 2-3x on a shared
   machine), while the GC counters come from the first run — the
   workloads are deterministic, so allocation doesn't need repeats. *)
let measure f =
  let once () =
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    f ();
    let t1 = Unix.gettimeofday () in
    let g1 = Gc.quick_stat () in
    {
      wall_s = t1 -. t0;
      minor_w = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_w = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      majors = g1.Gc.major_collections - g0.Gc.major_collections;
    }
  in
  (* normalize heap state so a section isn't taxed for its
     predecessor's garbage *)
  Gc.compact ();
  let m0 = once () in
  let reps =
    if m0.wall_s < 0.05 then 9
    else if m0.wall_s < 0.5 then 3
    else 1
  in
  let best = ref m0.wall_s in
  for _ = 1 to reps do
    let m = once () in
    if m.wall_s < !best then best := m.wall_s
  done;
  { m0 with wall_s = !best }

(* ------------------------------------------------------------------ *)
(* BENCH_wallclock.json: an append-per-PR trajectory                   *)
(* ------------------------------------------------------------------ *)

(* The file holds one run object per line under "runs", keyed by the
   --label argument (default "dev").  Re-running under an existing label
   replaces that run; new labels append, so the file accumulates the
   per-PR perf trajectory.  Line-per-run keeps the append a plain text
   edit — no JSON parser needed. *)

let label = ref "dev"

let read_runs path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let runs = ref [] in
    (try
       while true do
         let t = String.trim (input_line ic) in
         let t =
           if String.length t > 0 && t.[String.length t - 1] = ',' then
             String.sub t 0 (String.length t - 1)
           else t
         in
         if String.length t > 10 && String.sub t 0 10 = "{\"label\": " then
           runs := t :: !runs
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !runs
  end

let section_json (s, off, on) =
  let core =
    Printf.sprintf
      "{\"name\": %S, \"wall_s\": %.3f, \"minor_words\": %.0f, \
       \"promoted_words\": %.0f, \"major_collections\": %d"
      s.name on.wall_s on.minor_w on.promoted_w on.majors
  in
  match off with
  | None -> core ^ "}"
  | Some off ->
      Printf.sprintf
        "%s, \"coalesce_off_s\": %.3f, \"coalesce_off_minor_words\": %.0f, \
         \"speedup\": %.2f, \"minor_words_ratio\": %.2f}"
        core off.wall_s off.minor_w
        (if on.wall_s > 0. then off.wall_s /. on.wall_s else 0.)
        (if on.minor_w > 0. then off.minor_w /. on.minor_w else 0.)

let emit_json path rows =
  let this =
    Printf.sprintf "{\"label\": %S, \"sections\": [%s]}" !label
      (String.concat ", " rows)
  in
  let prefix = Printf.sprintf "{\"label\": %S," !label in
  let keep l = not (String.length l >= String.length prefix
                    && String.sub l 0 (String.length prefix) = prefix) in
  let runs = List.filter keep (read_runs path) @ [ this ] in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"wallclock\",\n";
  Printf.fprintf oc
    "  \"note\": \"one run object per PR label; kernel sections timed \
     with run-ahead charge coalescing off and on (wall_s / minor_words \
     are the coalescing-on figures)\",\n";
  Printf.fprintf oc "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc "    %s%s\n" r
        (if i = List.length runs - 1 then "" else ","))
    runs;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let scaling () =
  Bout.printf
    "\n=== W2: wall-clock of engine-stressing workloads (full scale, \
     charge coalescing off vs on) ===\n\n";
  Bout.printf "  %-18s %9s %9s %8s %11s %11s %7s\n" "section" "off (s)"
    "on (s)" "speedup" "minor Mw" "minor Mw" "majors";
  Bout.printf "  %-18s %9s %9s %8s %11s %11s %7s\n" "" "" "" "" "(off)"
    "(on)" "(on)";
  let rows =
    List.map
      (fun s ->
        let off =
          if s.kernel then Some (measure (fun () -> s.full ~coalesce:false))
          else None
        in
        let on = measure (fun () -> s.full ~coalesce:true) in
        (match off with
        | Some off ->
            Bout.printf "  %-18s %9.3f %9.3f %7.2fx %11.1f %11.1f %7d\n"
              s.name off.wall_s on.wall_s
              (if on.wall_s > 0. then off.wall_s /. on.wall_s else 0.)
              (off.minor_w /. 1e6) (on.minor_w /. 1e6) on.majors
        | None ->
            Bout.printf "  %-18s %9s %9.3f %8s %11s %11.1f %7d\n" s.name "-"
              on.wall_s "-" "-" (on.minor_w /. 1e6) on.majors);
        (s, off, on))
      sections
  in
  emit_json "BENCH_wallclock.json" (List.map section_json rows);
  Bout.printf "\n(recorded run %S in BENCH_wallclock.json)\n" !label

let smoke () =
  Bout.printf
    "\n=== wallclock smoke: 5x time / 3x allocation regression gate ===\n\n";
  let failures =
    List.filter_map
      (fun s ->
        let m = measure (fun () -> s.smoke ~coalesce:true) in
        (* absolute floors keep sub-10ms sections and small allocation
           deltas out of the noise *)
        let allowed_s = Float.max (5. *. s.smoke_baseline_s) 0.25 in
        let allowed_mw = Float.max (3. *. s.smoke_baseline_mw) 2e7 in
        let bad_t = m.wall_s > allowed_s in
        let bad_w = m.minor_w > allowed_mw in
        Bout.printf
          "  %-18s %8.3fs (allowed %.3fs)  %7.1f Mw (allowed %.1f Mw)%s%s\n"
          s.name m.wall_s allowed_s (m.minor_w /. 1e6) (allowed_mw /. 1e6)
          (if bad_t then "  TIME-REGRESSED" else "")
          (if bad_w then "  ALLOC-REGRESSED" else "");
        if bad_t || bad_w then Some s.name else None)
      sections
  in
  (* Coalescing must never tax the dispatch-bound path: each grant costs
     one next-event peek, O(1) on the single heap, so coalesce-on should
     track coalesce-off.  The gate is lenient — 2x with a 0.25 s floor —
     because the storm smoke runs in single-digit milliseconds on an idle
     machine. *)
  let storm_off =
    measure (fun () -> dispatch_storm ~lwps:60 ~iters:20 ~coalesce:false)
  in
  let storm_on =
    measure (fun () -> dispatch_storm ~lwps:60 ~iters:20 ~coalesce:true)
  in
  let storm_allowed = Float.max (2. *. storm_off.wall_s) 0.25 in
  let storm_bad = storm_on.wall_s > storm_allowed in
  Bout.printf
    "  %-18s off %.3fs on %.3fs (allowed %.3fs)%s\n" "storm-coalesce"
    storm_off.wall_s storm_on.wall_s storm_allowed
    (if storm_bad then "  COALESCE-REGRESSED" else "");
  let failures =
    if storm_bad then failures @ [ "dispatch-storm-coalesce" ] else failures
  in
  if failures <> [] then begin
    Printf.eprintf "wallclock smoke: regression in %s\n"
      (String.concat ", " failures);
    exit 1
  end
