module Time = Sunos_sim.Time
module Hist = Sunos_sim.Stats.Hist
module Rng = Sunos_sim.Rng
module Shm = Sunos_hw.Shared_memory
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Fs = Sunos_kernel.Fs
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Mutex = Sunos_threads.Mutex
module Syncvar = Sunos_threads.Syncvar

type params = {
  processes : int;
  threads_per_process : int;
  records : int;
  transactions_per_thread : int;
  compute_us : int;
  io_every : int;
  start_cold : bool;
  mmap_io : bool;
  seed : int64;
}

let default_params =
  {
    processes = 2;
    threads_per_process = 8;
    records = 32;
    transactions_per_thread = 25;
    compute_us = 300;
    io_every = 10;
    start_cold = true;
    mmap_io = false;
    seed = 23L;
  }

type results = {
  committed : int;
  makespan : Sunos_sim.Time.span;
  throughput_tps : float;
  latency : Hist.t;
  majflt : int;
}

let record_size = 512
let db_path = "/db/records"

(* A record's lock lives at the start of the record, inside the mapped
   file — Figure 1 of the paper, literally. *)
let lock_offset r = r * record_size

let run ?(cpus = 2) ?cost ?chaos ?(trace = false) ?debrief p =
  let k = Kernel.boot ~cpus ?cost ?chaos () in
  if not trace then Kernel.set_tracing k false;
  (* the database file: cold, reads hit the disk until the page cache
     warms, unless [start_cold] is off *)
  let seg =
    Fs.segment (Wire.cold_file k ~path:db_path ~size:(p.records * record_size))
  in
  if not p.start_cold then
    for page = 0 to Shm.page_count seg - 1 do
      Shm.make_resident seg ~page
    done;
  let committed = ref 0 in
  let latency = Hist.create "txn latency" in
  let makespan = ref Time.zero in
  let server id () =
    (* size the pool so worker threads run concurrently from the start
       (otherwise a CPU-bound worker monopolizes the single LWP until
       its first kernel block) *)
    T.setconcurrency (min p.threads_per_process 4);
    let rng = Rng.create ~seed:(Int64.add p.seed (Int64.of_int id)) in
    let fd = Uctx.open_file db_path in
    let seg = Uctx.mmap fd in
    let locks =
      Array.init p.records (fun r ->
          Mutex.create_shared (Syncvar.place seg ~offset:(lock_offset r)))
    in
    let worker wid () =
      let rng = Rng.split rng in
      ignore wid;
      for txn = 1 to p.transactions_per_thread do
        let r = Rng.int rng p.records in
        if p.mmap_io then begin
          (* Figure-1 literal mode: the thread locks the record and
             works on it THROUGH THE MAPPING — no read/write system
             calls for warm data, so an uncontended transaction is pure
             user-level work (lock, copy, compute, unlock).  Every
             [io_every]-th transaction evicts its page and faults it
             back in, keeping the disk path honest; those sampled
             transactions also carry the latency histogram (gettime is
             a system call — timing every warm transaction would
             syscall-bound the very path this mode exists to expose). *)
          let sampled = txn mod p.io_every = 0 in
          let t0 = if sampled then Uctx.gettime () else Time.zero in
          Mutex.enter locks.(r);
          if sampled then begin
            Shm.evict seg ~page:(Shm.page_of_offset ~offset:(lock_offset r));
            Uctx.touch seg ~offset:(lock_offset r)
          end;
          (* record copy in/out of the mapping, at the cost model's
             per-KiB copy rate (512-byte record = ~half [copy_per_kb]) *)
          Uctx.charge_us 28;
          Uctx.charge_us p.compute_us;
          Uctx.charge_us 14;
          Mutex.exit locks.(r);
          if sampled then
            Hist.add latency (Time.diff (Uctx.gettime ()) t0);
          incr committed
        end
        else begin
          let t0 = Uctx.gettime () in
          Mutex.enter locks.(r);
          if txn mod p.io_every = 0 then begin
            (* cold read: evict then read so the disk path is exercised *)
            Shm.evict seg ~page:(Shm.page_of_offset ~offset:(lock_offset r));
            Uctx.lseek fd (lock_offset r);
            ignore (Uctx.read fd ~len:record_size)
          end
          else begin
            Uctx.lseek fd (lock_offset r);
            ignore (Uctx.read fd ~len:record_size)
          end;
          Uctx.charge_us p.compute_us;
          Uctx.lseek fd (lock_offset r);
          ignore (Uctx.write fd (String.make 32 'w'));
          Mutex.exit locks.(r);
          Hist.add latency (Time.diff (Uctx.gettime ()) t0);
          incr committed
        end
      done
    in
    let ts =
      List.init p.threads_per_process (fun w ->
          T.create ~flags:[ T.THREAD_WAIT ] (worker w))
    in
    List.iter (fun t -> ignore (T.wait ~thread:t ())) ts
  in
  for id = 1 to p.processes do
    ignore
      (Kernel.spawn k
         ~name:(Printf.sprintf "dbserver%d" id)
         ~main:(Libthread.boot (Wire.finishing makespan (server id))))
  done;
  Kernel.run k;
  (* [debrief] runs against the still-live kernel: determinism tests read
     counters and the trace ring before the results are boxed up *)
  (match debrief with Some f -> f k | None -> ());
  let majflt =
    List.fold_left
      (fun acc pi -> acc + pi.Sunos_kernel.Procfs.pi_majflt)
      0
      (Sunos_kernel.Procfs.snapshot k)
  in
  {
    committed = !committed;
    makespan = !makespan;
    throughput_tps = Wire.per_second !committed !makespan;
    latency;
    majflt;
  }

let pp_results ppf r =
  Format.fprintf ppf
    "committed=%d makespan=%a throughput=%.0f txn/s majflt=%d latency: %a"
    r.committed Time.pp r.makespan r.throughput_tps r.majflt Hist.pp_summary
    r.latency
