(* A sharded key-value store spread across forked server processes —
   the workload the USYNC_PROCESS subsystem exists for.

   One master process creates a shared anonymous control segment and a
   mapped backing file, then forks N server processes.  Every server
   maps both; hash shards in the control segment are guarded by robust
   process-shared rwlocks (many readers per shard, one writer), each
   shard carrying a small LRU cache over the file and a dirty list that
   is write-batched to the backing file in one syscall per batch.  A
   separate load-generator process drives the fleet through the socket
   layer with the hardened client protocol (bounded connect retry,
   per-request deadlines, abort-on-dead-connection).

   Under chaos [proc-kill], a server dies at a syscall boundary — by
   construction often inside a shard critical section (the batched flush
   syscalls run holding the shard lock: the write side under the legacy
   [flush_under_write] placement, the read side after the default
   downgrade).  The robust-lock protocol
   then marks the shard lock OWNERDEAD; the next acquirer from a
   surviving server repairs the shard (re-flushes the dirty list, which
   is idempotent, and reconciles the torn epoch) instead of the whole
   shard deadlocking.

   Conservation is classified entirely client-side so it stays a
   checkable identity even when replies are lost mid-kill: every issued
   put (and get) ends up exactly one of applied/served, shed, or
   aborted.  Servers separately count the puts they applied; under
   proc-kill [server_applied] may exceed client-acked [puts_applied]
   (a reply died with its server) — reported, never silently lost. *)

module Time = Sunos_sim.Time
module Hist = Sunos_sim.Stats.Hist
module Rng = Sunos_sim.Rng
module Univ = Sunos_sim.Univ
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Mutex = Sunos_threads.Mutex
module Rwlock = Sunos_threads.Rwlock
module Semaphore = Sunos_threads.Semaphore
module Syncvar = Sunos_threads.Syncvar

type params = {
  server_procs : int;  (* forked server processes *)
  shards : int;  (* hash shards in the shared segment *)
  lwps_per_server : int;  (* setconcurrency per server *)
  workers_per_server : int;  (* worker threads per server *)
  clients : int;  (* client connections (round-robin over servers) *)
  requests_per_client : int;
  read_pct : int;  (* 0..100: share of gets in the mix *)
  keys : int;  (* key space *)
  value_bytes : int;
  lru_capacity : int;  (* cached values per shard *)
  batch : int;  (* dirty puts per write-batch flush *)
  think_time_us : int;  (* mean client think time *)
  request_deadline_us : int;
  robust : bool;  (* robust shard locks (required under proc-kill) *)
  flush_under_write : bool;
      (* legacy flush placement: run the batched disk write with the
         shard WRITE lock held, so every get queues behind the flush —
         the p99 tail the default (downgrade-to-reader) placement
         removes.  Kept for the bench contrast *)
  seed : int64;
}

let default_params =
  {
    server_procs = 2;
    shards = 4;
    lwps_per_server = 3;
    workers_per_server = 4;
    clients = 8;
    requests_per_client = 6;
    read_pct = 70;
    keys = 64;
    value_bytes = 128;
    lru_capacity = 8;
    batch = 4;
    think_time_us = 1_000;
    request_deadline_us = 100_000;
    robust = true;
    flush_under_write = false;
    seed = 47L;
  }

(* A server answers "busy" once this many connections queue for its
   workers.  A client retries a refused connect up to
   [connect_retry_limit] times, backing off exponentially from
   [retry_base_us] plus jitter.  The load generator runs one LWP per
   client. *)
let shed_queue_limit = 6
let listen_backlog = 32
let connect_retry_limit = 8
let retry_base_us = 500

(* A run's counters live in its results: clients classify each op,
   servers count cache, flush and repair work, the master counts kills.
   The forked processes share one OCaml heap, so they bump one record. *)
type results = {
  mutable gets_ok : int;
  mutable gets_shed : int;
  mutable gets_aborted : int;
  mutable gets_issued : int;
  mutable puts_applied : int;
  mutable puts_shed : int;
  mutable puts_aborted : int;
  mutable puts_issued : int;
  mutable server_applied : int;
  mutable recoveries : int;  (* OWNERDEAD repairs performed *)
  mutable torn_repaired : int;  (* repairs that found a torn epoch *)
  mutable flushes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable gaveup : int;
  mutable refused : int;
  mutable killed : int;  (* servers lost to chaos proc-kill *)
  makespan : Time.span;
  throughput_rps : float;
  latency : Hist.t;
  lwps_created : int;
  syscalls : int;
}

let puts_conserved r =
  r.puts_applied + r.puts_shed + r.puts_aborted = r.puts_issued

let gets_conserved r = r.gets_ok + r.gets_shed + r.gets_aborted = r.gets_issued

(* --- wire protocol (fixed-size frames) ------------------------------- *)

let req_bytes = 32
let reply_bytes = 32

(* --- shared-segment layout -------------------------------------------- *)

(* Control segment: shard [s] owns the 256-byte slot at [s*256] — the
   robust rwlock word at +0, the shard record cell at +64.  The
   store-wide meta slot (robust mutex + flush counter) sits after the
   last shard.  The backing file gives each shard one page. *)
let slot = 256
let lock_off s = s * slot
let data_off s = (s * slot) + 64
let meta_lock_off p = p.shards * slot
let meta_data_off p = (p.shards * slot) + 64
let ctl_size p = (p.shards + 1) * slot
let file_page = 4096
let file_off s = s * file_page
let kv_path = "/kv/store"

type shard_data = {
  cache : (int, string) Hashtbl.t;
  mutable lru : int list;  (* MRU-first keys currently cached *)
  mutable dirty : (int * string) list;  (* newest-first pending batch *)
  mutable epoch_start : int;  (* bumped entering a put *)
  mutable epoch_done : int;  (* bumped leaving it; torn when behind *)
}

type meta_data = { mutable total_flushes : int }

let shard_key : shard_data Univ.key = Univ.key ()
let meta_key : meta_data Univ.key = Univ.key ()

let shard_at ctl s =
  Syncvar.locate
    (Syncvar.place ctl ~offset:(data_off s))
    ~key:shard_key
    ~make:(fun () ->
      {
        cache = Hashtbl.create 16;
        lru = [];
        dirty = [];
        epoch_start = 0;
        epoch_done = 0;
      })

let meta_at p ctl =
  Syncvar.locate
    (Syncvar.place ctl ~offset:(meta_data_off p))
    ~key:meta_key
    ~make:(fun () -> { total_flushes = 0 })

let svc i = Printf.sprintf "kv%d" i

(* Handles on every lock word and record of the control segment:
   (shard locks, shard records, meta mutex, meta record).  Creation is
   pure, and every process that opens the store resolves the same
   records. *)
let open_store p ctl =
  let place off = Syncvar.place ctl ~offset:off in
  ( Array.init p.shards (fun s ->
        Rwlock.create_shared ~robust:p.robust (place (lock_off s))),
    Array.init p.shards (shard_at ctl),
    Mutex.create_shared ~robust:p.robust (place (meta_lock_off p)),
    meta_at p ctl )

(* --- server process --------------------------------------------------- *)

let server p ctl ~idx ~assigned ~(r : results) () =
  T.setconcurrency (max 1 p.lwps_per_server);
  let fd_file = Uctx.open_file kv_path in
  let fileseg = Uctx.mmap fd_file in
  let locks, shards, meta_mu, meta = open_store p ctl in
  (* One write syscall per batch — the point of batching.  Runs with the
     shard write lock held, so a chaos proc-kill at the lseek/write
     boundary dies mid-critical-section with a non-empty dirty list. *)
  let flush_shard s sd =
    if sd.dirty <> [] then begin
      let n = List.length sd.dirty in
      Uctx.lseek fd_file (file_off s);
      ignore (Uctx.write fd_file (String.make (n * p.value_bytes) 'w'));
      r.flushes <- r.flushes + 1;
      sd.dirty <- [];
      (* store-wide flush counter under the robust meta mutex; lock
         order is always shard -> meta *)
      (match Mutex.enter_robust meta_mu with
      | `Locked -> ()
      | `Owner_dead ->
          (* a counter cannot tear; just take the repair credit *)
          r.recoveries <- r.recoveries + 1;
          Mutex.set_consistent meta_mu);
      meta.total_flushes <- meta.total_flushes + 1;
      Mutex.exit meta_mu
    end
  in
  (* Robust acquisition: on OWNERDEAD we hold the write side over
     possibly-torn shard state — re-flush the dirty list (idempotent:
     every entry still carries its value), reconcile the epoch, then
     declare the shard consistent and drop to the side we wanted. *)
  let lock_shard s kind =
    match Rwlock.enter_robust locks.(s) kind with
    | `Locked -> ()
    | `Owner_dead ->
        let sd = shards.(s) in
        if sd.epoch_start <> sd.epoch_done then
          r.torn_repaired <- r.torn_repaired + 1;
        flush_shard s sd;
        sd.epoch_done <- sd.epoch_start;
        r.recoveries <- r.recoveries + 1;
        Rwlock.set_consistent locks.(s);
        (match kind with
        | Rwlock.Reader -> Rwlock.downgrade locks.(s)
        | Rwlock.Writer -> ())
  in
  let cache_insert sd key v =
    if not (Hashtbl.mem sd.cache key) then begin
      sd.lru <- key :: sd.lru;
      if List.length sd.lru > p.lru_capacity then begin
        match List.rev sd.lru with
        | last :: _ ->
            Hashtbl.remove sd.cache last;
            sd.lru <- List.filter (fun k -> k <> last) sd.lru
        | [] -> ()
      end
    end;
    Hashtbl.replace sd.cache key v
  in
  let serve_get key =
    let s = key mod p.shards in
    lock_shard s Rwlock.Reader;
    let sd = shards.(s) in
    if Hashtbl.mem sd.cache key then begin
      r.cache_hits <- r.cache_hits + 1;
      Uctx.charge_us 5;
      Rwlock.exit locks.(s)
    end
    else begin
      r.cache_misses <- r.cache_misses + 1;
      (* promote to the write side to fill the cache from the mapping *)
      Rwlock.exit locks.(s);
      lock_shard s Rwlock.Writer;
      Uctx.touch fileseg ~offset:(file_off s);
      Uctx.charge_us (5 + (p.value_bytes / 32));
      cache_insert sd key (Printf.sprintf "v%d" key);
      Rwlock.exit locks.(s)
    end
  in
  let serve_put key v =
    let s = key mod p.shards in
    lock_shard s Rwlock.Writer;
    let sd = shards.(s) in
    sd.epoch_start <- sd.epoch_start + 1;
    cache_insert sd key v;
    sd.dirty <- (key, v) :: sd.dirty;
    Uctx.charge_us (5 + (p.value_bytes / 32));
    (* The put's mutation is complete: close the epoch BEFORE any flush,
       so a server killed mid-flush no longer presents a torn epoch —
       the dirty list alone carries the recovery (re-flush is
       idempotent: entries keep their values until the write returns). *)
    sd.epoch_done <- sd.epoch_done + 1;
    if List.length sd.dirty >= p.batch then
      if p.flush_under_write then begin
        (* legacy placement: the disk write runs with the write lock
           held and every reader on the shard queues behind it *)
        flush_shard s sd;
        Rwlock.exit locks.(s)
      end
      else begin
        (* Drop to the read side for the flush: gets proceed during the
           disk write, while writers stay excluded — nobody can mutate
           [dirty] under us, and the writer-held invariants of
           OWNERDEAD repair are untouched (a dead reader's hold is
           simply dropped; the intact dirty list makes the next flush
           redo the work). *)
        Rwlock.downgrade locks.(s);
        flush_shard s sd;
        Rwlock.exit locks.(s)
      end
    else Rwlock.exit locks.(s);
    r.server_applied <- r.server_applied + 1
  in
  (* frame dispatch: "G <key>" / "P <key> <n>" *)
  let handle req =
    match String.split_on_char ' ' (String.trim req) with
    | "G" :: key :: _ ->
        serve_get (int_of_string key);
        Wire.pad "val" reply_bytes
    | "P" :: key :: n :: _ ->
        serve_put (int_of_string key)
          (Wire.pad (Printf.sprintf "v%s.%s" key n) p.value_bytes);
        Wire.pad "ok" reply_bytes
    | _ -> Wire.pad "err" reply_bytes
  in
  let qmu = Mutex.create () in
  let qsem = Semaphore.create () in
  let workq = Queue.create () in
  let worker () =
    let rec serve_conn fd shed =
      let req =
        try Uctx.read_exact fd ~len:req_bytes
        with e when Wire.conn_dead e -> ""
      in
      if String.length req < req_bytes then Uctx.close fd
      else begin
        Uctx.charge_us 3 (* parse *);
        let reply =
          if shed then begin
            Uctx.note_shed ();
            Wire.pad "busy" reply_bytes
          end
          else handle req
        in
        match Uctx.write_all fd reply with
        | () -> serve_conn fd shed
        | exception e when Wire.conn_dead e -> Uctx.close fd
      end
    in
    let rec loop () =
      Semaphore.p qsem;
      Mutex.enter qmu;
      let job = Queue.pop workq in
      Mutex.exit qmu;
      match job with
      | Wire.Stop -> ()
      | Wire.Work { fd; shed } ->
          serve_conn fd shed;
          loop ()
    in
    loop ()
  in
  let acceptor () =
    let lfd = Uctx.listen ~name:(svc idx) ~backlog:listen_backlog in
    for _ = 1 to assigned do
      let fd = Uctx.accept lfd in
      Mutex.enter qmu;
      (* shed at admission: a queue this deep means the workers are a
         full burst behind — answer busy instead of growing the backlog *)
      let shed = Queue.length workq >= shed_queue_limit in
      Queue.add (Wire.Work { fd; shed }) workq;
      Mutex.exit qmu;
      Semaphore.v qsem
    done;
    Mutex.enter qmu;
    for _ = 1 to p.workers_per_server do
      Queue.add Wire.Stop workq
    done;
    Mutex.exit qmu;
    for _ = 1 to p.workers_per_server do
      Semaphore.v qsem
    done;
    Uctx.close lfd
  in
  let ts =
    T.create ~flags:[ T.THREAD_WAIT ] acceptor
    :: List.init p.workers_per_server (fun _ ->
           T.create ~flags:[ T.THREAD_WAIT ] worker)
  in
  List.iter (fun t -> ignore (T.wait ~thread:t ())) ts

(* --- client / load generator ------------------------------------------ *)

type op = Get of int | Put of int

let loadgen p ~(r : results) ~gaveup_per () =
  T.setconcurrency (max 1 p.clients);
  let one cid () =
    let rng =
      Rng.create ~seed:(Int64.add p.seed (Int64.of_int (7919 * cid)))
    in
    (* the op mix is drawn up front so an aborted remainder still knows
       what it was — conservation must classify never-sent requests —
       and so the issued count of each class is known independently of
       how its ops end *)
    let ops =
      Array.init p.requests_per_client (fun _ ->
          if Rng.int rng 100 < p.read_pct then Get (Rng.int rng p.keys)
          else Put (Rng.int rng p.keys))
    in
    Array.iter
      (function
        | Get _ -> r.gets_issued <- r.gets_issued + 1
        | Put _ -> r.puts_issued <- r.puts_issued + 1)
      ops;
    let abort_from j =
      for i = j to p.requests_per_client - 1 do
        match ops.(i) with
        | Get _ -> r.gets_aborted <- r.gets_aborted + 1
        | Put _ -> r.puts_aborted <- r.puts_aborted + 1
      done
    in
    let target = (cid - 1) mod p.server_procs in
    match
      Wire.connect_backoff ~rng ~limit:connect_retry_limit
        ~base_us:retry_base_us
        ~refused:(fun () -> r.refused <- r.refused + 1)
        (svc target)
    with
    | None ->
        r.gaveup <- r.gaveup + 1;
        gaveup_per.(target) <- gaveup_per.(target) + 1;
        abort_from 0
    | Some fd -> (
        let done_reqs = ref 0 in
        try
          Array.iteri
            (fun i op ->
              if p.think_time_us > 0 then
                Uctx.sleep
                  (Time.us_f
                     (Rng.exponential rng
                        ~mean:(float_of_int p.think_time_us)));
              let frame =
                match op with
                | Get key -> Wire.pad (Printf.sprintf "G %d" key) req_bytes
                | Put key -> Wire.pad (Printf.sprintf "P %d %d" key i) req_bytes
              in
              let t0 = Uctx.gettime () in
              Uctx.write_all fd frame;
              (* a reply deadline: a client that waits forever on a
                 killed server would turn one proc-kill into a hung
                 fleet *)
              let reply =
                Wire.read_reply fd ~len:reply_bytes ~t0
                  ~deadline_us:p.request_deadline_us
              in
              (if Wire.is_busy reply then
                 match op with
                 | Get _ -> r.gets_shed <- r.gets_shed + 1
                 | Put _ -> r.puts_shed <- r.puts_shed + 1
               else begin
                 Hist.add r.latency (Time.diff (Uctx.gettime ()) t0);
                 match op with
                 | Get _ -> r.gets_ok <- r.gets_ok + 1
                 | Put _ -> r.puts_applied <- r.puts_applied + 1
               end);
              incr done_reqs)
            ops;
          Uctx.close fd
        with e when Wire.conn_dead e ->
          abort_from !done_reqs;
          Uctx.close fd)
  in
  let ts =
    List.init p.clients (fun cid ->
        T.create ~flags:[ T.THREAD_WAIT ] (one (cid + 1)))
  in
  List.iter (fun t -> ignore (T.wait ~thread:t ())) ts;
  (* A live server's acceptor expects every assigned slot; gave-up slots
     are drained with bare connect/close.  Bounded: a killed server's
     listener refuses forever, and nobody is waiting on it anyway. *)
  Array.iteri
    (fun i n ->
      for _ = 1 to n do
        Option.iter Uctx.close
          (Wire.connect_retry ~tries:25 ~refused:ignore (svc i))
      done)
    gaveup_per

(* --- the run ----------------------------------------------------------- *)

let run ?(cpus = 2) ?cost ?chaos ?(trace = false) ?debrief p =
  if p.server_procs < 1 || p.shards < 1 || p.clients < 1 then
    invalid_arg "Kv_store.run: params";
  let k = Kernel.boot ~cpus ?cost ?chaos () in
  if not trace then Kernel.set_tracing k false;
  (* start cold so get-misses pay the disk *)
  ignore (Wire.cold_file k ~path:kv_path ~size:(p.shards * file_page));
  let r =
    {
      gets_ok = 0; gets_shed = 0; gets_aborted = 0; gets_issued = 0;
      puts_applied = 0; puts_shed = 0; puts_aborted = 0; puts_issued = 0;
      server_applied = 0; recoveries = 0; torn_repaired = 0; flushes = 0;
      cache_hits = 0; cache_misses = 0; gaveup = 0; refused = 0; killed = 0;
      makespan = Time.zero; throughput_rps = 0.;
      latency = Hist.create "kv latency"; lwps_created = 0; syscalls = 0;
    }
  in
  let makespan = ref Time.zero in
  let gaveup_per = Array.make p.server_procs 0 in
  let assigned = Array.make p.server_procs 0 in
  for cid = 1 to p.clients do
    let s = (cid - 1) mod p.server_procs in
    assigned.(s) <- assigned.(s) + 1
  done;
  let master () =
    let ctl = Uctx.mmap_anon ~size:(ctl_size p) ~shared:true in
    (* pre-create every lock word and record so the segment layout is
       fixed before any server races to look *)
    ignore (open_store p ctl);
    for i = 0 to p.server_procs - 1 do
      ignore
        (Uctx.fork1
           ~child_main:
             (Libthread.boot
                (Wire.finishing makespan
                   (server p ctl ~idx:i
                      ~assigned:(assigned.(i) + gaveup_per.(i))
                      ~r))))
    done;
    (* reap the fleet; 137 = killed by chaos *)
    for _ = 1 to p.server_procs do
      let _, status = Uctx.waitpid () in
      if status = 137 then r.killed <- r.killed + 1
    done
  in
  ignore
    (Kernel.spawn k ~name:"kv-master" ~main:(Wire.finishing makespan master));
  ignore
    (Kernel.spawn k ~name:"kv-loadgen"
       ~main:
         (Libthread.boot
            (Wire.finishing makespan (loadgen p ~r ~gaveup_per))));
  Kernel.run k;
  (match debrief with Some f -> f k | None -> ());
  {
    r with
    makespan = !makespan;
    throughput_rps = Wire.per_second (r.gets_ok + r.puts_applied) !makespan;
    lwps_created = Kernel.lwp_create_count k;
    syscalls = Kernel.syscall_count k;
  }

let pp_results ppf r =
  Format.fprintf ppf
    "gets=%d/%d puts=%d/%d shed=%d aborted=%d makespan=%a throughput=%.0f \
     req/s cache=%d/%d flushes=%d lwps=%d latency: %a"
    r.gets_ok r.gets_issued r.puts_applied r.puts_issued
    (r.gets_shed + r.puts_shed)
    (r.gets_aborted + r.puts_aborted)
    Time.pp r.makespan r.throughput_rps r.cache_hits
    (r.cache_hits + r.cache_misses)
    r.flushes r.lwps_created Hist.pp_summary r.latency;
  if r.killed > 0 || r.recoveries > 0 then
    Format.fprintf ppf " killed=%d recoveries=%d torn=%d applied-unacked=%d"
      r.killed r.recoveries r.torn_repaired
      (r.server_applied - r.puts_applied)
