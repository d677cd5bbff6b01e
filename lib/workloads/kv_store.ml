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
module Shm = Sunos_hw.Shared_memory
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Errno = Sunos_kernel.Errno
module Sysdefs = Sunos_kernel.Sysdefs
module Fs = Sunos_kernel.Fs
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

type results = {
  gets_ok : int;
  gets_shed : int;
  gets_aborted : int;
  gets_issued : int;
  puts_applied : int;
  puts_shed : int;
  puts_aborted : int;
  puts_issued : int;
  server_applied : int;
  recoveries : int;  (* OWNERDEAD repairs performed *)
  torn_repaired : int;  (* repairs that found a torn epoch *)
  flushes : int;
  cache_hits : int;
  cache_misses : int;
  gaveup : int;
  refused : int;
  killed : int;  (* servers lost to chaos proc-kill *)
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

let pad s len =
  if String.length s >= len then String.sub s 0 len
  else s ^ String.make (len - String.length s) ' '

let is_reply tag reply =
  String.length reply >= String.length tag
  && String.sub reply 0 (String.length tag) = tag

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

(* --- server process --------------------------------------------------- *)

type job = Stop | Work of Sysdefs.fd | Shed of Sysdefs.fd

let server p ctl ~idx ~assigned ~counters () =
  let ( cache_hits,
        cache_misses,
        flushes,
        recoveries,
        torn_repaired,
        server_applied ) =
    counters
  in
  T.setconcurrency (max 1 p.lwps_per_server);
  let fd_file = Uctx.open_file kv_path in
  let fileseg = Uctx.mmap fd_file in
  let locks =
    Array.init p.shards (fun s ->
        Rwlock.create_shared ~robust:p.robust
          (Syncvar.place ctl ~offset:(lock_off s)))
  in
  let shards = Array.init p.shards (fun s -> shard_at ctl s) in
  let meta_mu =
    Mutex.create_shared ~robust:p.robust
      (Syncvar.place ctl ~offset:(meta_lock_off p))
  in
  let meta = meta_at p ctl in
  (* One write syscall per batch — the point of batching.  Runs with the
     shard write lock held, so a chaos proc-kill at the lseek/write
     boundary dies mid-critical-section with a non-empty dirty list. *)
  let flush_shard s sd =
    if sd.dirty <> [] then begin
      let n = List.length sd.dirty in
      Uctx.lseek fd_file (file_off s);
      ignore (Uctx.write fd_file (String.make (n * p.value_bytes) 'w'));
      incr flushes;
      sd.dirty <- [];
      (* store-wide flush counter under the robust meta mutex; lock
         order is always shard -> meta *)
      (match Mutex.enter_robust meta_mu with
      | `Locked -> ()
      | `Owner_dead ->
          (* a counter cannot tear; just take the repair credit *)
          incr recoveries;
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
        if sd.epoch_start <> sd.epoch_done then incr torn_repaired;
        flush_shard s sd;
        sd.epoch_done <- sd.epoch_start;
        incr recoveries;
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
      incr cache_hits;
      Uctx.charge_us 5;
      Rwlock.exit locks.(s)
    end
    else begin
      incr cache_misses;
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
    incr server_applied
  in
  (* frame dispatch: "G <key>" / "P <key> <n>" *)
  let handle req =
    match String.split_on_char ' ' (String.trim req) with
    | "G" :: key :: _ ->
        serve_get (int_of_string key);
        pad "val" reply_bytes
    | "P" :: key :: n :: _ ->
        serve_put (int_of_string key) (pad (Printf.sprintf "v%s.%s" key n)
                                         p.value_bytes);
        pad "ok" reply_bytes
    | _ -> pad "err" reply_bytes
  in
  let qmu = Mutex.create () in
  let qsem = Semaphore.create () in
  let workq = Queue.create () in
  let worker () =
    let rec serve_conn fd busy =
      let req =
        try Uctx.read_exact fd ~len:req_bytes
        with Errno.Unix_error ((Errno.ECONNRESET | Errno.EPIPE), _) -> ""
      in
      if String.length req < req_bytes then Uctx.close fd
      else begin
        Uctx.charge_us 3 (* parse *);
        let reply =
          if busy then begin
            Uctx.note_shed ();
            pad "busy" reply_bytes
          end
          else handle req
        in
        match Uctx.write_all fd reply with
        | () -> serve_conn fd busy
        | exception Errno.Unix_error ((Errno.ECONNRESET | Errno.EPIPE), _)
          ->
            Uctx.close fd
      end
    in
    let rec loop () =
      Semaphore.p qsem;
      Mutex.enter qmu;
      let job = Queue.pop workq in
      Mutex.exit qmu;
      match job with
      | Stop -> ()
      | Work fd ->
          serve_conn fd false;
          loop ()
      | Shed fd ->
          serve_conn fd true;
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
      let job =
        if Queue.length workq >= shed_queue_limit then Shed fd else Work fd
      in
      Queue.add job workq;
      Mutex.exit qmu;
      Semaphore.v qsem
    done;
    Mutex.enter qmu;
    for _ = 1 to p.workers_per_server do
      Queue.add Stop workq
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

exception Conn_dead

(* Reply read with a hard deadline (see Net_server): a client that waits
   forever on a killed server would turn one proc-kill into a hung
   fleet. *)
let deadline_read fd ~len ~deadline =
  let buf = Buffer.create len in
  let rec go () =
    if Buffer.length buf >= len then Buffer.contents buf
    else
      let now = Uctx.gettime () in
      if Time.(now >= deadline) then Buffer.contents buf
      else
        let ready =
          Uctx.poll
            ~timeout:(Time.diff deadline now)
            [ { Sysdefs.pfd = fd; want_in = true; want_out = false } ]
        in
        if ready = [] then Buffer.contents buf
        else
          match Uctx.try_read fd ~len:(len - Buffer.length buf) with
          | `Data s ->
              Buffer.add_string buf s;
              go ()
          | `Again -> go ()
          | `Eof -> Buffer.contents buf
          | `Reset -> raise (Errno.Unix_error (Errno.ECONNRESET, "read"))
  in
  go ()

type op = Get of int | Put of int

let loadgen p ~latency ~tallies ~gaveup_per () =
  let ( gets_ok,
        gets_shed,
        gets_aborted,
        puts_applied,
        puts_shed,
        puts_aborted,
        gaveup,
        refused ) =
    tallies
  in
  T.setconcurrency (max 1 p.clients);
  let one cid () =
    let rng =
      Rng.create ~seed:(Int64.add p.seed (Int64.of_int (7919 * cid)))
    in
    (* the op mix is drawn up front so an aborted remainder still knows
       what it was — conservation must classify never-sent requests *)
    let ops =
      Array.init p.requests_per_client (fun _ ->
          if Rng.int rng 100 < p.read_pct then Get (Rng.int rng p.keys)
          else Put (Rng.int rng p.keys))
    in
    let abort_from j =
      for r = j to p.requests_per_client - 1 do
        match ops.(r) with
        | Get _ -> incr gets_aborted
        | Put _ -> incr puts_aborted
      done
    in
    let target = (cid - 1) mod p.server_procs in
    let rec connect_bounded attempt =
      match Uctx.connect (svc target) with
      | fd -> Some fd
      | exception Errno.Unix_error (Errno.ECONNREFUSED, _) ->
          incr refused;
          if attempt >= connect_retry_limit then begin
            incr gaveup;
            gaveup_per.(target) <- gaveup_per.(target) + 1;
            None
          end
          else begin
            let backoff = retry_base_us * (1 lsl min attempt 6) in
            Uctx.sleep (Time.us (backoff + Rng.int rng retry_base_us));
            connect_bounded (attempt + 1)
          end
    in
    match connect_bounded 0 with
    | None -> abort_from 0
    | Some fd -> (
        let done_reqs = ref 0 in
        try
          Array.iteri
            (fun r op ->
              ignore r;
              if p.think_time_us > 0 then
                Uctx.sleep
                  (Time.us_f
                     (Rng.exponential rng
                        ~mean:(float_of_int p.think_time_us)));
              let frame =
                match op with
                | Get key -> pad (Printf.sprintf "G %d" key) req_bytes
                | Put key -> pad (Printf.sprintf "P %d %d" key r) req_bytes
              in
              let t0 = Uctx.gettime () in
              Uctx.write_all fd frame;
              let reply =
                deadline_read fd ~len:reply_bytes
                  ~deadline:(Time.add t0 (Time.us p.request_deadline_us))
              in
              if String.length reply < reply_bytes then raise Conn_dead;
              (if is_reply "busy" reply then
                 match op with
                 | Get _ -> incr gets_shed
                 | Put _ -> incr puts_shed
               else begin
                 Hist.add latency (Time.diff (Uctx.gettime ()) t0);
                 match op with
                 | Get _ -> incr gets_ok
                 | Put _ -> incr puts_applied
               end);
              incr done_reqs)
            ops;
          Uctx.close fd
        with
        | Conn_dead
        | Errno.Unix_error ((Errno.ECONNRESET | Errno.EPIPE), _)
        ->
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
        let rec drain attempt =
          if attempt < 25 then
            match Uctx.connect (svc i) with
            | fd -> Uctx.close fd
            | exception Errno.Unix_error (Errno.ECONNREFUSED, _) ->
                Uctx.sleep (Time.ms 2);
                drain (attempt + 1)
        in
        drain 0
      done)
    gaveup_per

(* --- the run ----------------------------------------------------------- *)

let run ?(cpus = 2) ?cost ?chaos ?(trace = false) ?debrief p =
  if p.server_procs < 1 || p.shards < 1 || p.clients < 1 then
    invalid_arg "Kv_store.run: params";
  let k = Kernel.boot ~cpus ?cost ?chaos () in
  if not trace then Kernel.set_tracing k false;
  (match Fs.create_file (Kernel.fs k) ~path:kv_path () with
  | Ok f ->
      ignore (Fs.write f ~pos:0 (String.make (p.shards * file_page) 'd'));
      (* start cold so get-misses pay the disk *)
      Shm.evict_all (Fs.segment f)
  | Error _ -> invalid_arg "Kv_store.run: setup failed");
  let latency = Hist.create "kv latency" in
  let gets_ok = ref 0 and gets_shed = ref 0 and gets_aborted = ref 0 in
  let puts_applied = ref 0 and puts_shed = ref 0 and puts_aborted = ref 0 in
  let gaveup = ref 0 and refused = ref 0 in
  let cache_hits = ref 0 and cache_misses = ref 0 in
  let flushes = ref 0 and recoveries = ref 0 and torn_repaired = ref 0 in
  let server_applied = ref 0 in
  let killed = ref 0 in
  let makespan = ref Time.zero in
  let finishing body () =
    body ();
    let t = Uctx.gettime () in
    if Time.(t > !makespan) then makespan := t
  in
  let gaveup_per = Array.make p.server_procs 0 in
  let assigned = Array.make p.server_procs 0 in
  for cid = 1 to p.clients do
    let t = (cid - 1) mod p.server_procs in
    assigned.(t) <- assigned.(t) + 1
  done;
  let counters =
    (cache_hits, cache_misses, flushes, recoveries, torn_repaired,
     server_applied)
  in
  let master () =
    let ctl = Uctx.mmap_anon ~size:(ctl_size p) ~shared:true in
    (* pre-create every lock word and record so the segment layout is
       fixed before any server races to look *)
    for s = 0 to p.shards - 1 do
      ignore
        (Rwlock.create_shared ~robust:p.robust
           (Syncvar.place ctl ~offset:(lock_off s)));
      ignore (shard_at ctl s)
    done;
    ignore
      (Mutex.create_shared ~robust:p.robust
         (Syncvar.place ctl ~offset:(meta_lock_off p)));
    ignore (meta_at p ctl);
    for i = 0 to p.server_procs - 1 do
      ignore
        (Uctx.fork1
           ~child_main:
             (Libthread.boot
                (finishing
                   (server p ctl ~idx:i ~assigned:(assigned.(i) + gaveup_per.(i))
                      ~counters))))
    done;
    (* reap the fleet; 137 = killed by chaos *)
    for _ = 1 to p.server_procs do
      let _, status = Uctx.waitpid () in
      if status = 137 then incr killed
    done;
    let t = Uctx.gettime () in
    if Time.(t > !makespan) then makespan := t
  in
  ignore (Kernel.spawn k ~name:"kv-master" ~main:master);
  let tallies =
    ( gets_ok,
      gets_shed,
      gets_aborted,
      puts_applied,
      puts_shed,
      puts_aborted,
      gaveup,
      refused )
  in
  ignore
    (Kernel.spawn k ~name:"kv-loadgen"
       ~main:
         (Libthread.boot
            (finishing (loadgen p ~latency ~tallies ~gaveup_per))));
  Kernel.run k;
  (match debrief with Some f -> f k | None -> ());
  let gets_issued = !gets_ok + !gets_shed + !gets_aborted in
  let puts_issued = !puts_applied + !puts_shed + !puts_aborted in
  ignore gets_issued;
  ignore puts_issued;
  (* issued counts are reconstructed from the pre-drawn mix: every op of
     every client is classified exactly once by construction; recompute
     them from the client parameters as the independent side of the
     conservation identity *)
  let total_issued = p.clients * p.requests_per_client in
  let served = !gets_ok + !puts_applied in
  {
    gets_ok = !gets_ok;
    gets_shed = !gets_shed;
    gets_aborted = !gets_aborted;
    gets_issued = total_issued - puts_issued;
    puts_applied = !puts_applied;
    puts_shed = !puts_shed;
    puts_aborted = !puts_aborted;
    puts_issued = total_issued - gets_issued;
    server_applied = !server_applied;
    recoveries = !recoveries;
    torn_repaired = !torn_repaired;
    flushes = !flushes;
    cache_hits = !cache_hits;
    cache_misses = !cache_misses;
    gaveup = !gaveup;
    refused = !refused;
    killed = !killed;
    makespan = !makespan;
    throughput_rps =
      (if Time.(!makespan > 0L) then
         float_of_int served /. Time.to_s !makespan
       else 0.);
    latency;
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
