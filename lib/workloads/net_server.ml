module Time = Sunos_sim.Time
module Histo = Sunos_sim.Histogram
module Rng = Sunos_sim.Rng
module Shm = Sunos_hw.Shared_memory
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Errno = Sunos_kernel.Errno
module Sysdefs = Sunos_kernel.Sysdefs
module Procfs = Sunos_kernel.Procfs
module Fs = Sunos_kernel.Fs

type params = {
  connections : int;
  requests_per_conn : int;
  parse_compute_us : int;
  reply_compute_us : int;
  think_time_us : int;
  connect_stagger_us : int;
  compute_steps : int;
  disk_every : int;
  workers : int;
  concurrency : int;
  client_concurrency : int;
  listen_backlog : int;
  connect_retry_limit : int;
  retry_base_us : int;
  request_deadline_us : int;
  shed_queue_limit : int;
  epoll : bool;
  pollers : int;
  open_loop : bool;
  arrival_rate_rps : float;
  max_pending : int;
  drain_grace_us : int;
  connectors : int;
  seed : int64;
}

let default_params =
  {
    connections = 40;
    requests_per_conn = 3;
    parse_compute_us = 150;
    reply_compute_us = 100;
    think_time_us = 2_000;
    connect_stagger_us = 0;
    compute_steps = 1;
    disk_every = 4;
    workers = 8;
    concurrency = 4;
    client_concurrency = 0;
    listen_backlog = 16;
    connect_retry_limit = 0;
    retry_base_us = 500;
    request_deadline_us = 0;
    shed_queue_limit = 0;
    epoll = false;
    pollers = 1;
    open_loop = false;
    arrival_rate_rps = 0.;
    max_pending = 4;
    drain_grace_us = 200_000;
    connectors = 4;
    seed = 31L;
  }

(* Every request and every reply is one fixed-size frame. *)
let request_bytes = 64
let reply_bytes = 512

(* A run's counters live in its results, bumped by the server and
   load-generator processes (they share one OCaml heap). *)
type results = {
  issued : int;
  mutable served : int;
  mutable shed : int;
  mutable aborted : int;
  mutable gaveup : int;
  mutable refused : int;
  mutable max_concurrent : int;
  latency : Histo.t;
  makespan : Time.span;
  throughput_rps : float;
  lwps_created : int;
  syscalls : int;
  mutable epoll_stats : Procfs.epoll_info list;
}

let note_conns r n = if n > r.max_concurrent then r.max_concurrent <- n

let data_path = "/srv/data"
let service_name = "svc"

(* epoll_wait / dispatch batch size: bounds the per-wakeup work on both
   sides to O(min(ready, batch)), never O(connections) *)
let poll_batch = 64

(* replies are constant: build each once, not per request *)
let reply_done = Wire.pad "done" reply_bytes
let reply_busy = Wire.pad "busy" reply_bytes

(* Compute granularity: [compute_steps] = 1 charges each compute phase
   as one span (the original behavior).  > 1 models a tokenizing
   parser: per-chunk charges interleaved with a shared request-stats
   counter bumped under a process mutex — the paper's cheap uncontended
   user-level sync in its natural habitat.  The mutex only exists (and
   the total span is only split) when requested, so default runs are
   charge-for-charge identical. *)
let compute_phase (module M : Sunos_baselines.Model.S) p =
  if p.compute_steps <= 1 then Uctx.charge_us
  else begin
    let smu = M.Mu.create () in
    let stats_ops = ref 0 in
    fun us ->
      let steps = p.compute_steps in
      let chunk = us / steps in
      for i = 1 to steps do
        M.Mu.lock smu;
        incr stats_ops;
        M.Mu.unlock smu;
        Uctx.charge_us
          (if i = steps then us - (chunk * (steps - 1)) else chunk)
      done
  end

(* One request's server-side work: parse CPU, a file read (cold every
   [disk_every]-th request: the page is evicted so the disk path is
   real), reply CPU.  A shed request gets none of it, only a cheap
   "busy" recorded where /proc can see it — rejection must cost less
   than service or shedding cannot shed load. *)
let answer p ~compute ~file ~data_fd nreq ~shed =
  if shed then begin
    Uctx.note_shed ();
    reply_busy
  end
  else begin
    compute p.parse_compute_us;
    incr nreq;
    let off = !nreq * 512 mod 65536 in
    if p.disk_every > 0 && !nreq mod p.disk_every = 0 then
      Shm.evict (Fs.segment file) ~page:(Shm.page_of_offset ~offset:off);
    Uctx.lseek data_fd off;
    ignore (Uctx.read data_fd ~len:512);
    compute p.reply_compute_us;
    reply_done
  end

(* The legacy server process: an acceptor thread feeds connections into
   a polled set; a poller thread multiplexes the idle connections (plus
   a self-pipe so workers can kick it) and dispatches readable ones to a
   fixed worker pool through a mutex-protected queue.  One request in
   flight per connection: a dispatched fd leaves the polled set until
   its worker has written the reply.  Every wakeup rebuilds and rescans
   the whole polled set — O(connections) per event, which is what the
   epoll server below exists to avoid. *)
let server (module M : Sunos_baselines.Model.S) p ~file r () =
  M.set_concurrency p.concurrency;
  let lfd = Uctx.listen ~name:service_name ~backlog:p.listen_backlog in
  let self_r, self_w = Uctx.pipe () in
  let data_fd = Uctx.open_file data_path in
  let mu = M.Mu.create () in
  let compute = compute_phase (module M) p in
  let qsem = M.Sem.create 0 in
  let asem = M.Sem.create 0 in
  let workq : Wire.job Queue.t = Queue.create () in
  let polled : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let active = ref 0 and closed = ref 0 in
  let accepting = ref true in
  let accept_inflight = ref false in
  let wake_pending = ref false in
  (* Wake the poller at most once per poll cycle: set the dedup flag
     under the lock, write the self-pipe byte outside it. *)
  let signal_change mutate =
    M.Mu.lock mu;
    mutate ();
    let need_byte = not !wake_pending in
    wake_pending := true;
    M.Mu.unlock mu;
    if need_byte then ignore (Uctx.write self_w "!")
  in
  (* The acceptor never enters a blocking kernel accept: the poller
     watches the listening fd and posts [asem] when a connection is
     pending, and each credit is drained with non-blocking accepts until
     the backlog is empty.  Draining matters at scale — poll is O(fds),
     so at a thousand connections one readiness round trip per accept
     would cap the accept rate far below the arrival rate. *)
  let acceptor () =
    let taken = ref 0 in
    while !taken < p.connections do
      M.Sem.p asem;
      let rec drain () =
        if !taken < p.connections then
          match Uctx.accept_nb lfd with
          | `Conn fd ->
              incr taken;
              let last = !taken = p.connections in
              signal_change (fun () ->
                  if last then accepting := false;
                  incr active;
                  note_conns r !active;
                  Hashtbl.replace polled fd ());
              drain ()
          | `Again -> ()
          | `Aborted ->
              (* listener torn down under us: no more connections will
                 ever arrive, stop asking *)
              taken := p.connections
      in
      drain ();
      signal_change (fun () -> accept_inflight := false)
    done;
    Uctx.close lfd
  in
  let nreq = ref 0 in
  let worker () =
    (* a connection that died under us (client gone, mid-stream reset)
       is retired exactly like an orderly close: the other connections'
       service must not depend on this one's fate *)
    let retire fd =
      Uctx.close fd;
      signal_change (fun () ->
          decr active;
          incr closed)
    in
    let rec loop () =
      M.Sem.p qsem;
      M.Mu.lock mu;
      let job = Queue.pop workq in
      M.Mu.unlock mu;
      match job with
      | Wire.Stop -> ()
      | Wire.Work { fd; shed } ->
          (try
             let first = Uctx.read fd ~len:request_bytes in
             if first = "" then retire fd (* client closed *)
             else begin
               Wire.finish_frame fd first ~len:request_bytes;
               Uctx.write_all fd (answer p ~compute ~file ~data_fd nreq ~shed);
               signal_change (fun () -> Hashtbl.replace polled fd ())
             end
           with e when Wire.conn_dead e -> retire fd);
          loop ()
    in
    loop ()
  in
  let poller () =
    let rec loop () =
      M.Mu.lock mu;
      wake_pending := false;
      let base =
        (* watch the listening fd while the acceptor is idle and still
           has connections to take; an un-polled listening fd would
           strand pending connections on a single-LWP server *)
        if !accepting && not !accept_inflight then
          [
            { Sysdefs.pfd = self_r; want_in = true; want_out = false };
            { Sysdefs.pfd = lfd; want_in = true; want_out = false };
          ]
        else [ { Sysdefs.pfd = self_r; want_in = true; want_out = false } ]
      in
      let fds =
        Hashtbl.fold
          (fun fd () acc ->
            { Sysdefs.pfd = fd; want_in = true; want_out = false } :: acc)
          polled base
      in
      let finished = !closed = p.connections in
      M.Mu.unlock mu;
      if not finished then begin
        let ready = Uctx.poll fds in
        if List.mem self_r ready then ignore (Uctx.read self_r ~len:4096);
        M.Mu.lock mu;
        let do_accept =
          !accepting && (not !accept_inflight) && List.mem lfd ready
        in
        if do_accept then accept_inflight := true;
        let dispatched =
          List.filter (fun fd -> fd <> self_r && Hashtbl.mem polled fd) ready
        in
        List.iter
          (fun fd ->
            Hashtbl.remove polled fd;
            (* load shedding decides at dispatch time: a queue already
               [shed_queue_limit] deep means the workers are behind by a
               full burst — adding real work would only grow the backlog
               the clients are already timing out on *)
            let shed =
              p.shed_queue_limit > 0
              && Queue.length workq >= p.shed_queue_limit
            in
            Queue.add (Wire.Work { fd; shed }) workq)
          dispatched;
        M.Mu.unlock mu;
        if do_accept then M.Sem.v asem;
        List.iter (fun _ -> M.Sem.v qsem) dispatched;
        (* let the workers drain before re-polling — on a single-LWP
           model the poll below would otherwise block the whole process
           while work sits in the queue *)
        M.yield ();
        loop ()
      end
    in
    loop ();
    M.Mu.lock mu;
    for _ = 1 to p.workers do
      Queue.add Wire.Stop workq
    done;
    M.Mu.unlock mu;
    for _ = 1 to p.workers do
      M.Sem.v qsem
    done;
    Uctx.close self_r;
    Uctx.close self_w
  in
  let threads =
    M.spawn acceptor :: M.spawn poller
    :: List.init p.workers (fun _ -> M.spawn worker)
  in
  List.iter M.join threads

(* --- the C100k epoll server ------------------------------------------- *)

(* Sharded, edge-triggered server: [pollers] shards, each owning its own
   epoll instance, self-pipe and preallocated integer work ring, with a
   private slice of the worker pool.  There is no central lock and no
   per-wakeup O(connections) scan: readiness arrives as edges pushed by
   the kernel at state transitions, epoll_wait returns only ready fds,
   and per-connection state is a ONESHOT interest entry plus the ring
   slot — no closures, thread stacks or lists per connection.

   Dispatch protocol: every shard registers the listening fd in its
   epoll (a shared-backlog accept spreads connections across shards);
   accepted fds join the accepting shard with a ONESHOT interest.  The
   poller encodes jobs as ints in the ring — [fd+1] serve, [-(fd+1)]
   shed, [0] stop — so dispatch allocates nothing.  A worker drains the
   connection to EAGAIN (serving every complete frame behind one edge),
   then re-arms with epoll_mod; the kernel re-checks readiness at re-arm
   time, so a frame that landed while the entry was disarmed is never
   lost.  Global accounting (accepted/closed) is touched once per
   connection lifetime, never per event. *)

let server_epoll (module M : Sunos_baselines.Model.S) k p ~file r () =
  M.set_concurrency p.concurrency;
  let shards = max 1 p.pollers in
  let wps = max 1 (p.workers / shards) in
  let lfd = Uctx.listen ~name:service_name ~backlog:p.listen_backlog in
  let data_fd = Uctx.open_file data_path in
  let compute = compute_phase (module M) p in
  (* global accounting: one lock, touched at accept and retire only *)
  let gmu = M.Mu.create () in
  let taken = ref 0 and closed = ref 0 in
  let accepting = ref true in
  let all_done = ref false in
  if p.connections = 0 then begin
    accepting := false;
    all_done := true
  end;
  (* per-shard machinery *)
  let ring_cap = p.connections + wps + 4 in
  let rings = Array.init shards (fun _ -> Array.make ring_cap 0) in
  let heads = Array.make shards 0 in
  let tails = Array.make shards 0 in
  let mus = Array.init shards (fun _ -> M.Mu.create ()) in
  let qsems = Array.init shards (fun _ -> M.Sem.create 0) in
  let sh = Wire.open_shards ~also:lfd shards in
  let finish_check () =
    M.Mu.lock gmu;
    let fin =
      (not !accepting) && !closed >= p.connections && not !all_done
    in
    if fin then all_done := true;
    M.Mu.unlock gmu;
    if fin then Wire.kick_all sh
  in
  let tolerant_del s fd =
    try Uctx.epoll_del (Wire.ep sh s) fd
    with Errno.Unix_error ((Errno.ENOENT | Errno.EBADF), _) -> ()
  in
  let retire s fd =
    tolerant_del s fd;
    Uctx.close fd;
    M.Mu.lock gmu;
    incr closed;
    M.Mu.unlock gmu;
    finish_check ()
  in
  let worker s () =
    let rearm fd =
      try Uctx.epoll_mod (Wire.ep sh s) fd ~want_in:true ~oneshot:true ()
      with Errno.Unix_error ((Errno.ENOENT | Errno.EBADF), _) -> ()
    in
    (* per-worker request counter: the disk cadence needs no shared
       state on the hot path *)
    let nreq = ref 0 in
    (* edge-triggered contract: drain every complete frame behind this
       edge, then re-arm.  Spurious readiness (chaos EAGAIN, a stale
       edge) simply re-arms. *)
    let rec frames fd ~shed =
      match Uctx.try_read fd ~len:request_bytes with
      | `Again -> rearm fd
      | `Eof | `Reset -> retire s fd
      | `Data first ->
          Wire.finish_frame fd first ~len:request_bytes;
          Uctx.write_all fd (answer p ~compute ~file ~data_fd nreq ~shed);
          frames fd ~shed
    in
    let rec loop () =
      M.Sem.p qsems.(s);
      M.Mu.lock mus.(s);
      let v = rings.(s).(heads.(s) mod ring_cap) in
      heads.(s) <- heads.(s) + 1;
      M.Mu.unlock mus.(s);
      if v <> 0 then begin
        let fd = abs v - 1 in
        (try frames fd ~shed:(v < 0)
         with e when Wire.conn_dead e -> retire s fd);
        loop ()
      end
    in
    loop ()
  in
  let poller s () =
    let accepting_here = ref true in
    let accept_drain () =
      let continue = ref true in
      while !continue do
        match Uctx.accept_nb lfd with
        | `Conn fd ->
            Uctx.epoll_add (Wire.ep sh s) fd ~want_in:true ~oneshot:true ();
            M.Mu.lock gmu;
            incr taken;
            let last = !taken >= p.connections in
            if last then accepting := false;
            let act = !taken - !closed in
            M.Mu.unlock gmu;
            note_conns r act;
            if last then begin
              accepting_here := false;
              (* the shard that takes the last slot closes the listener;
                 the other shards observe EBADF/`Aborted and stand down,
                 and their stale interest entries are collected by the
                 kernel at the next epoll_wait *)
              (try Uctx.close lfd
               with Errno.Unix_error (Errno.EBADF, _) -> ());
              continue := false
            end
        | `Again -> continue := false
        | `Aborted ->
            accepting_here := false;
            continue := false
        | exception Errno.Unix_error (Errno.EBADF, _) ->
            accepting_here := false;
            continue := false
      done
    in
    let rec ploop () =
      if not !all_done then begin
        let ready = Uctx.epoll_wait (Wire.ep sh s) ~max_events:poll_batch in
        let dispatched = ref 0 in
        List.iter
          (fun fd ->
            if fd = lfd then begin
              if !accepting_here then accept_drain ()
            end
            else if not (Wire.take_kick sh s fd) then begin
              M.Mu.lock mus.(s);
              let depth = tails.(s) - heads.(s) in
              let v =
                if p.shed_queue_limit > 0 && depth >= p.shed_queue_limit
                then -(fd + 1)
                else fd + 1
              in
              rings.(s).(tails.(s) mod ring_cap) <- v;
              tails.(s) <- tails.(s) + 1;
              M.Mu.unlock mus.(s);
              incr dispatched
            end)
          ready;
        for _ = 1 to !dispatched do
          M.Sem.v qsems.(s)
        done;
        M.yield ();
        ploop ()
      end
    in
    ploop ();
    M.Mu.lock mus.(s);
    for _ = 1 to wps do
      rings.(s).(tails.(s) mod ring_cap) <- 0;
      tails.(s) <- tails.(s) + 1
    done;
    M.Mu.unlock mus.(s);
    for _ = 1 to wps do
      M.Sem.v qsems.(s)
    done
  in
  let pollers_t = List.init shards (fun s -> M.spawn (poller s)) in
  let workers_t =
    List.concat
      (List.init shards (fun s ->
           List.init wps (fun _ -> M.spawn (worker s))))
  in
  List.iter M.join pollers_t;
  List.iter M.join workers_t;
  r.epoll_stats <- r.epoll_stats @ Wire.close_shards k sh

(* A connection the way [p] asks for one: the bounded backoff when
   [connect_retry_limit > 0], else the legacy SYN retransmit — a fixed
   2 ms pause, retried until admitted.  Either way the arrival process
   adapts to the server exactly the way a real client's does. *)
let connect p r ~rng =
  let refused () = r.refused <- r.refused + 1 in
  if p.connect_retry_limit > 0 then
    Wire.connect_backoff ~rng ~limit:p.connect_retry_limit
      ~base_us:p.retry_base_us ~refused service_name
  else Wire.connect_retry ~refused service_name

(* Abandoned slots would strand the server: its accept loop expects
   [connections] arrivals.  Drain them with bare connect/close pairs
   (unbounded retry — the load is gone, admission is a matter of time)
   so the server observes every slot and can terminate. *)
let drain_gaveup r =
  for _ = 1 to r.gaveup do
    Option.iter Uctx.close
      (Wire.connect_retry
         ~refused:(fun () -> r.refused <- r.refused + 1)
         service_name)
  done

(* The closed-loop load generator: one client thread per connection,
   each running a synchronous request/reply loop with exponential think
   time.  A reply past [request_deadline_us] (when set), a short reply
   and a dead connection abort the connection's remaining requests
   instead of hanging the thread. *)
let client (module M : Sunos_baselines.Model.S) p r () =
  (* every client thread holds an LWP while it sleeps or awaits a reply,
     so modelling [connections] independent clients needs a pool that
     size — otherwise the load generator, not the server, is the
     bottleneck *)
  M.set_concurrency
    (if p.client_concurrency > 0 then p.client_concurrency
     else p.concurrency);
  let one cid () =
    let rng =
      Rng.create ~seed:(Int64.add p.seed (Int64.of_int (7919 * cid)))
    in
    (* arrival ramp: spreading connects keeps the backlog (and the
       retry traffic) from swamping admission at time zero *)
    if p.connect_stagger_us > 0 then
      Uctx.sleep (Time.us (p.connect_stagger_us * (cid - 1)));
    match connect p r ~rng with
    | None ->
        (* never admitted: every request of this connection is abandoned *)
        r.gaveup <- r.gaveup + 1;
        r.aborted <- r.aborted + p.requests_per_conn
    | Some fd -> (
        let done_reqs = ref 0 in
        try
          for i = 1 to p.requests_per_conn do
            if p.think_time_us > 0 then
              Uctx.sleep
                (Time.us_f
                   (Rng.exponential rng
                      ~mean:(float_of_int p.think_time_us)));
            let t0 = Uctx.gettime () in
            Uctx.write_all fd
              (Wire.pad (Printf.sprintf "r%d.%d" cid i) request_bytes);
            let reply =
              Wire.read_reply fd ~len:reply_bytes ~t0
                ~deadline_us:p.request_deadline_us
            in
            if Wire.is_busy reply then r.shed <- r.shed + 1
            else begin
              Histo.add r.latency (Time.diff (Uctx.gettime ()) t0);
              r.served <- r.served + 1
            end;
            incr done_reqs
          done;
          Uctx.close fd
        with e when Wire.conn_dead e ->
          r.aborted <- r.aborted + (p.requests_per_conn - !done_reqs);
          Uctx.close fd)
  in
  let ts = List.init p.connections (fun cid -> M.spawn (one (cid + 1))) in
  List.iter M.join ts;
  drain_gaveup r

(* --- the open-loop load generator ------------------------------------- *)

(* Poisson arrivals at a fixed offered rate, independent of server
   progress — the closed-loop generator above slows down with the server
   (coordinated omission) and so cannot show a latency knee.  One sender
   thread draws inter-arrival gaps from a salted exponential stream and
   stamps each request onto a connection with a free pipeline slot;
   [pollers] reader shards collect replies through client-side epoll.
   Connection state is compact parallel arrays — a timestamp ring of
   [max_pending] slots, a have-bytes counter and a head-byte class per
   connection; no thread, closure or list per connection.

   Accounting: issued = connections * requests_per_conn arrivals, each
   of which ends served (reply "done"), shed (reply "busy"), or aborted
   (no free slot at arrival, write to a dead connection, reset/EOF with
   replies outstanding, or still unanswered when the post-send drain
   grace expires).  served + shed + aborted = issued, always. *)
let client_open_loop (module M : Sunos_baselines.Model.S) k p r () =
  let shards = max 1 p.pollers in
  let connectors = max 1 p.connectors in
  M.set_concurrency
    (if p.client_concurrency > 0 then p.client_concurrency
     else shards + connectors + 2);
  let n = p.connections in
  let cap = max 1 p.max_pending in
  let fds = Array.make (max 1 n) (-1) in
  let alive = Array.make (max 1 n) false in
  let sent = Array.make (max 1 (n * cap)) Time.zero in
  let rhead = Array.make (max 1 n) 0 in
  let npend = Array.make (max 1 n) 0 in
  let have = Array.make (max 1 n) 0 in
  let busy = Array.make (max 1 n) false in
  let pending = Array.make shards 0 in
  let sending_done = ref false in
  let drain_over = ref false in
  let sh = Wire.open_shards shards in
  let fdmap = Array.init shards (fun _ -> Hashtbl.create 64) in
  (* connection establishment, striped across [connectors] threads;
     the stagger ramp is honored per slot index *)
  let connector j () =
    let rng =
      Rng.create ~seed:(Int64.add p.seed (Int64.of_int (104729 + j)))
    in
    let i = ref j in
    while !i < n do
      let idx = !i in
      if p.connect_stagger_us > 0 then begin
        let target =
          Time.add Time.zero (Time.us (p.connect_stagger_us * idx))
        in
        let now = Uctx.gettime () in
        if Time.(target > now) then Uctx.sleep (Time.diff target now)
      end;
      (match connect p r ~rng with
      | None -> r.gaveup <- r.gaveup + 1
      | Some fd ->
          let s = idx mod shards in
          fds.(idx) <- fd;
          alive.(idx) <- true;
          Hashtbl.replace fdmap.(s) fd idx;
          Uctx.epoll_add (Wire.ep sh s) fd ~want_in:true ());
      i := !i + connectors
    done
  in
  let shard_hist =
    Array.init shards (fun s ->
        Histo.create (Printf.sprintf "latency-shard%d" s))
  in
  let reader s () =
    (* byte-counting frame reassembly: a chunk may span replies; the
       first byte of each frame classifies it ('b' = busy) *)
    let consume i chunk =
      let len = String.length chunk in
      let off = ref 0 in
      while !off < len do
        if have.(i) = 0 then busy.(i) <- chunk.[!off] = 'b';
        let need = reply_bytes - have.(i) in
        let take = min need (len - !off) in
        have.(i) <- have.(i) + take;
        off := !off + take;
        if have.(i) = reply_bytes then begin
          have.(i) <- 0;
          if npend.(i) > 0 then begin
            let t0 = sent.((i * cap) + rhead.(i)) in
            rhead.(i) <- (rhead.(i) + 1) mod cap;
            npend.(i) <- npend.(i) - 1;
            pending.(s) <- pending.(s) - 1;
            if busy.(i) then r.shed <- r.shed + 1
            else begin
              Histo.add shard_hist.(s) (Time.diff (Uctx.gettime ()) t0);
              r.served <- r.served + 1
            end
          end
        end
      done
    in
    let kill_conn i =
      if alive.(i) then begin
        alive.(i) <- false;
        Hashtbl.remove fdmap.(s) fds.(i);
        r.aborted <- r.aborted + npend.(i);
        pending.(s) <- pending.(s) - npend.(i);
        npend.(i) <- 0;
        have.(i) <- 0;
        try Uctx.close fds.(i)
        with Errno.Unix_error (Errno.EBADF, _) -> ()
      end
    in
    let drain_conn i =
      let continue = ref true in
      while !continue && alive.(i) do
        match Uctx.try_read fds.(i) ~len:8192 with
        | `Data chunk -> consume i chunk
        | `Again -> continue := false
        | `Eof | `Reset -> kill_conn i
      done
    in
    let finished = ref false in
    while not !finished do
      let ready = Uctx.epoll_wait (Wire.ep sh s) ~max_events:poll_batch in
      List.iter
        (fun fd ->
          if not (Wire.take_kick sh s fd) then
            match Hashtbl.find_opt fdmap.(s) fd with
            | Some i -> drain_conn i
            | None -> ())
        ready;
      if !drain_over || (!sending_done && pending.(s) = 0) then begin
        (* every reply is in, or the grace expired and whatever is still
           outstanding is lost *)
        for i = 0 to n - 1 do
          if i mod shards = s then kill_conn i
        done;
        finished := true
      end
    done
  in
  let sender () =
    let rng = Rng.create ~seed:(Int64.add p.seed 15485863L) in
    let total = n * p.requests_per_conn in
    let mean_us =
      if p.arrival_rate_rps > 0. then 1e6 /. p.arrival_rate_rps
      else
        (* default offered load: what [connections] closed-loop clients
           with this think time would present to an infinitely fast
           server *)
        float_of_int p.think_time_us /. float_of_int (max 1 n)
    in
    (* request content is never parsed, only counted: one constant frame *)
    let frame = Wire.pad "r" request_bytes in
    let rr = ref 0 in
    (* arrivals live on an absolute schedule: the next arrival time
       advances by an exponential gap independent of how long the
       previous send took.  The sender sleeps only when it is ahead of
       the schedule — when it is behind (each sleep/wake cycle has a
       scheduling cost far above a sub-millisecond gap) it sends the
       overdue arrivals back to back.  Sleeping per arrival would
       silently cap the offered rate at the scheduler's wakeup rate,
       which is coordinated omission all over again. *)
    let next_arrival = ref (Uctx.gettime ()) in
    for _ = 1 to total do
      let d = Rng.exponential rng ~mean:mean_us in
      next_arrival := Time.add !next_arrival (Time.us_f d);
      let now = Uctx.gettime () in
      if Time.(!next_arrival > now) then
        Uctx.sleep (Time.diff !next_arrival now);
      (* round-robin probe for a connection with a free pipeline slot;
         an arrival that finds none is shed at the client — in an open
         system load does not wait for capacity *)
      let placed = ref false in
      let tries = ref 0 in
      while (not !placed) && !tries < n do
        let i = !rr in
        rr := (!rr + 1) mod n;
        incr tries;
        if alive.(i) && npend.(i) < cap then begin
          let t0 = Uctx.gettime () in
          match Uctx.write_all fds.(i) frame with
          | () ->
              sent.((i * cap) + ((rhead.(i) + npend.(i)) mod cap)) <- t0;
              npend.(i) <- npend.(i) + 1;
              pending.(i mod shards) <- pending.(i mod shards) + 1;
              placed := true
          | exception
              Errno.Unix_error
                ((Errno.ECONNRESET | Errno.EPIPE | Errno.EBADF), _) ->
              (* the connection died under the write (the reader may
                 even have closed it while we blocked): the arrival
                 happened and was lost *)
              r.aborted <- r.aborted + 1;
              placed := true
        end
      done;
      if not !placed then r.aborted <- r.aborted + 1
    done;
    sending_done := true;
    Wire.kick_all sh;
    let deadline =
      Time.add (Uctx.gettime ()) (Time.us (max 0 p.drain_grace_us))
    in
    let total_pending () = Array.fold_left ( + ) 0 pending in
    while total_pending () > 0 && Time.(Uctx.gettime () < deadline) do
      Uctx.sleep (Time.ms 1)
    done;
    drain_over := true;
    Wire.kick_all sh
  in
  let readers_t = List.init shards (fun s -> M.spawn (reader s)) in
  let conns_t = List.init connectors (fun j -> M.spawn (connector j)) in
  List.iter M.join conns_t;
  sender ();
  List.iter M.join readers_t;
  r.epoll_stats <- r.epoll_stats @ Wire.close_shards k sh;
  Array.iter (fun h -> Histo.merge ~into:r.latency h) shard_hist;
  drain_gaveup r

let run (module M : Sunos_baselines.Model.S) ?(cpus = 1) ?cost ?chaos
    ?(trace = false) ?debrief p =
  let k = Kernel.boot ~cpus ?cost ?chaos () in
  if not trace then Kernel.set_tracing k false;
  let file = Wire.cold_file k ~path:data_path ~size:65536 in
  let r =
    {
      issued = p.connections * p.requests_per_conn;
      served = 0; shed = 0; aborted = 0; gaveup = 0; refused = 0;
      max_concurrent = 0; latency = Histo.create "request latency";
      makespan = Time.zero; throughput_rps = 0.; lwps_created = 0;
      syscalls = 0; epoll_stats = [];
    }
  in
  let makespan = ref Time.zero in
  let server_fn =
    if p.epoll then server_epoll (module M) k p ~file r
    else server (module M) p ~file r
  in
  let client_fn =
    if p.open_loop then client_open_loop (module M) k p r
    else client (module M) p r
  in
  ignore
    (Kernel.spawn k ~name:"net-server"
       ~main:(M.boot ?cost (Wire.finishing makespan server_fn)));
  ignore
    (Kernel.spawn k ~name:"loadgen"
       ~main:(M.boot ?cost (Wire.finishing makespan client_fn)));
  Kernel.run k;
  (* [debrief] runs against the still-live kernel: determinism tests read
     counters and the trace ring before the results are boxed up *)
  (match debrief with Some f -> f k | None -> ());
  {
    r with
    makespan = !makespan;
    throughput_rps = Wire.per_second r.served !makespan;
    lwps_created = Kernel.lwp_create_count k;
    syscalls = Kernel.syscall_count k;
  }

let pp_results ppf r =
  Format.fprintf ppf
    "served=%d refused=%d peak_conns=%d makespan=%a throughput=%.0f req/s \
     lwps=%d latency: %a"
    r.served r.refused r.max_concurrent Time.pp r.makespan r.throughput_rps
    r.lwps_created Histo.pp_summary r.latency;
  if r.shed > 0 || r.aborted > 0 || r.gaveup > 0 then
    Format.fprintf ppf " shed=%d aborted=%d gaveup=%d" r.shed r.aborted
      r.gaveup;
  if r.epoll_stats <> [] then begin
    Format.fprintf ppf "@.";
    List.iter
      (fun ei -> Format.fprintf ppf "  %a" Procfs.pp_epoll ei)
      r.epoll_stats
  end
