(** A sharded key-value store spread over forked server processes — the
    showcase workload for process-shared ([USYNC_PROCESS])
    synchronization.

    A master process creates one shared anonymous control segment and a
    mapped backing file, then forks [server_procs] servers that all map
    both.  Hash shards live in the control segment, each guarded by a
    {e robust process-shared rwlock} and carrying a small LRU cache over
    the backing file plus a dirty list that is write-batched to disk in
    one syscall per [batch] puts.  A separate load-generator process
    drives the servers through the socket layer with the hardened client
    protocol: bounded connect retries with exponential backoff,
    per-request deadlines, and abort-on-dead-connection.

    Under chaos [proc-kill] a server dies at a syscall boundary — often
    inside a shard critical section, since the batched flush issues its
    syscalls with the write lock held.  The robust-lock protocol marks
    the shard lock [OWNERDEAD]; the next acquirer (from any surviving
    server) is admitted as the writer, re-flushes the shard's dirty list
    (idempotent), reconciles the torn epoch, declares the lock
    consistent, and the store keeps serving.  Without [robust], the same
    kill leaves the shard lock held forever: contenders block, clients
    deadline out, and the run completes with the shard's traffic
    aborted — failed-safe, but dead.

    Conservation is classified client-side so it remains a checkable
    identity even when replies die with their server: every issued
    request ends up exactly one of served/applied, shed, or aborted
    (see {!puts_conserved} / {!gets_conserved}).  Servers separately
    count applied puts; under kills [server_applied] may exceed the
    client-acked [puts_applied] — reported, never silently lost. *)

type params = {
  server_procs : int;  (** forked server processes *)
  shards : int;  (** hash shards in the shared segment *)
  lwps_per_server : int;  (** LWP-pool hint per server *)
  workers_per_server : int;  (** worker threads per server *)
  clients : int;  (** client connections, round-robin over servers *)
  requests_per_client : int;
  read_pct : int;  (** 0..100: share of gets in the op mix *)
  keys : int;  (** key space (shard = key mod shards) *)
  value_bytes : int;
  lru_capacity : int;  (** cached values per shard *)
  batch : int;  (** dirty puts buffered before one batched write *)
  think_time_us : int;  (** mean client think time *)
  request_deadline_us : int;
  robust : bool;
      (** robust shard locks; required for recovery under proc-kill *)
  flush_under_write : bool;
      (** legacy flush placement: run the batched disk write with the
          shard {e write} lock held, so every get on the shard queues
          behind the flush and the tail latency carries the disk time.
          [false] (default): the writer downgrades to the read side
          before flushing — gets proceed during the disk write, writers
          stay excluded, and OWNERDEAD re-flush idempotence is
          untouched (the dirty list is cleared only after the write
          returns).  Kept for the bench tail-latency contrast. *)
  seed : int64;
}

val default_params : params

(** The run bumps its counters in place; callers only read them. *)
type results = private {
  mutable gets_ok : int;
  mutable gets_shed : int;
  mutable gets_aborted : int;
  mutable gets_issued : int;  (** gets in the clients' drawn op mix *)
  mutable puts_applied : int;  (** puts acked to a client *)
  mutable puts_shed : int;
  mutable puts_aborted : int;
  mutable puts_issued : int;  (** puts in the clients' drawn op mix *)
  mutable server_applied : int;
      (** puts the servers applied (ack may have died) *)
  mutable recoveries : int;  (** [OWNERDEAD] repairs performed *)
  mutable torn_repaired : int;  (** repairs that found a torn shard epoch *)
  mutable flushes : int;  (** batched writes to the backing file *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable gaveup : int;
  mutable refused : int;
  mutable killed : int;  (** servers lost to chaos proc-kill *)
  makespan : Sunos_sim.Time.span;
  throughput_rps : float;
  latency : Sunos_sim.Stats.Hist.t;  (** client round trip, non-shed *)
  lwps_created : int;
  syscalls : int;
}

val puts_conserved : results -> bool
(** [puts_applied + puts_shed + puts_aborted = puts_issued]. *)

val gets_conserved : results -> bool

val run :
  ?cpus:int ->
  ?cost:Sunos_hw.Cost_model.t ->
  ?chaos:Sunos_sim.Faultgen.profile ->
  ?trace:bool ->
  ?debrief:(Sunos_kernel.Kernel.t -> unit) ->
  params ->
  results
(** [chaos], [trace] and [debrief] as in {!Net_server.run}. *)

val pp_results : Format.formatter -> results -> unit
