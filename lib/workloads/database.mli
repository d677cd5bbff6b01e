(** The database workload from the paper's introduction and Figure 1: a
    file of records, each guarded by a mutual-exclusion lock {e stored in
    the record itself}; server processes map the file and their threads
    lock individual records to execute transactions.

    Exercises, in one scenario: synchronization variables in mapped files
    shared between processes, blocking file I/O that stalls only the
    issuing LWP, and many-threads-per-process concurrency. *)

type params = {
  processes : int;
  threads_per_process : int;
  records : int;
  transactions_per_thread : int;
  compute_us : int;  (** CPU work inside the critical section *)
  io_every : int;  (** every n-th transaction re-reads its record cold *)
  start_cold : bool;
      (** start with no record pages in the page cache (first touches go
          to disk); [false] pre-warms so only [io_every] evictions cost
          disk time *)
  mmap_io : bool;
      (** [false] (default): each transaction reads and writes its
          record with lseek/read/write system calls and is timed with
          gettime — the original, syscall-per-transaction shape.
          [true]: the Figure-1 literal shape — threads work on records
          {e through the mapping}, so a warm uncontended transaction is
          pure user-level work (lock, copy charges, compute, unlock);
          every [io_every]-th transaction evicts and faults its page
          back in and carries the (syscall-timed) latency sample. *)
  seed : int64;
}

val default_params : params

type results = {
  committed : int;
  makespan : Sunos_sim.Time.span;
  throughput_tps : float;  (** committed / simulated second *)
  latency : Sunos_sim.Stats.Hist.t;
  majflt : int;  (** cold-record disk reads across all processes *)
}

val run :
  ?cpus:int ->
  ?cost:Sunos_hw.Cost_model.t ->
  ?chaos:Sunos_sim.Faultgen.profile ->
  ?trace:bool ->
  ?debrief:(Sunos_kernel.Kernel.t -> unit) ->
  params ->
  results
(** [chaos], [trace] and [debrief] as in {!Net_server.run}.  The
    workload is chaos-hardened from below: every blocking {!Uctx}
    wrapper it relies on (read, write, kwait, park) retries injected
    EINTR, and the threads library replaces LWPs the injector kills and
    retries transient ENOMEM on LWP creation with capped backoff. *)

val pp_results : Format.formatter -> results -> unit
