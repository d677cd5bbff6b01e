(** Bootstrap of the threads library inside a simulated process.

    The kernel starts a process with one LWP running its main function
    (the paper: "it starts executing the thread compiled as the main
    program").  [boot main] turns that LWP into the first pool LWP and
    [main] into thread 1; if [main] returns, the process exits (C main
    semantics) — call {!Thread.exit} inside it to terminate only the
    main thread.

    Typical use:
    {[
      Kernel.spawn k ~name:"app" ~main:(Libthread.boot app_main)
    ]} *)

val boot :
  ?cost:Sunos_hw.Cost_model.t ->
  ?concurrency:int ->
  ?auto_grow:bool ->
  ?activations:bool ->
  (unit -> unit) ->
  unit ->
  unit
(** [cost] calibrates the library's charged path lengths (defaults to
    {!Sunos_hw.Cost_model.default}; benchmarks pass the machine's).
    [concurrency] pre-sizes the LWP pool (as thread_setconcurrency);
    [auto_grow] (default true) installs the SIGWAITING handler that adds
    an LWP when every LWP is blocked and runnable threads wait — the
    paper's deadlock-avoidance mechanism.  [activations] (default false)
    additionally enables scheduler-activations mode: the kernel hands
    the pool a running LWP on {e every} application block (the
    University of Washington comparison / "faster events" future
    work). *)

(** {1 Introspection (tests, benchmarks, debugger support)} *)

type stats = {
  creates_unbound : int;
  creates_bound : int;
  switches : int;  (** user-level thread context switches *)
  lwps_grown : int;  (** LWPs added by SIGWAITING *)
  pool_lwps : int;
  live_threads : int;
  runnable : int;
      (** run-queue entries, counting those of threads stopped while
          queued until a pick drops them *)
  stack_cache_hits : int;
  stack_cache_misses : int;
}

val stats : unit -> stats
(** Statistics of the calling thread's pool. *)

val threads_snapshot : unit -> (int * string) list
(** (tid, state) pairs — the library half of the paper's debugger story
    (the kernel half being /proc; see {!Sunos_kernel.Procfs}). *)
