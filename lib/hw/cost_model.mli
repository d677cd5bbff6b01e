(** The machine cost model: simulated duration of every architectural
    operation, calibrated to the paper's platform (SPARCstation 1+,
    25 MHz SPARC, SunOS prototype, 1991).

    The model is a plain record so experiments can perturb individual
    costs (e.g. "what if traps were free?") without touching code.  All
    values are {!Sunos_sim.Time.span}s.  Aggregate costs (thread creation,
    synchronization round trips) are {e not} in this table — they emerge
    from the simulation by summing the component paths, and the benchmark
    harness checks the emergent values against the paper's Figures 5/6. *)

type t = {
  (* --- user-level (library) path components ------------------------- *)
  call : Sunos_sim.Time.span;  (** procedure call + register shuffle *)
  tcb_alloc : Sunos_sim.Time.span;  (** TCB from the library free list *)
  tcb_init : Sunos_sim.Time.span;  (** fill thread state, link lists *)
  stack_cache_hit : Sunos_sim.Time.span;  (** pop a cached default stack *)
  stack_alloc_cold : Sunos_sim.Time.span;  (** heap-allocate + zero TLS *)
  tls_zero : Sunos_sim.Time.span;  (** zero thread-local storage *)
  runq_op : Sunos_sim.Time.span;  (** insert/remove on the user run queue *)
  setjmp_longjmp : Sunos_sim.Time.span;
      (** the Figure 6 baseline: register-window flush dominated *)
  user_ctx_save : Sunos_sim.Time.span;  (** save thread registers to TCB *)
  user_ctx_restore : Sunos_sim.Time.span;  (** load registers from TCB *)
  sync_fast : Sunos_sim.Time.span;  (** uncontended ldstub + few insns *)
  sync_slow_extra : Sunos_sim.Time.span;
      (** extra user-level bookkeeping on the contended path *)
  tls_access : Sunos_sim.Time.span;
  (* --- kernel path components --------------------------------------- *)
  trap_entry : Sunos_sim.Time.span;  (** user->kernel crossing *)
  trap_exit : Sunos_sim.Time.span;  (** kernel->user crossing *)
  syscall_fixed : Sunos_sim.Time.span;  (** argument copy, dispatch table *)
  kernel_dispatch : Sunos_sim.Time.span;  (** pick next LWP + switch *)
  sleep_enqueue : Sunos_sim.Time.span;  (** put LWP on a sleep queue *)
  wakeup : Sunos_sim.Time.span;  (** move LWP to a run queue *)
  lwp_create : Sunos_sim.Time.span;
      (** kernel stack + u-area allocation + scheduler insertion *)
  lwp_destroy : Sunos_sim.Time.span;
  fork_base : Sunos_sim.Time.span;  (** duplicate address space skeleton *)
  fork_per_lwp : Sunos_sim.Time.span;  (** replicate one LWP in the child *)
  exec_cost : Sunos_sim.Time.span;
  signal_post : Sunos_sim.Time.span;  (** mark pending, find eligible LWP *)
  signal_deliver : Sunos_sim.Time.span;  (** build handler frame *)
  kwait_fixed : Sunos_sim.Time.span;
      (** kernel block on a shared-memory sync variable (futex-style) *)
  kwake_fixed : Sunos_sim.Time.span;
  pagefault_service : Sunos_sim.Time.span;  (** minor fault: map a page *)
  pipe_op : Sunos_sim.Time.span;
  sock_listen : Sunos_sim.Time.span;
      (** allocate + register a listening endpoint (PCB setup) *)
  sock_connect : Sunos_sim.Time.span;
      (** client-side protocol processing for connection setup; the
          three-way-handshake wire time is charged separately through
          the net device's round trip *)
  sock_accept : Sunos_sim.Time.span;
      (** dequeue an established connection, allocate its fd state *)
  sock_op : Sunos_sim.Time.span;
      (** per-call protocol processing on an established stream
          (header handling, buffer bookkeeping); data copy is charged
          per KiB on top *)
  poll_fixed : Sunos_sim.Time.span;
  poll_per_fd : Sunos_sim.Time.span;
  fs_op : Sunos_sim.Time.span;  (** namei + inode manipulation *)
  copy_per_kb : Sunos_sim.Time.span;  (** kernel/user data copy, per KiB *)
  (* --- devices ------------------------------------------------------- *)
  disk_access : Sunos_sim.Time.span;  (** mean rotational + seek + transfer *)
  net_rtt : Sunos_sim.Time.span;  (** LAN round trip *)
  (* --- scheduler parameters ------------------------------------------ *)
  quantum : Sunos_sim.Time.span;  (** timeshare scheduling quantum *)
  clock_tick : Sunos_sim.Time.span;  (** 100 Hz clock *)
  adaptive_spin_limit : int;
      (** probes an adaptive mutex makes while the owner is on a CPU
          before it gives up and sleeps.  A count, not a duration —
          [scale] leaves it unchanged; ablations sweep it *)
  coalesce : bool;
      (** run-ahead charge coalescing (on by default): the kernel
          grants each resumed fiber a time budget bounded by the event
          queue's next pending event, and [Uctx.charge] accumulates
          spans in a user-context ledger instead of performing an
          effect per charge — one settle event per window.  Strictly
          behavior-preserving (see DESIGN.md); the toggle exists for
          the ablation and the A/B equivalence suite *)
}

val default : t
(** Calibrated to the paper's SPARCstation 1+.  See DESIGN.md. *)

val free : t
(** Everything costs zero — for semantic tests where time is noise. *)

val scale : float -> t -> t
(** Multiply every cost by a factor (device times and quantum included;
    [adaptive_spin_limit] is a count and is left unchanged). *)
