(** System-call request and result types.

    These are the wire format between user code (fibers) and the kernel:
    a fiber performs [Uctx.Sys req] and receives a {!sysret}.  Typed
    wrappers in {!Uctx} hide the variant plumbing from applications. *)

type fd = int

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC

type disposition =
  | Sig_default
  | Sig_ignore
  | Sig_handler of (Signo.t -> unit)
      (** Handlers are closures run in the receiving thread's context;
          they may perform charges and system calls. *)

type which_timer = Timer_real | Timer_virtual | Timer_prof

type sched_class_req =
  | Cls_timeshare
  | Cls_realtime of int  (** fixed priority, 0..59 *)
  | Cls_gang of int  (** gang group id; members dispatch together *)

type poll_fd = { pfd : fd; want_in : bool; want_out : bool }

type epoll_op =
  | Ep_add of { want_in : bool; want_out : bool; oneshot : bool }
      (** Register interest.  [oneshot]: disarm on delivery until the
          next [Ep_mod] re-arms (EPOLLONESHOT).  [EEXIST] if already
          registered, [EBADF] on an unpollable fd. *)
  | Ep_mod of { want_in : bool; want_out : bool; oneshot : bool }
      (** Update the mask and re-arm; readiness is re-checked at re-arm
          time so an edge that fired while disarmed is not lost.
          [ENOENT] if not registered. *)
  | Ep_del  (** Drop interest; pending readiness is discarded. *)

type rusage = {
  ru_utime : Sunos_sim.Time.span;  (** user CPU, all LWPs, incl. dead *)
  ru_stime : Sunos_sim.Time.span;  (** system CPU, all LWPs, incl. dead *)
  ru_nlwps : int;  (** live LWPs *)
  ru_minflt : int;
  ru_majflt : int;
}

type sysreq =
  | Sys_getpid
  | Sys_getlwpid
  | Sys_gettime
  | Sys_nanosleep of Sunos_sim.Time.span
  | Sys_exit of int
  | Sys_fork of { child_main : unit -> unit; all_lwps : bool }
      (** [all_lwps = true] is [fork()]; [false] is [fork1()].  See
          DESIGN.md: execution of duplicated LWPs is not reproduced
          (one-shot continuations), but the cost model and the EINTR
          side effect on the parent's other LWPs are. *)
  | Sys_exec of { name : string; main : unit -> unit }
  | Sys_waitpid of int option  (** None: any child *)
  | Sys_open of string * open_flag list
  | Sys_close of fd
  | Sys_read of fd * int
  | Sys_read_nb of fd * int  (* non-blocking socket read *)
  | Sys_write of fd * string
  | Sys_lseek of fd * int
  | Sys_unlink of string
  | Sys_mmap of { fd : fd }
      (** Shared mapping of the file's backing segment (MAP_SHARED). *)
  | Sys_mmap_anon of { size : int; shared : bool }
  | Sys_munmap of Sunos_hw.Shared_memory.t
  | Sys_touch of Sunos_hw.Shared_memory.t * int
      (** Reference offset in a mapping: the page-fault path.  Resident:
          free.  Non-resident: minor fault, plus disk I/O (blocking this
          LWP only) when file-backed. *)
  | Sys_pipe
  | Sys_listen of { name : string; backlog : int }
      (** Register a listening socket under a service name.  Returns the
          listening fd; [EADDRINUSE] if the name is taken. *)
  | Sys_connect of string
      (** Open a connection to a named listener.  Blocks for the network
          round trip; admission (or refusal: no/closed listener, full
          backlog) is decided when the SYN arrives.  Returns the
          connected fd or [ECONNREFUSED]. *)
  | Sys_accept of fd * bool
      (** Take the next established connection off a listening fd's
          backlog.  With the flag false, blocks (interruptibly) while
          the backlog is empty; closing the listening fd fails blocked
          acceptors with [ECONNABORTED].  With the flag true
          (non-blocking), an empty backlog returns [EAGAIN] instead —
          this is how an event-driven server drains every pending
          connection behind one poll readiness event. *)
  | Sys_note_shed  (** Account one load-shed connection in /proc. *)
  | Sys_poll of poll_fd list * Sunos_sim.Time.span option
      (** No timeout = indefinite wait (counts toward SIGWAITING). *)
  | Sys_epoll_create
      (** New epoll object; returns its fd.  Edge-triggered readiness
          delivery: a wait costs O(ready), not O(interest). *)
  | Sys_epoll_ctl of fd * fd * epoll_op  (** epoll fd, target fd, op *)
  | Sys_epoll_wait of fd * int * Sunos_sim.Time.span option
      (** Up to [max] ready fds ([R_poll]); blocks while none (no
          timeout = indefinite, counts toward SIGWAITING).  Readiness is
          edge-recorded and may be stale by delivery — consumers drain
          non-blocking until [EAGAIN]. *)
  | Sys_kill of int * Signo.t
  | Sys_lwp_kill of int * Signo.t  (** LWP-directed, own process only *)
  | Sys_sigaction of Signo.t * disposition
  | Sys_sigprocmask of Sigset.how * Sigset.t
  | Sys_sigaltstack of bool
  | Sys_sig_pickup
      (** Collect deliverable signals for the current LWP (the
          return-to-user-mode delivery point). *)
  | Sys_trap of Signo.t
      (** Synchronous fault raised by the current instruction stream. *)
  | Sys_lwp_create of { entry : unit -> unit; cls : sched_class_req option }
  | Sys_lwp_exit
  | Sys_lwp_park of Sunos_sim.Time.span option
      (** Sleep until {!Sys_lwp_unpark}; a pending unpark token makes it
          return immediately.  No timeout = indefinite. *)
  | Sys_lwp_unpark of int
  | Sys_kwait of {
      seg : Sunos_hw.Shared_memory.t;
      offset : int;
      timeout : Sunos_sim.Time.span option;
      expect : (unit -> bool) option;
    }
      (** Block on a shared-memory sync variable (futex-style).  When
          [expect] is given, it is evaluated atomically at sleep time; if
          it returns [false] the call returns immediately instead of
          sleeping (the futex "compare" that closes the lost-wakeup
          race). *)
  | Sys_kwake of { seg : Sunos_hw.Shared_memory.t; offset : int; count : int }
  | Sys_setitimer of which_timer * Sunos_sim.Time.span option
  | Sys_priocntl of sched_class_req
  | Sys_processor_bind of int option
  | Sys_getrusage
  | Sys_setrlimit_cpu of Sunos_sim.Time.span option
  | Sys_set_resume_hook of (unit -> unit)
      (** Install a per-LWP hook run whenever the kernel resumes this LWP
          — the simulation analogue of the current-thread register
          (SPARC %g7) being part of the restored context.  Free. *)
  | Sys_upcall_on_block of {
      enabled : bool;
      activation_entry : (unit -> unit) option;
    }
      (** Scheduler-activations mode: on every application block the
          kernel hands the library a running context — an unparked idle
          LWP, or a fresh "activation" LWP executing [activation_entry]
          (the paper's "faster events" future work / the University of
          Washington comparison). *)

type sysret =
  | R_ok
  | R_int of int
  | R_err of Errno.t
  | R_bytes of string
  | R_fds of fd * fd
  | R_poll of fd list
  | R_wait of int * int  (** pid, exit status *)
  | R_time of Sunos_sim.Time.t
  | R_seg of Sunos_hw.Shared_memory.t
  | R_sigs of (Signo.t * disposition) list
  | R_disp of disposition
  | R_rusage of rusage

val sysreq_name : sysreq -> string
val pp_sysret : Format.formatter -> sysret -> unit
