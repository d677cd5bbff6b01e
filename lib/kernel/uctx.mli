(** User context: the "instruction set" available to simulated user code.

    Code running on an LWP (directly, or as a thread multiplexed on one)
    interacts with the machine through exactly two effects: {!Charge}
    (consume simulated CPU time) and {!Sys} (a system call).  The kernel
    installs the handler ({!run_fiber} builds the fiber; the kernel owns
    the returned {!step} values).

    Everything else in this module is typed wrappers over those effects —
    the libc of the simulation.  Wrappers pick up deliverable signals at
    the documented delivery points (return from a charge that reports a
    pending signal; return from an interrupted system call), mirroring
    delivery on return-to-user-mode. *)

type _ Effect.t +=
  | Charge : Sunos_sim.Time.span -> bool Effect.t
        (** Result [true] means deliverable signals are pending. *)
  | Sys : Sysdefs.sysreq -> Sysdefs.sysret Effect.t

type step =
  | Step_done
  | Step_raised of exn * Printexc.raw_backtrace
  | Step_charge of
      Sunos_sim.Time.span * (bool, step) Effect.Deep.continuation
  | Step_sys of
      Sysdefs.sysreq * (Sysdefs.sysret, step) Effect.Deep.continuation

val run_fiber : (unit -> unit) -> step
(** Start running [f] as a fiber; returns at its first effect (or
    completion).  Kernel-internal. *)

exception Process_killed
(** Used by the kernel to discontinue fibers of a dying process. *)

(** {1 Run-ahead accounting (kernel-internal)} *)

val grant : budget:Sunos_sim.Time.span -> unit
(** Open a run-ahead window: subsequent {!charge}s accumulate in a
    domain-local ledger instead of performing effects, until the
    running total would reach [budget] (that charge performs).  A zero
    or negative budget closes any open window — every charge then
    performs directly.  Called by the kernel just before continuing a
    fiber; the budget never exceeds the time to the event queue's next
    pending event, which is what makes coalescing unobservable. *)

val unsettled : unit -> Sunos_sim.Time.span
(** Collect and reset the coalesced-but-unaccounted charge total, and
    close the window.  Called by the kernel at every fiber step (charge
    perform, syscall, completion) before acting on it. *)

(** {1 Core} *)

val charge : Sunos_sim.Time.span -> unit
(** Consume CPU; runs any deliverable signal handlers before returning. *)

val charge_us : int -> unit
val compute : Sunos_sim.Time.span -> unit
(** Alias of {!charge} for application compute phases. *)

val syscall : Sysdefs.sysreq -> Sysdefs.sysret
(** Raw system call; no signal pickup, no error decoding. *)

val checkpoint : unit -> unit
(** Explicitly collect and run deliverable signal handlers. *)

(** {1 Identity and time} *)

val getpid : unit -> int
val getlwpid : unit -> int
val gettime : unit -> Sunos_sim.Time.t

(** {1 Process control} *)

val exit : int -> 'a
val fork : child_main:(unit -> unit) -> int
val fork1 : child_main:(unit -> unit) -> int
val exec : name:string -> main:(unit -> unit) -> 'a
val waitpid : ?pid:int -> unit -> int * int
val sleep : Sunos_sim.Time.span -> unit
(** Returns early (after running handlers) if a signal arrives. *)

(** {1 Files, pipes, polling} *)

val open_file : ?flags:Sysdefs.open_flag list -> string -> Sysdefs.fd
val close : Sysdefs.fd -> unit
val read : Sysdefs.fd -> len:int -> string
val write : Sysdefs.fd -> string -> int
val lseek : Sysdefs.fd -> int -> unit
val unlink : string -> unit
val pipe : unit -> Sysdefs.fd * Sysdefs.fd

(** {1 Sockets} *)

val listen : name:string -> backlog:int -> Sysdefs.fd
(** Register a listening socket under a service name; raises
    [Unix_error (EADDRINUSE, _)] if the name is taken. *)

val connect : string -> Sysdefs.fd
(** Connect to a named listener; blocks one network round trip.  Raises
    [Unix_error (ECONNREFUSED, _)] when there is no listener or its
    backlog is full (callers typically back off and retry). *)

val accept : Sysdefs.fd -> Sysdefs.fd
(** Next established connection on a listening fd; blocks while the
    backlog is empty.  Raises [Unix_error (ECONNABORTED, _)] if the
    listening fd is closed underneath the wait. *)

val accept_nb : Sysdefs.fd -> [ `Conn of Sysdefs.fd | `Again | `Aborted ]
(** Non-blocking {!accept}: [`Again] while the backlog is empty,
    [`Aborted] once the listener is closed (so a drain loop terminates
    instead of spinning on a fd that can never produce a connection).
    An event-driven server calls this in a loop after {!poll} reports
    the listening fd readable, draining every pending connection behind
    a single readiness event instead of paying a poll round trip each. *)

val try_read :
  Sysdefs.fd -> len:int -> [ `Data of string | `Eof | `Again | `Reset ]
(** Non-blocking socket read with distinguishable outcomes: data, clean
    EOF, not-ready and connection-reset are four different answers (an
    option type would conflate the last three).  Only valid on stream
    socket fds. *)

val note_shed : unit -> unit
(** Account one load-shed connection against the calling process; the
    count is visible in /proc ({!Procfs.proc_info}). *)

val write_all : Sysdefs.fd -> string -> unit
(** Loop {!write} until every byte is accepted (blocking on
    backpressure as needed). *)

val read_exact : Sysdefs.fd -> len:int -> string
(** Loop {!read} until exactly [len] bytes arrive; a short string means
    the peer closed mid-frame. *)

val poll :
  ?timeout:Sunos_sim.Time.span -> Sysdefs.poll_fd list -> Sysdefs.fd list
(** Restarted after signal handlers run; [[]] only on timeout. *)

(** {1 Epoll: edge-triggered readiness}

    O(ready) event delivery for servers holding many connections; the
    legacy {!poll} rescans its whole set per wakeup, epoll does not.
    Edge-triggered: after a delivery, drain with the non-blocking ops
    ({!try_read}, {!accept_nb}) until [`Again], and for ONESHOT
    interests re-arm with {!epoll_mod} when ready for the next event. *)

val epoll_create : unit -> Sysdefs.fd

val epoll_add :
  Sysdefs.fd ->
  Sysdefs.fd ->
  ?want_in:bool ->
  ?want_out:bool ->
  ?oneshot:bool ->
  unit ->
  unit
(** Register interest of the second fd on the first (epoll) fd.  Raises
    [EEXIST] if already registered, [EINVAL] on objects without edge
    sources (plain files, epolls). *)

val epoll_mod :
  Sysdefs.fd ->
  Sysdefs.fd ->
  ?want_in:bool ->
  ?want_out:bool ->
  ?oneshot:bool ->
  unit ->
  unit
(** Update mask and re-arm (with a readiness re-check, so edges that
    fired while a ONESHOT entry was disarmed are not lost). *)

val epoll_del : Sysdefs.fd -> Sysdefs.fd -> unit

val epoll_wait :
  ?timeout:Sunos_sim.Time.span -> Sysdefs.fd -> max_events:int -> Sysdefs.fd list
(** Up to [max_events] ready fds; blocks while none are ready (restarted
    after signal handlers run).  [[]] only on timeout.  Readiness may be
    stale (edge recorded before a competing consumer drained): treat
    [`Again] from the subsequent non-blocking op as normal. *)

(** {1 Memory} *)

val mmap : Sysdefs.fd -> Sunos_hw.Shared_memory.t
val mmap_anon : size:int -> shared:bool -> Sunos_hw.Shared_memory.t
val munmap : Sunos_hw.Shared_memory.t -> unit
val touch : Sunos_hw.Shared_memory.t -> offset:int -> unit

(** {1 Signals} *)

val kill : pid:int -> Signo.t -> unit
val lwp_kill : lwpid:int -> Signo.t -> unit
val sigaction : Signo.t -> Sysdefs.disposition -> Sysdefs.disposition
val sigprocmask : Sigset.how -> Sigset.t -> unit
val trap : Signo.t -> unit
(** Raise a synchronous fault in the current thread. *)

(** {1 LWP control} *)

val lwp_create :
  ?cls:Sysdefs.sched_class_req -> entry:(unit -> unit) -> unit -> int

val lwp_exit : unit -> 'a

val lwp_park :
  ?timeout:Sunos_sim.Time.span -> unit -> [ `Parked | `Timeout ]
(** Returns [`Parked] on unpark (including a pending unpark token) and
    after signal handlers ran (spurious returns allowed: callers loop). *)

val lwp_unpark : int -> unit

(** {1 Shared-memory waiting (sync-variable support)} *)

val kwait :
  seg:Sunos_hw.Shared_memory.t ->
  offset:int ->
  ?timeout:Sunos_sim.Time.span ->
  ?expect:(unit -> bool) ->
  unit ->
  [ `Woken | `Timeout ]
(** Spurious wakeups allowed (signals); callers re-check their predicate.
    [expect] is the futex compare: evaluated atomically at sleep time,
    [false] means return immediately. *)

val kwake : seg:Sunos_hw.Shared_memory.t -> offset:int -> count:int -> int
(** Returns the number of waiters woken. *)

(** {1 Scheduling, timers, accounting} *)

val setitimer : Sysdefs.which_timer -> Sunos_sim.Time.span option -> unit
val priocntl : Sysdefs.sched_class_req -> unit
val processor_bind : int option -> unit
val getrusage : unit -> Sysdefs.rusage
val setrlimit_cpu : Sunos_sim.Time.span option -> unit

val set_resume_hook : (unit -> unit) -> unit
(** Install this LWP's context-restore hook (see
    {!Sysdefs.sysreq.Sys_set_resume_hook}). *)

val upcall_on_block : ?activation_entry:(unit -> unit) -> bool -> unit
(** Toggle scheduler-activations mode: on every application block, the
    kernel unparks an idle LWP or creates a fresh activation running
    [activation_entry]. *)
