(** /proc: introspection snapshots of kernel process state.

    The paper extends /proc so debuggers can control LWPs while the
    threads library handles user threads; here the same split appears as
    kernel-level snapshots (this module, LWPs only — the kernel cannot
    see user threads) that the threads library complements with its own
    thread tables. *)

type lwp_info = {
  li_lwpid : int;
  li_state : string;  (** "running(cpuN)" | "runnable" | "sleeping" | ... *)
  li_class : string;  (** "TS" | "RT" | "GANG" *)
  li_prio : int;  (** global dispatch priority *)
  li_wchan : string;  (** wait channel when sleeping *)
  li_parked : bool;  (** parked by lwp_park (idle pool LWP) *)
  li_sleep_indefinite : bool;  (** sleeping with no timeout *)
  li_sleep_interruptible : bool;  (** sleep breakable by a signal *)
  li_utime : Sunos_sim.Time.span;
  li_stime : Sunos_sim.Time.span;
  li_bound_cpu : int option;
}

type proc_info = {
  pi_pid : int;
  pi_name : string;
  pi_state : string;  (** "alive" | "stopped" | "zombie" | "reaped" *)
  pi_parent : int option;
  pi_nlwps : int;
  pi_lwps : lwp_info list;
  pi_utime : Sunos_sim.Time.span;
  pi_stime : Sunos_sim.Time.span;
  pi_minflt : int;
  pi_majflt : int;
  pi_shed : int;  (** connections refused under overload (load shedding) *)
  pi_nfds : int;
  pi_nsocks : int;  (** open connected socket fds *)
  pi_nlisten : int;  (** open listening socket fds *)
}

val snapshot : Ktypes.kernel -> proc_info list
(** All processes, ordered by pid. *)

val proc : Ktypes.kernel -> int -> proc_info option
val pp_proc : Format.formatter -> proc_info -> unit
val pp : Format.formatter -> Ktypes.kernel -> unit
(** A ps(1)-style table of every process and LWP. *)

type wchan_info = {
  wc_seg_id : int;
  wc_seg_name : string;
  wc_offset : int;
  wc_waiters : (int * int) list;  (** (pid, lwpid) pairs, sorted *)
}

val wait_channels : Ktypes.kernel -> wchan_info list
(** The kernel's shared-object wait channels — one entry per
    (segment, offset) with at least one live sleeping waiter, ordered by
    (segment id, offset).  This is how a USYNC_PROCESS block shows up
    from outside: the blocked LWP's wchan says ["kwait"]; this table
    says on which lock word of which segment. *)

val pp_wait_channels : Format.formatter -> Ktypes.kernel -> unit

(** {1 Epoll objects}

    Readiness-delivery stats, one row per open epoll fd: interest-set
    size, current ready-queue depth, and the lifetime edge/coalesce/
    wakeup/delivery counters.  [ei_coalesced] is the figure of merit for
    edge dedup — edges absorbed because the entry was already queued —
    and [ei_delivered / ei_wakeups] is the batching ratio a wait
    achieves. *)

type epoll_info = {
  ei_pid : int;
  ei_fd : int;
  ei_interest : int;  (** registered fds *)
  ei_ready : int;  (** current ready-queue depth *)
  ei_edges : int;  (** entries enqueued over the object's lifetime *)
  ei_coalesced : int;  (** edges absorbed by an already-queued entry *)
  ei_wakeups : int;  (** blocked epoll_wait callers woken *)
  ei_delivered : int;  (** entries handed to epoll_wait callers *)
}

val epolls : Ktypes.kernel -> epoll_info list
(** Every open epoll fd, ordered by (pid, fd). *)

val pp_epoll : Format.formatter -> epoll_info -> unit
val pp_epolls : Format.formatter -> Ktypes.kernel -> unit
