(** Debugger support: the paper's /proc + library cooperation.

    "Of necessity, a kernel process model interface can provide access
    only to kernel-supported threads of control, namely LWPs.  Debugger
    control of library threads is accomplished by cooperation between
    the debugger and the threads library, with the aid of the /proc file
    system to control the kernel-supported LWPs."

    The debugger runs {e outside} the simulated machine (like a real
    debugger in another process): it stops the target through the kernel
    (as /proc's PIOCSTOP would), reads LWP state from {!Sunos_kernel.Procfs},
    and reads the thread table the threads library registered with the
    process's kernel record (every library LWP names its pool with its
    resume hook: the analogue of reading libthread's data structures
    out of the inferior's address space). *)

type thread_view = {
  dt_tid : int;
  dt_state : string;  (** library state: runnable/running/blocked/... *)
  dt_bound_lwp : int option;  (** the dedicated LWP, for bound threads *)
}

type snapshot = {
  d_pid : int;
  d_pname : string;
  d_lwps : Sunos_kernel.Procfs.lwp_info list;  (** the kernel half *)
  d_threads : thread_view list;  (** the library half *)
}

val attach : Sunos_kernel.Kernel.t -> int -> (unit, string) result
(** Stop every LWP of the process (as /proc PIOCSTOP).  The simulation
    must then be advanced (e.g. [Kernel.run ~until]) for running LWPs to
    reach their stop points. *)

val snapshot : Sunos_kernel.Kernel.t -> int -> (snapshot, string) result
(** Merged kernel + library view.  The library half is present only for
    processes running the threads library. *)

val detach : Sunos_kernel.Kernel.t -> int -> (unit, string) result
(** Resume the process (as /proc PIOCRUN). *)

val pp_snapshot : Format.formatter -> snapshot -> unit
