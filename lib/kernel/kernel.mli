(** The kernel: public entry points.

    [boot] wires the mechanism (dispatcher, sleep/wake), the signal policy
    and the syscall table together over a machine; [spawn] starts a
    process whose main function runs as user code (see {!Uctx});
    [run] drives the event queue.

    The representation is transparent ([= Ktypes.kernel]) so that
    introspection ({!Procfs}), tests and benchmarks can examine kernel
    state directly; simulated user code must go through {!Uctx} only. *)

type t = Ktypes.kernel

val boot :
  ?cpus:int ->
  ?cost:Sunos_hw.Cost_model.t ->
  ?seed:int64 ->
  ?chaos:Sunos_sim.Faultgen.profile ->
  unit ->
  t
(** Build a machine and boot a kernel on it.  [chaos] selects the fault
    injection profile (default: [SUNOS_CHAOS] env, else off). *)

val machine : t -> Sunos_hw.Machine.t
val fs : t -> Fs.t

val shutdown : t -> unit
(** Does nothing: a kernel holds no resource beyond the heap.  Kept so
    that callers written against the old worker-pool API still build. *)

val spawn : t -> name:string -> main:(unit -> unit) -> int
(** Create a process with one LWP executing [main]; returns its pid.
    [main] runs as simulated user code: it may call anything in
    {!Uctx}. *)

val run : ?until:Sunos_sim.Time.t -> ?max_events:int -> t -> unit
(** Drive the simulation until the event queue drains (all processes
    finished or deadlocked asleep), the horizon, or the event budget. *)

val now : t -> Sunos_sim.Time.t

val find_proc : t -> int -> Ktypes.proc option
val proc_alive : t -> int -> bool

val exit_status : t -> int -> int option
(** Exit status of a finished (zombie or reaped) process. *)

val trace_records : t -> Sunos_sim.Tracebuf.record list
(** The kernel trace, oldest first, as typed records: read their fields
    directly, or render them with {!Sunos_sim.Tracebuf.tag} and
    {!Sunos_sim.Tracebuf.message}. *)

val set_tracing : t -> bool -> unit

val set_trace_tags : t -> string list option -> unit
(** Restrict tracing to the given tags ([None], the default, records
    all).  A filtered-out record is never built, so a narrow filter
    keeps tracing cheap on hot paths. *)

val bug_sigwaiting_no_rearm : bool ref
(** Seeded-bug knob for the schedule explorer: [true] reverts the
    SIGWAITING re-arm fix (any EINTR wake — timeout- or signal-caused —
    skips re-arming the all-LWPs-blocked edge).  Tests only. *)

val syscall_count : t -> int
val dispatch_count : t -> int
val preemption_count : t -> int
val sigwaiting_count : t -> int
val lwp_create_count : t -> int

val event_counts : t -> (string * int) list
(** Events fired, by kind.  First each kind of busy interval that
    acted: "trap" (trap entry), "complete" (a call's operation),
    "sysret" (return to user mode), "charge" (a charge slice),
    "dispatch" (the dispatcher's context switch), "settle" (an exiting
    fiber's unsettled prefix) and "call" (an interval a syscall holds
    the CPU for: exec, connect, lwp_exit, the park enqueue).  Then
    "stale": busy entries that found a newer interval on their CPU, or
    their LWP gone from it, and did nothing.  Then "other": every other
    event (devices, timers, sleep timeouts).  The counts sum to the
    events the machine's queue fired; a kernel that never dispatched
    has only "other" events. *)

(** {1 Chaos introspection} *)

val chaos : t -> Sunos_sim.Faultgen.t
val chaos_label : t -> string

val chaos_counts : t -> (string * int) list
(** Injected-fault counts per site, sorted by site name — the basis for
    the chaos goldens and the workloads' chaos debrief. *)

val chaos_total : t -> int
