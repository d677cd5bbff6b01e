(* Core kernel state: the mutually recursive records that LWPs, processes,
   the dispatcher and the kernel object form.  Behaviour lives in
   Kernel_impl (mechanism), Signal (policy) and Syscall (the call table);
   keeping the types in one module keeps the recursion manageable, the
   same way a real kernel keeps them in a handful of headers. *)

module Time = Sunos_sim.Time
module Shm = Sunos_hw.Shared_memory

(* One sleep of one LWP, created by [Kernel_impl.block].  It is also
   the liveness token of every wakeup path registered for it: the sleep
   is live while its LWP's state is [Lsleeping] of this very record, and
   every way out of a sleep (wakeup, timeout, signal, death) changes that
   state, so a stale registration needs no cancelling. *)
type sleep = {
  sl_wchan : string;  (* the wait channel /proc shows *)
  sl_interruptible : bool;
  sl_indefinite : bool;
  mutable sl_timeout : Sunos_sim.Eventq.handle option;
}

type lwp_state =
  | Lrunnable
  | Lrunning of int  (* cpu id *)
  | Lsleeping of sleep
  | Lstopped
  | Lzombie

(* What resuming this LWP's fiber means right now.  A busy interval
   finds here what it works on (see [busy]). *)
type pending =
  | P_start of (unit -> unit)  (* entry point not yet run *)
  | P_charge of {
      mutable left : int;
      kont : (bool, Uctx.step) Effect.Deep.continuation;
    }
      (* a charge with [left] ns of CPU time still owed, the slice
         running now included; when it reaches zero the continuation is
         resumed with the signals-pending flag *)
  | P_sysret of
      (Sysdefs.sysret, Uctx.step) Effect.Deep.continuation * Sysdefs.sysret
      (* syscall finished; result ready to deliver *)
  | P_syswait of
      Sysdefs.sysreq * (Sysdefs.sysret, Uctx.step) Effect.Deep.continuation
      (* in a syscall: its request, trapping or blocked; a waker will
         supply the result *)
  | P_dead

type ts_state = { mutable ts_pri : int }

type sched_class = Sc_timeshare of ts_state | Sc_realtime of int | Sc_gang of int

type lwp = {
  lid : int;
  proc : proc;
  mutable lstate : lwp_state;
  mutable cls : sched_class;
  mutable bound_cpu : int option;
  mutable sigmask : Sigset.t;
  deliverable : Signo.t Queue.t;  (* picked for this LWP, not yet run *)
  mutable lwp_sig_pending : Signo.t list;  (* LWP-directed but masked *)
  mutable pending : pending;
  mutable on_resume : unit -> unit;
  mutable park_token : bool;
  mutable utime : int;  (* ns; the CPU accumulators hold immediates *)
  mutable stime : int;
  mutable quantum_left : int;  (* ns *)
  mutable vtimer_left : Time.span option;
  mutable ptimer_left : Time.span option;
  mutable runq_gen : int;
      (* incremented on every enqueue; stale run-queue entries (older
         generation) are skipped at pick time, which makes dequeue lazy *)
}

and proc = {
  pid : int;
  mutable pname : string;
  mutable parent : proc option;
  mutable children : proc list;
  mutable lwps : lwp list;  (* live only: see Kernel_impl.destroy_lwp *)
  mutable next_lid : int;
  fdtab : (int, fdobj) Hashtbl.t;
  mutable next_fd : int;
  handlers : Sysdefs.disposition array;  (* indexed by signal number *)
  mutable proc_sig_pending : Signo.t list;  (* process-directed, all masked *)
  mutable pstate : proc_state;
  mutable waitpid_waiters : (lwp * sleep) list;
      (* our LWPs blocked in waitpid, each with the sleep it blocked in *)
  mutable rtimer : Sunos_sim.Eventq.handle option;
  mutable mappings : Shm.t list;
  mutable cpu_limit : Time.span option;
  mutable dead_utime : int;  (* ns *)
  mutable dead_stime : int;
  mutable minflt : int;
  mutable majflt : int;
  mutable shed_count : int;
      (* connections this process refused under overload (load shedding);
         surfaced via /proc so operators can see graceful degradation *)
  mutable stopped : bool;
  mutable exit_status : int;
  mutable activations : (unit -> unit) option;
      (* scheduler-activations mode, with what a fresh activation runs
         (the threads library's LWP main loop): on every application
         block, hand the library a running context (unpark an idle LWP
         or create a fresh activation) — the paper's "faster events"
         future work *)
  mutable lib : Sunos_sim.Univ.t option;
      (* the threads library's pool, as its LWPs name it with their
         resume hooks: where readers outside the process (the debugger,
         the hang report, the robust check) find the thread table *)
  mutable sigwaiting_armed : bool;
      (* SIGWAITING fires on the transition into "all LWPs blocked
         indefinitely" and re-arms when an LWP becomes runnable again;
         without this edge trigger, a process whose handler cannot make
         progress would be interrupted in an endless storm *)
}

and proc_state = Palive | Pzombie | Preaped

and fdobj =
  | Fd_file of { file : Fs.file; mutable pos : int }
  | Fd_pipe_r of Pipe.t
  | Fd_pipe_w of Pipe.t
  | Fd_sock_listen of Socket.listener
  | Fd_sock of Socket.endpoint
  | Fd_epoll of Epoll.t

(* What a CPU's busy interval does when it ends. *)
type busy_kind =
  | B_trap  (* trap entry: run the call's body *)
  | B_complete  (* the call's operation: return, or yield holding the result *)
  | B_sysret  (* return to user mode: continue the fiber *)
  | B_charge  (* one slice of a charge *)
  | B_dispatch  (* the dispatcher's context switch: resume the LWP *)
  | B_settle  (* an exiting fiber's unsettled prefix: run [b_fin] *)
  | B_call  (* any other interval a syscall holds the CPU for: run [b_fin] *)

(* A kind's slot in [kernel.fired]; slot [stale_slot] counts the entries
   that found their interval superseded and did nothing. *)
let busy_slot = function
  | B_trap -> 0
  | B_complete -> 1
  | B_sysret -> 2
  | B_charge -> 3
  | B_dispatch -> 4
  | B_settle -> 5
  | B_call -> 6

let stale_slot = 7

(* A CPU's busy record: the newest interval the CPU was held for, one
   armed heap entry each (Kernel_impl.arm).  Arming one writes
   immediates only; what the interval works on stays in its LWP's
   [pending], and [b_lwp] changes only when another LWP takes the
   CPU. *)
type busy = {
  b_cpu : Sunos_hw.Cpu.t;
  mutable b_lwp : lwp;
  mutable b_span : int;  (* ns, accounted to [b_lwp] unless a dispatch *)
  mutable b_seq : int;  (* the newest interval's heap entry *)
  mutable b_kind : busy_kind;
  mutable b_fin : unit -> unit;  (* [B_settle] and [B_call] only *)
}

(* A futex-queue entry: dead (and dropped lazily) once its LWP no longer
   sleeps [fw_sleep]. *)
type futex_waiter = { fw_lwp : lwp; fw_sleep : sleep }

(* A shared-object wait channel: its segment's name, recorded when the
   channel is created so /proc can label it without holding the
   segment, and its waiters, oldest first. *)
type futex_chan = { fc_name : string; fc_waiters : futex_waiter Queue.t }

(* A run-queue entry: the LWP and its enqueue generation (stale entries —
   older generation — are pruned lazily at pick time). *)
type runq_entry = lwp * int

type kernel = {
  machine : Sunos_hw.Machine.t;
  fs : Fs.t;
  sockets : Socket.registry;  (* service name -> listener *)
  mutable procs : proc list;
  mutable next_pid : int;
  runq : runq_entry Sunos_sim.Prioq.t;
      (* every runnable LWP, bucketed by global priority under an
         occupancy bitmask and FIFO within a priority; an LWP bound to a
         CPU waits here too, and only that CPU takes it *)
  gangs : (int, lwp list ref) Hashtbl.t;
  futex : (int * int, futex_chan) Hashtbl.t;  (* (segment id, offset) *)
  (* counters for /proc and tests *)
  mutable ctr_syscalls : int;
  mutable ctr_dispatches : int;
  mutable ctr_preemptions : int;
  mutable ctr_sigwaiting : int;
  mutable ctr_lwp_creates : int;
  mutable busy : busy array;
      (* one per CPU, made at the first dispatch (Kernel_impl.place) *)
  mutable fired : int array;
      (* busy entries fired, by [busy_slot]; made with [busy] *)
  (* service vector: policy layers install themselves at boot *)
  mutable hook_post_proc : proc -> Signo.t -> unit;
  mutable hook_post_lwp : lwp -> Signo.t -> unit;
  mutable syscall_exec : lwp -> Sysdefs.sysreq -> unit;
}

let max_global_prio = 159

(* Global dispatch priority: real-time above everything (100..159), gang
   at a fixed middle band (80), timeshare at 0..59. *)
let global_prio lwp =
  match lwp.cls with
  | Sc_realtime p -> 100 + (max 0 (min 59 p))
  | Sc_gang _ -> 80
  | Sc_timeshare ts -> max 0 (min 59 ts.ts_pri)

let is_zombie l = match l.lstate with Lzombie -> true | _ -> false

(* A run-queue entry, a sleep or a busy record may still name an LWP
   that has exited, though [proc.lwps] no longer does. *)
let lwp_alive l =
  (not (is_zombie l)) && match l.proc.pstate with Palive -> true | _ -> false

(* Has [lwp]'s process an LWP other than [lwp]? *)
let other_live lwp =
  match lwp.proc.lwps with [] -> false | [ l ] -> l != lwp | _ -> true

let indefinite l =
  match l.lstate with Lsleeping sl -> sl.sl_indefinite | _ -> false

(* Is every LWP of [proc] asleep in an indefinite wait, with at least
   one?  One walk, no list built. *)
let all_indefinite proc = proc.lwps <> [] && List.for_all indefinite proc.lwps

(* A process's CPU time in ns, (user, system): its LWPs' and the dead
   ones'. *)
let cpu_times p =
  List.fold_left
    (fun (u, s) l -> (u + l.utime, s + l.stime))
    (p.dead_utime, p.dead_stime)
    p.lwps

(* Does [lwp] still sleep [sl]?  The liveness test of every wakeup path
   registered for a sleep. *)
let sleep_live lwp sl =
  match lwp.lstate with Lsleeping s -> s == sl | _ -> false

(* Is [lwp] parked: asleep in lwp_park? *)
let parked lwp =
  match lwp.lstate with
  | Lsleeping { sl_wchan = "lwp_park"; _ } -> true
  | _ -> false

let futex_live w = sleep_live w.fw_lwp w.fw_sleep
