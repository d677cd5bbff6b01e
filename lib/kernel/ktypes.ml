(* Core kernel state: the mutually recursive records that LWPs, processes,
   the dispatcher and the kernel object form.  Behaviour lives in
   Kernel_impl (mechanism), Signal (policy) and Syscall (the call table);
   keeping the types in one module keeps the recursion manageable, the
   same way a real kernel keeps them in a handful of headers. *)

module Time = Sunos_sim.Time
module Shm = Sunos_hw.Shared_memory

type lwp_state =
  | Lrunnable
  | Lrunning of int  (* cpu id *)
  | Lsleeping
  | Lstopped
  | Lzombie

(* What resuming this LWP's fiber means right now. *)
type pending =
  | P_start of (unit -> unit)  (* entry point not yet run *)
  | P_charge of Time.span * (bool, Uctx.step) Effect.Deep.continuation
      (* [span] of CPU time still owed before the charge completes; when
         it reaches zero the continuation is resumed with the
         signals-pending flag *)
  | P_sysret of
      (Sysdefs.sysret, Uctx.step) Effect.Deep.continuation * Sysdefs.sysret
      (* syscall finished; result ready to deliver *)
  | P_syswait of (Sysdefs.sysret, Uctx.step) Effect.Deep.continuation
      (* blocked in a syscall; a waker will supply the result *)
  | P_dead

type ts_state = { mutable ts_pri : int }

type sched_class = Sc_timeshare of ts_state | Sc_realtime of int | Sc_gang of int

(* One sleep of one LWP, created by [Kernel_impl.block].  It is also
   the liveness token of every wakeup path registered for it: the sleep
   is live while its LWP's [sleep] field holds this very record, and
   every way out of a sleep (wakeup, timeout, signal, death) clears that
   field, so a stale registration needs no cancelling. *)
type sleep = {
  sl_interruptible : bool;
  sl_indefinite : bool;
  mutable sl_timeout : Sunos_sim.Eventq.handle option;
}

type lwp = {
  lid : int;
  proc : proc;
  mutable lstate : lwp_state;
  mutable cls : sched_class;
  mutable bound_cpu : int option;
  mutable sigmask : Sigset.t;
  mutable altstack : bool;
  deliverable : Signo.t Queue.t;  (* picked for this LWP, not yet run *)
  mutable lwp_sig_pending : Signo.t list;  (* LWP-directed but masked *)
  mutable pending : pending;
  mutable on_resume : unit -> unit;
  mutable wchan : string;
  mutable sleep : sleep option;
  mutable park_token : bool;
  mutable parked : bool;
  mutable utime : int;  (* ns; the CPU accumulators hold immediates *)
  mutable stime : int;
  mutable in_kernel : bool;
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
  mutable lwps : lwp list;
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
  mutable upcall_on_block : bool;
      (* scheduler-activations mode: on every application block, hand
         the library a running context (unpark an idle LWP or create a
         fresh activation) — the paper's "faster events" future work *)
  mutable activation_entry : (unit -> unit) option;
      (* what a fresh scheduler activation runs (registered by the
         threads library: its LWP main loop) *)
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

(* A futex-queue entry: dead (and dropped lazily) once its LWP no longer
   sleeps [fw_sleep]. *)
type futex_waiter = { fw_lwp : lwp; fw_sleep : sleep }

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
  futex : (int * int, futex_waiter Queue.t) Hashtbl.t;
      (* (segment id, offset) -> waiters *)
  futex_names : (int, string) Hashtbl.t;
      (* segment id -> segment name, recorded at kwait so /proc can
         label wait channels without holding segment handles *)
  (* counters for /proc and tests *)
  mutable ctr_syscalls : int;
  mutable ctr_dispatches : int;
  mutable ctr_preemptions : int;
  mutable ctr_sigwaiting : int;
  mutable ctr_lwp_creates : int;
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

let live_lwps proc = List.filter (fun l -> not (is_zombie l)) proc.lwps

let lwp_alive l =
  (not (is_zombie l)) && match l.proc.pstate with Palive -> true | _ -> false

(* Has [lwp]'s process a live LWP other than [lwp]?  One walk, no list
   or closure built. *)
let rec other_live_in lwp = function
  | [] -> false
  | l :: rest -> (l != lwp && not (is_zombie l)) || other_live_in lwp rest

let other_live lwp = other_live_in lwp lwp.proc.lwps

(* Is every live LWP of [proc] asleep in an indefinite wait, with at
   least one live?  One walk, no list built. *)
let all_indefinite proc =
  let rec go seen = function
    | [] -> seen
    | l :: rest -> (
        match (l.lstate, l.sleep) with
        | Lzombie, _ -> go seen rest
        | Lsleeping, Some sl when sl.sl_indefinite -> go true rest
        | _ -> false)
  in
  go false proc.lwps

(* A process's CPU time in ns, (user, system): its LWPs' and the dead
   ones'. *)
let cpu_times p =
  List.fold_left
    (fun (u, s) l -> (u + l.utime, s + l.stime))
    (p.dead_utime, p.dead_stime)
    p.lwps

(* Does [lwp] still sleep [sl]?  The liveness test of every wakeup path
   registered for a sleep. *)
let sleep_live lwp sl = match lwp.sleep with Some s -> s == sl | None -> false

let futex_live w = sleep_live w.fw_lwp w.fw_sleep
