(* Core types of the threads library: the thread control block, the
   per-process pool that multiplexes threads over LWPs, and the effect
   through which a thread gives its LWP back to the scheduler.

   Layering reminder: everything in this library is *user code* in the
   simulation — it runs inside LWP fibers and talks to the kernel only
   through Sunos_kernel.Uctx.  The one nesting trick: each thread body is
   itself a fiber whose handler (in Pool) catches [Suspend]; kernel
   effects (Charge/Sys) pass through to the kernel handler, which is
   exactly how a thread stays bound to its LWP for the duration of a
   system call. *)

module Sigset = Sunos_kernel.Sigset
module Signo = Sunos_kernel.Signo
module Sysdefs = Sunos_kernel.Sysdefs
module Cost = Sunos_hw.Cost_model

type tstate =
  | Trunnable
  | Trunning
  | Tblocked
  | Tstopped
  | Tzombie

type wake_reason =
  | Wake_normal
  | Wake_signal
      (* woken to run a signal handler: Pool.suspend has run it by the
         time it returns; blocking primitives then re-block (or report a
         spurious wakeup) *)

type stack_kind =
  | Stack_default  (* library-managed, cached *)
  | Stack_caller of int  (* programmer-supplied storage of given size *)

type tstep =
  | T_done
  | T_raised of exn
  | T_suspended of (tcb -> unit) * (wake_reason, tstep) Effect.Deep.continuation

and tcb = {
  tid : int;
  pool : pool;
  mutable tstate : tstate;
  mutable prio : int;
  mutable tsigmask : Sigset.t;
  mutable kont : (wake_reason, tstep) Effect.Deep.continuation option;
  mutable wake_reason : wake_reason;
  mutable entry : (unit -> unit) option;  (* consumed at first dispatch *)
  bound : bool;
  mutable bound_lwp : int;  (* kernel lwpid when [bound] *)
  wait_flag : bool;  (* THREAD_WAIT: joinable; tid not reused until waited *)
  stack_kind : stack_kind;
  mutable tls : Sunos_sim.Univ.t option array;
  mutable waiter : (tcb * int) option;
      (* the (single) thread_wait()er's registration; see [register] *)
  mutable wait_gen : int;
      (* wait generation: bumped by every registration ([register]) and
         every wakeup (Pool.make_ready), so a wakeup retires all of the
         thread's registrations at once, wherever they are queued *)
  pending_tsigs : Signo.t Queue.t;  (* thread-directed, not yet handled *)
  mutable stop_requested : bool;
  mutable exited : bool;
  (* thrsan bookkeeping (see Thrsan): pure-mutation fields, written only
     when the sanitizer is enabled (except the [None] clear in
     make_ready, a single store) *)
  mutable san_waiting : san_obj option;
      (* the sync object this thread is blocked on right now; edge of
         the waits-for graph *)
  mutable san_held : san_obj list;
      (* locks currently held, most recent first (lock-order checking) *)
}

(* A sanitizer's view of one synchronization object (mutex, condvar,
   semaphore, rwlock, syncvar, lockdebug lock).  Allocated lazily, only
   when the sanitizer first sees the object while enabled. *)
and san_obj = {
  so_id : int;
  so_kind : string;
  so_name : string option;  (* [None]: reports name it "kind#id" *)
  mutable so_holders : tcb list;  (* current owners (readers, or the one
                                     owner); empty for condvars/semaphores *)
  mutable so_last_pid : int;  (* last acquirer's pid; -1 before any *)
  mutable so_last_tid : int;  (* last acquirer's tid; -1 before any *)
  mutable so_acq_seq : int;  (* global acquisition sequence stamp of the
                                most recent acquisition (the "site") *)
}

and pool = {
  pid : int;
  cost : Cost.t;
      (* the library's own path-length calibration; see DESIGN.md *)
  runq : tcb Sunos_sim.Prioq.t;
      (* runnable threads by priority, [0 .. max_prio]; stopped threads
         leave dead entries, dropped at the next pick that meets them *)
  threads : (int, tcb) Hashtbl.t;
  mutable next_tid : int;
  mutable live_threads : int;
  mutable n_pool_lwps : int;  (* LWPs serving unbound threads *)
  mutable idle_lwps : int list;  (* parked pool LWPs (lwpids) *)
  mutable shrink_lwps : int;  (* LWPs asked to exit when they next idle *)
  mutable stack_cached : int;  (* default stacks in the cache *)
  mutable stack_hits : int;
  mutable stack_misses : int;
  handlers : Sysdefs.disposition array;
      (* library mirror of the process signal vector: the thread-level
         dispositions that Sigdeliver routes by thread masks *)
  mutable proc_pending_tsigs : Signo.t list;
      (* process-directed signals every current thread masks *)
  mutable any_waiters : (tcb * int) list;
      (* thread_wait(NULL) sleepers' registrations, oldest first; dead
         ones are dropped when a thread exit meets them *)
  mutable auto_grow : bool;  (* create an LWP on SIGWAITING *)
  mutable timer_slot : Sunos_sim.Univ.t option;
      (* per-pool state of the Timers module (per-thread timers
         multiplexed over the process real timer) *)
  (* statistics, exposed through Libthread.stats *)
  mutable ctr_creates_unbound : int;
  mutable ctr_creates_bound : int;
  mutable ctr_switches : int;  (* user-level thread context switches *)
  mutable ctr_lwp_grown : int;  (* LWPs added by SIGWAITING growth *)
}

type _ Effect.t +=
  | Suspend : (tcb -> unit) -> wake_reason Effect.t
        (* give up the LWP: the scheduler saves our continuation in the
           TCB, runs the argument (which parks the TCB somewhere), and
           picks another thread.  The resume value says why we woke. *)

exception Thread_exit_exn
(* raised by Thread.exit; translated to a clean T_done by the scheduler *)

let max_prio = 63
let default_prio = 31

let tstate_name = function
  | Trunnable -> "runnable"
  | Trunning -> "running"
  | Tblocked -> "blocked"
  | Tstopped -> "stopped"
  | Tzombie -> "zombie"

(* A library wait is a registration [(tcb, gen)]: the park function
   takes a fresh generation and records the pair where the waker looks
   (a wait queue, a joinee, a timer entry).  It stays live while the
   thread's generation still matches; the next wakeup of the thread, for
   whatever reason, bumps the generation and so retires it in place. *)
let register tcb =
  tcb.wait_gen <- tcb.wait_gen + 1;
  tcb.wait_gen

let live (tcb, gen) = tcb.wait_gen = gen

(* counts dead entries not yet dropped, as a pick would meet them *)
let live_runnable pool = Sunos_sim.Prioq.length pool.runq > 0
