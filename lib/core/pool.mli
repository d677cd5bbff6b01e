(** The M:N scheduler engine (library-internal).

    Threads are multiplexed over a pool of LWPs: each pool LWP runs
    {!lwp_main} — pick a thread from the user-level run queue, load its
    state, run it until it suspends, save its state, pick another
    (Figure 2 of the paper) — with no kernel involvement except when a
    thread blocks {e in} the kernel, an idle LWP parks, or a waker
    unparks one.

    THE COMMIT RULE (lost-wakeup freedom): a blocking primitive must
    perform no effect between reading the state that makes it decide to
    block and performing {!suspend}; the scheduler saves the continuation
    and runs the park function with no intervening effect.  Simulated
    interleaving happens only at effect boundaries, so decision +
    suspension + waitq insertion are atomic. *)

open Ttypes

val make_pool :
  pid:int -> cost:Sunos_hw.Cost_model.t -> auto_grow:bool -> pool

(** {1 Run queue} *)

val runq_push : pool -> tcb -> unit

(** {1 Suspension and wakeup} *)

val suspend : park:(tcb -> unit) -> wake_reason
(** Give the LWP back to the scheduler.  [park] runs after the
    continuation is saved (commit rule), sets [tstate] and, to block,
    registers the thread wherever its waker will look: a
    {!Ttypes.register}ed [(tcb, gen)] pair.  On [Wake_signal] the
    thread's pending thread-directed handlers have run before [suspend]
    returns; the caller only decides whether to wait again. *)

val make_ready : tcb -> wake_reason -> unit
(** Wake a blocked thread: bumps its wait generation, which retires its
    wait registration wherever it is queued, then either requeues it
    (unbound; kicks an idle LWP) or unparks its dedicated LWP (bound).
    A pending stop request diverts it to [Tstopped]. *)

val unpark_bound : pool -> tcb -> unit
(** Unpark a bound thread's dedicated LWP; if the LWP was reaped by
    fault injection while parked (ESRCH), respawn it via
    {!spawn_bound}. *)

val kick_idle_lwp : pool -> bool
(** Unpark one parked pool LWP, if any; [false] when no live idle LWP
    exists (the list was empty, or every candidate had been reaped by
    fault injection — dead entries repair [n_pool_lwps] on the way). *)

(** {1 Signals} *)

val run_pending_tsigs : unit -> unit
(** Run handlers for the current thread's pending thread-directed
    signals; must be called from inside the thread's own fiber. *)

val thread_checkpoint : unit -> unit
(** Cooperative delivery point: drains pending signals if any. *)

(** {1 LWP bodies} *)

val lwp_main : pool -> unit -> unit
(** Body of a pool LWP serving unbound threads (never returns normally;
    may [lwp_exit] when the pool shrinks). *)

val grow_pool : pool -> unit
(** Add one pool LWP ([thread_setconcurrency] / THREAD_NEW_LWP /
    SIGWAITING growth).  Retries with capped exponential backoff on a
    (fault-injected) transient ENOMEM: growth is a liveness obligation
    once the SIGWAITING edge has been consumed. *)

val spawn_bound : pool -> tcb -> unit
(** Create the dedicated LWP of a bound thread (same ENOMEM retry
    policy as {!grow_pool}).  Also the rescue path when a bound
    thread's LWP is reaped while parked. *)

(** {1 Thread construction} *)

val charge_create_costs : pool -> stack_kind -> unit
(** The paper's creation path: TCB allocation plus a stack-cache hit or
    a cold allocation with TLS zeroing. *)

val new_tcb :
  pool ->
  entry:(unit -> unit) ->
  prio:int ->
  sigmask:Sunos_kernel.Sigset.t ->
  bound:bool ->
  wait_flag:bool ->
  stack_kind:stack_kind ->
  stopped:bool ->
  tcb
