(** The thread interface — the paper's Figure 4 in OCaml.

    Threads are execution resources of a process, invisible outside it.
    They share the address space, file descriptors and signal handler
    vector; each has its own ID, priority, signal mask, stack and
    thread-local storage.  Most operations never enter the kernel. *)

type id = int

type flag =
  | THREAD_STOP  (** created suspended; runs after {!continue} *)
  | THREAD_NEW_LWP  (** also add an LWP to the pool serving unbound threads *)
  | THREAD_BIND_LWP  (** create an LWP and bind the thread to it permanently *)
  | THREAD_WAIT  (** joinable: another thread will {!wait} for it; the id
                     is not reused until then *)

val create :
  ?flags:flag list ->
  ?stack:[ `Default | `Caller of int ] ->
  (unit -> unit) ->
  id
(** [thread_create].  The new thread inherits the creator's priority and
    signal mask.  [`Caller n] models programmer-supplied stack storage of
    [n] bytes (the library then leaves allocation alone, as the paper
    requires for language runtimes with their own allocators). *)

val exit : unit -> 'a
(** [thread_exit]: terminate the calling thread only.  When the last
    thread exits, the process exits. *)

val wait : ?thread:id -> unit -> id
(** [thread_wait]: block until the given thread (or, with no argument,
    any THREAD_WAIT thread) exits; returns the id, which is dead
    afterwards.  Errors (raised as [Invalid_argument]): waiting for a
    non-THREAD_WAIT thread, for yourself, or double-waiting. *)

val get_id : unit -> id
(** [thread_get_id]. *)

val sigsetmask :
  Sunos_kernel.Sigset.how -> Sunos_kernel.Sigset.t -> Sunos_kernel.Sigset.t
(** [thread_sigsetmask]: change the calling thread's mask; returns the
    old mask.  Unblocking makes eligible pended signals deliverable. *)

val kill : id -> Sunos_kernel.Signo.t -> unit
(** [thread_kill]: send a signal to one thread of this process; it
    behaves like a trap — only that thread handles it. *)

val sigsend_all : Sunos_kernel.Signo.t -> unit
(** [sigsend(P_THREAD_ALL)]: the signal goes to every thread. *)

val stop : ?thread:id -> unit -> unit
(** [thread_stop].  Stopping yourself suspends immediately; stopping
    another thread takes effect at its next scheduling boundary (the
    call returns once the stop is recorded). *)

val continue : id -> unit
(** [thread_continue]: start a THREAD_STOP thread or restart a stopped
    one. *)

val priority : ?thread:id -> int -> int
(** [thread_priority]: set the (user-level) scheduling priority, 0..63;
    higher runs first.  Returns the old priority. *)

val setconcurrency : int -> unit
(** [thread_setconcurrency]: set the number of LWPs multiplexing unbound
    threads.  0 restores automatic mode (grow on SIGWAITING). *)

val yield : unit -> unit
(** Offer the LWP to another runnable thread (pure user-level switch). *)

val sigaction :
  Sunos_kernel.Signo.t ->
  Sunos_kernel.Sysdefs.disposition ->
  Sunos_kernel.Sysdefs.disposition
(** Install a process-wide disposition whose handler runs in an eligible
    {e thread}'s context, routed by per-thread masks. *)

val sigaltstack : bool -> unit
(** Enable an alternate signal stack for the calling thread.  Per the
    paper, only THREAD_BIND_LWP threads may use one (the state lives in
    the LWP); raises [Invalid_argument] for unbound threads. *)

val state : id -> string option
(** "runnable" | "running" | "blocked" | "stopped" | "zombie". *)
