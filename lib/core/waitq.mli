(** Thread wait queues (turnstiles) for the user-level sync primitives.

    An entry is a registration [(tcb, gen)] ({!Ttypes.register}): it is
    live while the thread's wait generation still matches, so a signal
    wakeup, which bumps the generation in {!Pool.make_ready}, retires it
    in the middle of the queue without touching the queue.  A dead entry
    stays queued until a pop drops it.  Both pops go through
    {!Sunos_sim.Schedctl.take}: FIFO when passive (the paper guarantees
    no particular wakeup order), and under the schedule explorer [pop]
    lets the driver choose which live waiter is admitted. *)

type t

val create : unit -> t

val add : t -> Ttypes.tcb -> unit
(** Register the thread at the back of the queue.  Only a park function
    may call it (the commit rule, see {!Pool}). *)

val sleep : t -> Ttypes.wake_reason
(** Block the calling thread on the queue until a pop wakes it
    ([Wake_normal]) or a signal does ([Wake_signal], its handlers already
    run); the one way mutex, rwlock and semaphore block. *)

val pop : t -> Ttypes.tcb option
(** Next live entry, or the driver's choice among the live entries.  The
    caller wakes it with {!Pool.make_ready}. *)

val pop_all : t -> Ttypes.tcb list
(** Every live entry, in FIFO order even when driven. *)

val is_empty : t -> bool
(** True when no live entry remains. *)
