(** Thread wait queues (turnstiles) for the user-level sync primitives.

    Entries are lazily removable: signal delivery may pull a thread out
    of the middle of the queue, so [add] returns a cancel closure and a
    cancelled entry stays queued, dead, until a pop drops it.  Both pops
    go through {!Sunos_sim.Schedctl.take}: FIFO when passive (the paper
    guarantees no particular wakeup order), and under the schedule
    explorer [pop] lets the driver choose which live waiter is
    admitted. *)

type t

val create : unit -> t

val add : t -> Ttypes.tcb -> unit -> unit
(** Returns the cancel closure; idempotent. *)

val pop : t -> Ttypes.tcb option
(** Next live entry, or the driver's choice among the live entries (its
    cancel closure becomes a no-op). *)

val pop_all : t -> Ttypes.tcb list
(** Every live entry, in FIFO order even when driven. *)

val is_empty : t -> bool
(** True when no live entry remains. *)

val length : t -> int
