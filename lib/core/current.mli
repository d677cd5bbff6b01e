(** The current-thread register.

    The simulation analogue of the dedicated register (SPARC %g7) that
    always points at the running thread's TCB.  Maintained by the pool
    scheduler on every thread switch and restored by the kernel's
    per-LWP resume hook, so it is correct at any point inside a thread's
    code no matter how LWPs interleave. *)

val get : unit -> Ttypes.tcb
(** Raises [Failure] outside a thread context (before Libthread.boot). *)

val get_opt : unit -> Ttypes.tcb option
val set : Ttypes.tcb option -> unit

val pool : unit -> Ttypes.pool
(** The calling thread's pool. *)
