(** A simulated processor.

    The CPU itself is mostly an accounting record — which kernel entity
    occupies it and for how long it has been busy/idle.  The dispatcher in
    the kernel layer decides occupancy; the occupant is identified by the
    kernel's LWP id (an int here to keep the layering acyclic). *)

type t

val create : id:int -> t
val id : t -> int

val occupant : t -> int option
(** LWP id currently executing on this CPU, if any. *)

val set_occupant : t -> now:Sunos_sim.Time.t -> int option -> unit
(** Also folds the elapsed interval into busy/idle accounting. *)

val need_resched : t -> bool
val set_need_resched : t -> bool -> unit
(** Set when a preemption decision is pending; honored by the kernel at
    the next charge boundary of the running LWP. *)

val busy_time : t -> now:Sunos_sim.Time.t -> Sunos_sim.Time.span
val idle_time : t -> now:Sunos_sim.Time.t -> Sunos_sim.Time.span

val utilization : t -> now:Sunos_sim.Time.t -> float
(** Busy fraction since boot, in [0,1]; 0 when no time has passed. *)
