(** Debugging variant of mutual-exclusion locks.

    The paper lets the programmer pick "extra debugging" implementations
    when a synchronization variable is initialized; this module is that
    variant: a mutex that additionally

    - detects self-deadlock (relocking a lock the thread already holds)
      and raises instead of hanging;
    - tracks the lock-order graph (the domain's one, shared with
      {!Thrsan}, so edges from sanitizer-tracked plain mutexes and
      rwlocks land in the same graph) and raises on an acquisition that
      closes an ordering cycle — checked transitively, so A→B→C→A is
      caught, not just direct ABBA — naming the two locks involved;
    - keeps statistics: acquisitions, contended acquisitions, and the
      longest hold time.

    The checks cost extra user-level work (charged to the simulated
    clock), which is exactly why they are an opt-in variant. *)

type t

exception Self_deadlock of string
exception Lock_order_violation of string * string
    (** [(held, wanted)]: acquiring [wanted] while holding [held]
        contradicts a previously recorded order, transitively.  The
        same exception as {!Thrsan.Lock_order_violation}. *)

val create : name:string -> t

val create_shared : ?robust:bool -> name:string -> Syncvar.place -> t
(** A debugging wrapper over [Mutex.create_shared] at this placement.
    All processes wrapping the same (segment, offset) share one node in
    the lock-order graph, so cross-process ordering cycles are caught;
    statistics stay per-handle (each process sees its own counts). *)

val name : t -> string

val enter : t -> unit
val exit : t -> unit
val try_enter : t -> bool

val acquisitions : t -> int
val contentions : t -> int
val max_hold : t -> Sunos_sim.Time.span

val reset_order_graph : unit -> unit
(** Forget this domain's recorded lock orderings (for tests). *)
