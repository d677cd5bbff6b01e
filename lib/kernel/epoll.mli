(** The epoll kernel object: interest set + edge-triggered ready queue.

    Sockets and pipes push interest entries onto the ready queue at the
    state transition itself (via persistent {!Readiness.watch}es on
    their sources), so a wait costs O(ready) instead of the legacy
    poll's O(connections) rescan.
    Edge-triggered with arm-time level checks; ONESHOT entries disarm on
    delivery until re-armed by ctl(MOD).  The [e_queued] flag bounds the
    ready queue by the interest size and counts coalesced edges.

    Pure mechanism (no LWPs, costs or errnos) in the style of {!Socket}
    and {!Pipe}; the syscall layer owns fd validation and blocking. *)

type entry = {
  e_fd : int;
  mutable e_want_in : bool;
  mutable e_want_out : bool;
  mutable e_oneshot : bool;
  mutable e_armed : bool;
  mutable e_queued : bool;
  mutable e_dead : bool;
  mutable e_watches : Readiness.watch list;
}

type t

val create : id:int -> t
(** [id] is the owning fd number (for /proc and traces). *)

val id : t -> int
val closed : t -> bool
val find : t -> int -> entry option

val register : t -> fd:int -> want_in:bool -> want_out:bool -> oneshot:bool -> entry
(** Insert an armed, unqueued entry; the caller attaches the object
    watches and stores them in [e_watches], then runs the arm-time
    readiness check ({!note_edge} on a ready level). *)

val note_edge : t -> entry -> unit
(** An edge (or arm-time level hit) on an entry: enqueue it unless
    disarmed, already queued (counted as coalesced), dead, or the epoll
    is closed.  Fires blocked waiters on a genuine enqueue. *)

val kill_entry : t -> entry -> unit
(** Detach watches, mark dead, drop from the interest set.  A dead entry
    still in the ready queue is skipped by {!pop} — the
    removal-with-pending-readiness case. *)

val pop : t -> entry option
(** Next live ready entry (dead ones are discarded in passing); clears
    its queued flag.  [None] when the queue is empty. *)

val note_delivered : t -> entry -> unit
(** Delivery accounting; disarms ONESHOT entries. *)

val readiness : t -> Readiness.t
(** The ready queue's readiness: fires when an entry is enqueued or the
    epoll closes.  Each one-shot waiter it fires counts as a wakeup. *)

val close : t -> unit
(** Detach every watch, clear interest and ready, wake blocked waiters. *)

(** {1 Stats (procfs [pp_epoll], net_server debrief)} *)

val interest_count : t -> int
val ready_depth : t -> int
val edges : t -> int
val coalesced : t -> int
val wakeups : t -> int
val delivered : t -> int
