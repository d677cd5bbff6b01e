(** The discrete-event core: a clock and a queue of timed callbacks.

    Every activity in the simulated machine — CPU cost charging, device
    completion interrupts, timer expiry, preemption — is an event.  Events
    scheduled for the same instant fire in scheduling order (FIFO), which
    makes whole-machine runs deterministic. *)

type t

type handle
(** A scheduled event.  Cancelling is O(1) (lazy deletion). *)

val create : unit -> t
(** An empty queue at time zero: one pairing heap that every CPU and
    device of a machine schedules into. *)

val now : t -> Time.t
(** Current simulated time. *)

val at : t -> Time.t -> (unit -> unit) -> handle
(** [at q time f] schedules [f] to run at absolute [time].  Scheduling in
    the past raises [Invalid_argument]. *)

val after : t -> Time.span -> (unit -> unit) -> handle
(** [after q d f] = [at q (now q + d) f]. *)

val cancel : handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val is_pending : handle -> bool

val run_one : t -> bool
(** Fire the next event, advancing the clock.  [false] if queue empty. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Drain the queue.  Stops when empty, when the next event lies beyond
    [until] (clock is then left at [until]), or after [max_events]. *)

val on_drain : t -> (unit -> unit) -> unit
(** Register a hook fired by {!run} when it stops because the queue is
    truly empty (not horizon- or budget-limited).  Diagnostic observers
    — e.g. the thread sanitizer's hang check — inspect the stalled
    machine here.  Hooks run in registration order; events a hook
    schedules are left queued, not run. *)

val next_time : t -> Time.t option
(** Earliest instant at which anything can happen: the time of the first
    live event, clamped to the [until] horizon of the {!run} currently
    draining this queue (if any).  [None] when nothing is pending and no
    horizon binds.  Used by run-ahead accounting to bound how far a
    fiber may execute without settling: no event can fire strictly
    before this instant, so no simulated observer exists inside the
    window. *)

val pending_count : t -> int
(** Number of live (non-cancelled, unfired) events still queued.  Exact:
    cancellation is accounted immediately even though the heap deletes
    lazily. *)

val heap_population : t -> int
(** Entries physically in the heap, including cancelled ones awaiting
    lazy deletion.  Compaction keeps this within ~2x of
    [pending_count]; exposed for the cancel-churn tests. *)

val events_fired : t -> int
(** Total events fired since creation (for stats and loop-bound tests). *)
