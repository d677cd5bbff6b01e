(** The discrete-event core: a clock and a queue of timed callbacks.

    Every activity in the simulated machine — CPU cost charging, device
    completion interrupts, timer expiry, preemption — is an event.  Events
    scheduled for the same instant fire in scheduling order (FIFO), which
    makes whole-machine runs deterministic. *)

type t

type handle
(** A scheduled event.  Cancelling is O(1) (lazy deletion). *)

val create : unit -> t
(** An empty queue at time zero: one binary heap that every CPU and
    device of a machine schedules into, and a one-entry register beside
    it for the earliest armed entry (see {!arm}). *)

val now : t -> Time.t
(** Current simulated time.  The queue keeps its clock as an int, and
    boxes it here the first time it is read after it moved. *)

val at : t -> Time.t -> (unit -> unit) -> handle
(** [at q time f] schedules [f] to run at absolute [time].  Scheduling in
    the past, or beyond [max_int] ns (about 146 years), raises
    [Invalid_argument]. *)

val after : t -> Time.span -> (unit -> unit) -> handle
(** [after q d f] = [at q (now q + d) f]. *)

val set_target : t -> (int -> int -> unit) -> unit
(** [set_target q f] makes [f] the queue's target: the function each
    entry {!arm} makes calls when it fires, with that entry's tag and
    seq.  A queue has one; the kernel sets it to end its CPUs' busy
    intervals, with a CPU's index as the tag.  Until it is set, firing
    an armed entry raises [Invalid_argument]. *)

val arm : t -> tag:int -> int -> int
(** [arm q ~tag d] schedules a call of [q]'s target with [tag] at
    [now q + d] ns and returns the entry's seq, which the call also
    receives.  Its place in the firing order is the one {!after} would
    give it.  Arming writes three ints and allocates nothing: no handle,
    no closure, no boxed time.  The entry goes to the register when that
    is empty, or when it ends strictly earlier than the entry the
    register holds, which then moves to the heap with its seq; else it
    goes to the heap.  The entry cannot be cancelled, so the target
    tells a stale firing by the seq.  A negative [tag] raises
    [Invalid_argument]; so do a negative [d] and a time beyond
    [max_int] ns, with the errors {!at} raises. *)

val span_ns : Time.span -> int
(** A span as {!arm} takes it, in int ns.  A span past [max_int] ns,
    which no entry could end by the last instant, raises as {!at} does
    for a time beyond [max_int], and one below [min_int] as for a time
    in the past, rather than wrap. *)

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

val time_to_next : t -> cap:int -> int
(** Nanoseconds from now to the earliest instant at which anything can
    happen: the time of the first live event, clamped to the [until]
    horizon of the {!run} currently draining this queue (if any), or
    [cap] if that is sooner or nothing is pending and no horizon binds.
    Used by run-ahead accounting to bound how far a fiber may execute
    without settling: no event can fire strictly before this instant,
    so no simulated observer exists inside the window.  Allocates
    nothing. *)

val pending_count : t -> int
(** Number of live (non-cancelled, unfired) events still queued.  Exact:
    cancellation is accounted immediately even though the heap deletes
    lazily. *)

val heap_population : t -> int
(** Entries physically in the heap, including cancelled ones awaiting
    lazy deletion, and not the register's.  Compaction keeps this within
    ~2x of [pending_count]; exposed for the cancel-churn tests. *)

val events_fired : t -> int
(** Total events fired since creation (for stats and loop-bound tests). *)

val register_fired : t -> int
(** Of {!events_fired}, the armed entries fired from the register, which
    no heap push or pop touched. *)
