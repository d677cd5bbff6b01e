(** Mutual exclusion locks ([mutex_enter] / [mutex_exit] /
    [mutex_tryenter]).

    Low overhead in space and time; strictly bracketing — releasing a
    lock the calling thread does not hold raises.  The implementation
    variant is chosen at initialization, as in the paper:

    - [Sleep] (the default): contenders context-switch away at user
      level.
    - [Spin]: contenders burn CPU until the lock frees.  Only sensible
      for bound threads on a multiprocessor.
    - [Adaptive]: spin briefly while the owner is running on another
      LWP, otherwise sleep — the classic SunOS adaptive lock.

    A mutex created with {!create_shared} lives in a shared segment or
    mapped file and synchronizes threads across processes; contended
    operations then go through the kernel ([kwait]/[kwake]). *)

type t

type variant = Sleep | Spin | Adaptive

val create : ?variant:variant -> unit -> t
(** A process-private mutex ("statically allocated as zero": usable
    immediately, default variant). *)

val create_shared : ?robust:bool -> Syncvar.place -> t
(** The mutex at this shared placement — creating it if this is the
    first process to look, finding the existing state otherwise.

    [~robust:true] makes the lock robust: if its owner's process (or
    LWP) dies holding it, the kernel clears ownership, marks the lock
    word [OWNERDEAD] and wakes all contenders; the next acquirer — via
    {!enter_robust} — gets [`Owner_dead] {e with the lock held} and must
    repair the protected state, then call {!set_consistent}.
    Robustness is sticky: once any mapper asks for it, the lock word
    stays robust for everyone.  The word records its owner as (pid,
    tid) numbers and is the only record of it: the first request
    registers the word's check in its segment, which the kernel runs
    when a process mapping the segment dies or loses an LWP. *)

val enter : t -> unit
val exit : t -> unit
val try_enter : t -> bool
(** [try_enter] refuses an un-repaired robust lock ([`Owner_dead]
    pending) — only {!enter_robust} hands those out. *)

val enter_robust : t -> [ `Locked | `Owner_dead ]
(** Like {!enter}, but on a robust lock whose previous owner died the
    caller acquires anyway and is told [`Owner_dead]: it now holds the
    lock over possibly-inconsistent protected state and should repair
    it, then {!set_consistent}.  Private mutexes always return
    [`Locked]. *)

val set_consistent : t -> unit
(** Clear the [OWNERDEAD] flag; caller must hold the lock (raises
    {!Not_owner} otherwise). *)

val is_locked : t -> bool
(** Racy snapshot; for tests and assertions. *)

val owner_dead : t -> bool
(** Racy snapshot of the [OWNERDEAD] flag. *)

val holding : t -> bool
(** Whether the calling thread owns the mutex. *)

exception Not_owner
(** Raised by {!exit} when the caller does not hold the lock (mutexes
    are strictly bracketing). *)

exception Owner_dead
(** Raised by plain {!enter} on a robust lock in [OWNERDEAD] state:
    recovery requires the {!enter_robust} entry point. *)

(**/**)

val release_from : t -> Ttypes.tcb -> unit
(** Internal (Condvar): release on behalf of [tcb] while it parks. *)
