(** Multiple-readers, single-writer locks ([rw_enter] / [rw_exit] /
    [rw_tryenter] / [rw_downgrade] / [rw_tryupgrade]).

    Many simultaneous readers or one writer; good for objects searched
    far more often than changed.  Waiting writers block new readers
    (writer preference), so readers cannot starve writers. *)

type t

type rw = Reader | Writer

val create : unit -> t

val create_shared : ?robust:bool -> Syncvar.place -> t
(** The rwlock at this shared placement (creating on first look).
    [~robust:true]: if the writer's process or LWP dies holding the
    lock, the kernel clears ownership, flags [OWNERDEAD] and wakes all
    contenders; the next acquirer — via {!enter_robust}, whichever side
    it asked for — is admitted as the {e writer} so it can repair the
    protected state, then {!set_consistent} (and possibly {!downgrade}).
    A dead {e reader}'s hold is simply dropped (readers cannot have
    corrupted anything).  Sticky, and registered once in the segment,
    as with [Mutex.create_shared]; the word lists every read hold by
    (pid, tid). *)

val enter : t -> rw -> unit
val exit : t -> unit
(** Releases whichever side the calling thread holds.  Raises
    [Mutex.Not_owner]-style [Failure] if it holds neither. *)

val enter_robust : t -> rw -> [ `Locked | `Owner_dead ]
(** Like {!enter}, but an [OWNERDEAD] robust lock is handed out anyway:
    the caller gets [`Owner_dead] holding the {e write} side regardless
    of the side requested, repairs, then {!set_consistent}.  Private
    rwlocks always return [`Locked]. *)

val set_consistent : t -> unit
(** Clear the [OWNERDEAD] flag; caller must hold the write side. *)

exception Owner_dead
(** Raised by plain {!enter} on a robust lock in [OWNERDEAD] state. *)

val try_enter : t -> rw -> bool
(** Refuses an un-repaired robust lock ([OWNERDEAD] pending). *)

val downgrade : t -> unit
(** Atomically turn the calling thread's writer lock into a reader lock.
    Waiting writers keep waiting; with no waiting writer, pending readers
    are admitted. *)

val try_upgrade : t -> bool
(** Attempt to turn a reader lock into a writer lock atomically.  Fails
    (returning [false], still holding the reader lock) when another
    upgrade is in progress or writers are waiting. *)

val readers : t -> int
val has_writer : t -> bool

val bug14_bare_upgrader : bool ref
(** Seeded-bug knob for the schedule explorer: [true] reverts the BUG 14
    fix (the pending upgrader parks bare and promotion re-readies it
    through its TCB even when it is awake in a signal handler).  The
    explorer's rwlock-upgrade scenario must find a failing schedule with
    this on and none with it off.  Tests only. *)

val owner_dead : t -> bool
(** Racy snapshot of the [OWNERDEAD] flag. *)
