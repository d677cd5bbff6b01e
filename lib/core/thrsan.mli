(** thrsan: a deterministic runtime sanitizer for the sync stack.

    Three capabilities, all pure OCaml mutation (never a charge or a
    syscall), so enabling the sanitizer cannot perturb the simulated
    schedule — same-seed runs stay bit-identical:

    - a {b waits-for graph} over every user-level sync object (mutex,
      condvar, semaphore, rwlock, syncvar), with an incremental cycle
      check at each block that raises a structured {!Deadlock} report
      (blocked thread → object → holder chain, with object names and
      acquisition stamps);
    - pool-wide {b lock-order checking} (transitive DFS, not just direct
      ABBA) shared with {!Lockdebug};
    - {b hang diagnosis}: {!watch} hooks the machine's event-queue drain
      and reports who is still blocked on what, and who last held it.

    Enable with the [THRSAN] environment variable (the [@sanitize] dune
    alias does this) or programmatically with {!enable}.  The switches
    are process-wide; the sanitizer's state (object ids, acquisition
    stamps, graphs, reports) is one record per domain, so machines may
    run sanitized on several domains at once.  Every sync object makes
    its identity when it is created, and every hook tests the switch
    itself: primitives call the hooks unconditionally, and when the
    sanitizer is off each costs one [bool] load and branch — no
    allocation, no formatting. *)

(** {1 Switches} *)

val tracking : unit -> bool
(** Whether the sanitizer is on ([THRSAN] env var, {!enable}).  Only
    callers that compute something for the sanitizer alone need it; the
    hooks below test it themselves. *)

val enable : unit -> unit
val disable : unit -> unit

val set_lock_order_mode : bool -> unit
(** Pool-wide lock-order checking over plain mutexes, rwlocks and
    semaphores.  Separate switch from {!enable}: ordering heuristics can
    reject legitimate programs, so [THRSAN=1] alone enables only the
    false-positive-free checks. *)

(** {1 Sanitizer objects} *)

val new_obj : kind:string -> ?name:string -> unit -> Ttypes.san_obj
(** A sanitizer identity for one sync object, made with the object
    whether or not the sanitizer is on, so ids count objects in creation
    order.  Without [name], reports call the object ["kind#id"]; that
    name and the last acquirer's ["pid/tid"] are formatted only when a
    report is built. *)

val place_name : Sunos_hw.Shared_memory.t -> offset:int -> string
(** How reports name an object at a shared-memory location:
    ["seg+offset"], after the segment's name.  A shared mutex's or
    rwlock's lock word names its identity so when it is first located. *)

val shared_obj :
  kind:string ->
  ?name:string ->
  seg:Sunos_hw.Shared_memory.t ->
  offset:int ->
  unit ->
  Ttypes.san_obj
(** The registered identity of an object at a shared-memory location
    that has no state record to keep it (a bare {!Syncvar.wait}, a
    {!Lockdebug} shared lock), keyed by ([kind], segment id, offset) so
    every process resolves the same location to the same object, and
    two segments of one name (every anonymous segment is ["[anon]"])
    stay apart.  Named by {!place_name} without [name]. *)

(** {1 Waits-for graph} *)

type wait_link = {
  wl_pid : int;
  wl_tid : int;
  wl_obj_id : int;
  wl_obj_kind : string;
  wl_obj_name : string;
  wl_acq_seq : int;  (** acquisition stamp of the object's current hold *)
  wl_holders : (int * int) list;  (** (pid, tid) of each holder *)
}

type deadlock_report = { dl_links : wait_link list; dl_text : string }

exception Deadlock of deadlock_report

val last_deadlock : unit -> deadlock_report option
(** The most recent deadlock report (also carried by the exception; the
    process dies of it like any uncaught error, so tests read it here). *)

(** The hooks below do nothing while the sanitizer is off. *)

val acquiring : Ttypes.tcb -> Ttypes.san_obj -> unit
(** About to acquire: runs the lock-order check when order mode is on
    too.
    @raise Lock_order_violation on a recorded-order inversion. *)

val acquired : Ttypes.tcb -> Ttypes.san_obj -> unit
(** Acquisition succeeded: records the holder and the acquisition
    stamp. *)

val released : Ttypes.tcb -> Ttypes.san_obj -> unit

val blocked_on : ?skip_self_hold:bool -> Ttypes.tcb -> Ttypes.san_obj -> unit
(** About to block on the object: records the waits-for edge and runs
    the cycle check.  [skip_self_hold] exempts the caller's own hold of
    this object only (a pending rwlock upgrader waits on a lock it still
    holds as a reader).
    @raise Deadlock when the edge closes a cycle. *)

val clear_wait : Ttypes.tcb -> unit
(** Clear the waits-for edge (kernel-wait paths, where no
    [Pool.make_ready] runs on wakeup). *)

(** {1 Lock-order graph (shared with Lockdebug)} *)

exception Lock_order_violation of string * string
(** [(held, wanted)]: acquiring [wanted] while holding [held]
    contradicts the recorded order, transitively. *)

val check_order : Ttypes.tcb -> Ttypes.san_obj -> unit
(** Unconditional order check + edge recording (Lockdebug's always-on
    path; {!acquiring} is the order-mode-gated variant). *)

val held_push : Ttypes.tcb -> Ttypes.san_obj -> unit
val held_pop : Ttypes.tcb -> Ttypes.san_obj -> unit
val reset_order_graph : unit -> unit

(** {1 Bare-park audit} *)

val note_bare_park : Ttypes.tcb -> unit
(** Called by the scheduler when a park function sets [Tblocked] but
    leaves the thread's wait generation unchanged: it registered no wait
    ({!Ttypes.register}), so no waker can find the thread.  A waits-for
    edge does not excuse it; no waker reads that. *)

val bare_parks : unit -> (int * int) list
(** (pid, tid) of every thread caught bare-parking, oldest first. *)

(** {1 Hang diagnosis} *)

type hung_thread = {
  ht_pid : int;
  ht_tid : int;
  ht_state : string;  (** ["blocked"] or ["runnable"] (starved) *)
  ht_on : string;  (** object description, [""] when unknown *)
  ht_holders : (int * int) list;
  ht_last_holder : string;
}

type sleeping_lwp = {
  hl_pid : int;
  hl_lid : int;
  hl_wchan : string;
  hl_indefinite : bool;
}

type hang_report = {
  hr_threads : hung_thread list;
  hr_lwps : sleeping_lwp list;
  hr_text : string;
}

val watch : Sunos_kernel.Ktypes.kernel -> unit
(** Install a drain hook on the kernel's event queue: when the queue
    empties while threads remain blocked (or runnable with every LWP
    asleep), build a {!hang_report}, store it for {!last_hang} and emit
    it on the trace under tag ["thrsan"].  Threads are read from each
    process's own table, the pool its library's LWPs named to the
    kernel ([proc.lib]). *)

val last_hang : unit -> hang_report option

(** {1 Housekeeping} *)

val reset : unit -> unit
(** Start this domain's sanitizer over, in place: clear its reports,
    bare-park list, order graph and shared-object registry, and restart
    object ids and acquisition stamps, so a scenario run after a reset
    renders the same reports on any domain.  An object made before a
    reset must not be used after it (tests; each explored schedule). *)
