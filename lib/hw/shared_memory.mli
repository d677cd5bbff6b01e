(** Shared-memory segments: the home of process-shared data.

    A segment is a named array of pages plus a table of typed cells at
    byte offsets.  "Mapping" a segment gives a process a handle to the
    very same cells, which is how synchronization variables placed in
    shared memory (or in mapped files — a file's backing store is a
    segment) are seen by every mapping process, regardless of the virtual
    address each maps it at (cells are keyed by segment offset).  A
    segment persists whoever maps it (files outlive their mappers, as in
    the paper); the kernel's mapping tables say who does.

    Page residency is tracked so the kernel can charge page faults, and
    each robust lock word is registered in the segment it lives in. *)

type t

val create : name:string -> size:int -> t
(** [size] in bytes; pages are 4 KiB. *)

val clone : t -> t
(** A copy-on-fork snapshot: fresh id, same name/size, cell table and
    residency copied, no robust word.  {!clone_of} on the copy returns
    the source segment, so the kernel can translate stale parent handles
    held by forked children, and sweep the robust words those handles
    name. *)

val id : t -> int
(** Unique across all segments ever created; keys the kernel's wait table. *)

val anon_private : t -> bool

val mark_anon_private : t -> unit
(** Tag a private anonymous mapping: at [fork] the kernel replaces it in
    the child's mapping table with a {!clone}, so writes stop aliasing
    across the process boundary.  Named/file/shared segments stay
    system-wide objects and are never marked. *)

val clone_of : t -> t option

val name : t -> string
val size : t -> int
val page_count : t -> int

val put : t -> offset:int -> Sunos_sim.Univ.t -> unit
(** Install a cell at [offset].  Raises [Invalid_argument] if out of
    bounds or if a cell already occupies the offset. *)

val get : t -> offset:int -> Sunos_sim.Univ.t option

val remove : t -> offset:int -> unit

type check = pid:int -> lib:Sunos_sim.Univ.t option -> proc_exit:bool -> bool
(** A robust word's check, run when process [pid] dies ([~proc_exit:true])
    or loses an LWP: it repairs the word if a holder died, and says so.
    [lib] is what the dying process's threads library registered with
    its kernel (its thread table), if any: at an LWP exit it tells
    which of the process's threads are gone. *)

val register_robust : t -> offset:int -> check -> unit
(** Once per robust word, when robustness is turned on.  The word itself
    records its holders, so acquire and release touch nothing here. *)

val sweep_robust :
  t ->
  pid:int ->
  lib:Sunos_sim.Univ.t option ->
  proc_exit:bool ->
  (int * int) list ->
  (int * int) list
(** Run every robust word's check, prepending [(id, offset)] for each
    word repaired; allocates nothing when none is. *)

val resident : t -> page:int -> bool
val make_resident : t -> page:int -> unit
val evict : t -> page:int -> unit
val evict_all : t -> unit
val page_of_offset : offset:int -> int
