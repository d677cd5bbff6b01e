(** Synchronization-variable placement.

    The paper lets synchronization variables live in ordinary memory, in
    shared memory, or in mapped files; variables in shared mappings
    synchronize threads of every process that maps them, regardless of
    the virtual address, and can outlive their creator.  Here, "placing"
    a variable in a segment installs its state record at a segment
    offset; any process that locates the same (segment, offset) gets the
    very same record.  The kernel only learns about the variable when a
    thread blocks on it ([kwait]/[kwake]), exactly as the paper says. *)

type place = {
  seg : Sunos_hw.Shared_memory.t;
  offset : int;
}

val place : Sunos_hw.Shared_memory.t -> offset:int -> place

val locate :
  place -> key:'a Sunos_sim.Univ.key -> make:(unit -> 'a) -> 'a
(** The state record at this placement: created on first use (by any
    process), found thereafter.  Raises [Invalid_argument] if the offset
    holds a different kind of variable. *)

val wait :
  place ->
  ?timeout:Sunos_sim.Time.span ->
  expect:(unit -> bool) ->
  unit ->
  [ `Woken | `Timeout ]
(** Kernel-assisted block on the variable ([kwait]): sleeps only if
    [expect ()] still holds at sleep time. *)

val wake : place -> count:int -> int
(** Wake up to [count] waiters across all processes ([kwake]). *)

val wake_all : place -> int

val dead_holder : pid:int -> proc_exit:bool -> int -> int -> bool
(** [dead_holder ~pid ~proc_exit hpid htid]: does a death in process
    [pid] take the robust-word holder [(hpid, htid)] with it?  A process
    exit takes all its holders; an LWP exit only those whose thread has
    exited, as the thread table the library publishes says. *)
