(** Kernel pipe: a bounded byte buffer with one {!Readiness.t} per end.

    The pipe knows nothing about LWPs; it fires the read end's readiness
    when data arrives or the writers close, and the write end's when
    room opens or the readers close.  The syscall layer builds blocking
    read/write, [poll] and epoll interest on those two sources. *)

type t

val default_capacity : int

val create : ?capacity:int -> unit -> t

val read : t -> len:int -> string
(** Up to [len] buffered bytes; [""] when empty (caller blocks/polls). *)

val write : t -> string -> int
(** Bytes accepted (bounded by free space); 0 when full. *)

val readable : t -> bool
(** Data buffered, or no writer left (EOF is readable). *)

val writable : t -> bool
val buffered : t -> int

val close_read : t -> unit
val close_write : t -> unit
val read_closed : t -> bool
val write_closed : t -> bool

val read_readiness : t -> Readiness.t
(** Fires at every transition that could let a reader make progress:
    data written, or the write end closed. *)

val write_readiness : t -> Readiness.t
(** Fires when a read makes room or the read end closes. *)
