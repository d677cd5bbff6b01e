(** Bounded execution trace of typed records.

    The kernel and the threads library emit records; tests assert on them
    (e.g. the Figure 2 pick/run/save/pick sequence) and the CLI prints
    them.  A record is a constant {!kind} plus a few integer and string
    fields, stored as given: nothing is formatted when it is emitted.
    {!tag} and {!message} render it when it is read.

    The buffer is a ring whose capacity is a bound reached on demand: it
    starts empty, doubles as records arrive, and once full drops its
    oldest records first. *)

(** What happened.  The fields a kind uses, and the text it renders
    to; a field a kind does not use is [-1] or [""]. *)
type kind =
  | Spawn  (** ["pid (name) created with lwp"] *)
  | Dispatch  (** ["cpu <- pid/lwp"] *)
  | Preempt  (** ["cpu drops pid/lwp"] *)
  | Sleep
      (** ["pid/lwp on name"]: [name] is the wait channel; [arg] is 1
          when the sleep is indefinite *)
  | Sigwaiting  (** ["pid: all arg LWPs in indefinite waits"] *)
  | Lwp_exit  (** ["pid/lwp"] *)
  | Exit  (** ["pid (name) status=arg"] *)
  | Panic  (** ["pid/lwp uncaught exception: name"] *)
  | Ownerdead
      (** ["seg arg + arg2 woke=arg3"]: a robust sweep woke [arg3]
          sleepers on futex channel ([arg], [arg2]) *)
  | Chaos  (** [name]: the fault site that fired *)
  | Proc_kill  (** ["proc-kill pid (name) in name2"]: [name2] is the syscall *)
  | Lwp_reap  (** ["lwp-reap kills pid/lwp"] *)
  | Stop  (** ["pid stopped"] *)
  | Continue  (** ["pid continued"] *)
  | Signal
      (** ["pid <- name"]: a process-directed signal; [arg] is its number *)
  | Signal_lwp  (** ["pid/lwp <- name"]; [arg] is the signal number *)
  | Exec  (** ["pid becomes name"] *)
  | Listen  (** ["pid listens on name backlog=arg2 fd arg"] *)
  | Connect  (** ["pid -> name fd arg"] *)
  | Connect_refused  (** ["pid -> name refused"] *)
  | Accept  (** ["pid accepts on name -> fd arg"] *)
  | Epoll_create  (** ["pid epoll_create -> fd arg"] *)
  | Shed  (** ["pid sheds a connection (total arg)"] *)
  | Thrsan  (** [name]: the sanitizer's hang report *)

type record = {
  time : Time.t;
  kind : kind;
  cpu : int;
  pid : int;
  lwp : int;
  name : string;
  name2 : string;
  arg : int;
  arg2 : int;
  arg3 : int;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 65536 records) bounds the ring; no slot is
    allocated until a record needs it.
    @raise Invalid_argument if [capacity < 1]. *)

val emit :
  t ->
  time:Time.t ->
  kind ->
  cpu:int ->
  pid:int ->
  lwp:int ->
  name:string ->
  name2:string ->
  arg:int ->
  arg2:int ->
  arg3:int ->
  unit
(** Record an event if {!interested}; otherwise do nothing and allocate
    nothing. *)

val tag : record -> string
(** The tag its kind is filed and filtered under: ["dispatch"],
    ["sleep"], ... Several kinds share one ([Chaos], [Proc_kill] and
    [Lwp_reap] are all ["chaos"]). *)

val message : record -> string
(** The record rendered as text, as {!kind} describes. *)

val records : t -> record list
(** Oldest first. *)

val find : t -> tag:string -> record list
val clear : t -> unit

val dropped : t -> int
(** Records overwritten since creation or the last {!clear}. *)

val pp : Format.formatter -> t -> unit
(** One line per record: time, tag and message. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Disabling makes [emit] a no-op; benchmarks disable tracing. *)

val interested : t -> kind -> bool
(** [enabled] and (when an interest set is installed) the kind's tag is
    in it. *)

val set_interest : t -> string list option -> unit
(** [Some tags] records only kinds filed under those tags; [None] (the
    default) records every kind. *)
