(** POSIX P1003.4a-style threads implemented on top of the SunOS MT
    architecture — the layering the paper's summary calls out ("a
    minimalist translation of the UNIX environment to threads allows
    higher-level interfaces such as POSIX Pthreads to be implemented on
    top of SunOS threads").

    Everything here is user-level sugar over {!Sunos_threads}: pthreads
    map to THREAD_WAIT threads (detached ones drop the flag), mutex
    attributes select the implementation variant, condition timedwait is
    built from condvars plus thread_kill-driven wakeups, and
    thread-specific data is the dynamic mechanism the paper says can be
    built over thread-local storage. *)

type t
(** A pthread handle. *)

type attr = {
  detached : bool;  (** detached threads cannot be joined *)
  bound : bool;  (** PTHREAD_SCOPE_SYSTEM: bind to an LWP *)
  priority : int option;
  stack_size : int option;  (** caller-managed stack of this size *)
}

val default_attr : attr

val create : ?attr:attr -> (unit -> unit) -> t
val join : t -> unit
(** Raises [Invalid_argument] on a detached thread or double join. *)

val detach : t -> unit
val self : unit -> int
val equal : t -> t -> bool
val exit : unit -> 'a
val yield : unit -> unit

(** {1 Once-only initialization} *)

type once

val once_init : unit -> once
val once : once -> (unit -> unit) -> unit
(** The first caller runs [f]; concurrent callers wait for it to finish. *)

(** {1 Mutexes} *)

module Mutex : sig
  type t

  type kind =
    | Normal  (** self-deadlock on relock, like PTHREAD_MUTEX_NORMAL *)
    | Errorcheck  (** relock and wrong-owner unlock raise *)

  val create : ?kind:kind -> unit -> t
  val lock : t -> unit
  val unlock : t -> unit
  val trylock : t -> bool
end

(** {1 Condition variables} *)

module Cond : sig
  type t

  val create : unit -> t
  val wait : t -> Mutex.t -> unit

  val timedwait : t -> Mutex.t -> Sunos_sim.Time.span -> [ `Signaled | `Timeout ]
  (** Returns [`Timeout] if the timeout elapses first; the mutex is held
      again either way. *)

  val signal : t -> unit
  val broadcast : t -> unit
end

(** {1 Semaphores (POSIX 1003.1b style)} *)

module Sem : sig
  type t

  val create : int -> t
  val wait : t -> unit
  val trywait : t -> bool
  val post : t -> unit
  val getvalue : t -> int
end

(** {1 Barriers} *)

module Barrier : sig
  type t

  val create : int -> t

  val wait : t -> bool
  (** [true] for exactly one thread per generation (the
      PTHREAD_BARRIER_SERIAL_THREAD return). *)
end

(** {1 Reader/writer locks} *)

module Rwlock : sig
  type t

  val create : unit -> t
  val rdlock : t -> unit
  val wrlock : t -> unit
  val tryrdlock : t -> bool
  val trywrlock : t -> bool
  val unlock : t -> unit
end

(** {1 Thread-specific data}

    The dynamic mechanism the paper says can be built over thread-local
    storage: keys created at any time, with optional destructors run at
    thread exit (here: at [join]/normal return of threads created by this
    layer). *)

module Key : sig
  type 'a t

  val create : ?destructor:('a -> unit) -> unit -> 'a t
  val get : 'a t -> 'a option
  val set : 'a t -> 'a -> unit
  val delete : 'a t -> unit
  (** Existing values are dropped without running destructors (POSIX). *)
end
