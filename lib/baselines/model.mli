(** A common concurrency interface over the thread architectures the
    paper compares itself against, so one workload runs unchanged on:

    - {!Mt} — the SunOS MT architecture (unbound threads, M:N);
    - {!Liblwp} — the SunOS 4.0 LWP library: user-level-only coroutines,
      where a blocking system call blocks the entire application;
    - {!Cthreads} — Mach 2.5-style 1:1: every thread is kernel-supported;
    - {!Activations} — University of Washington style: an upcall on every
      kernel block lets the library keep a virtual processor busy.

    The signature is deliberately a subset of the full thread API: only
    what the comparison workloads need.  The models share its common
    half (threads joined by id, the library's mutex and semaphore); each
    adds only how it boots the library and spawns threads. *)

module type S = sig
  val name : string

  val boot : ?cost:Sunos_hw.Cost_model.t -> (unit -> unit) -> unit -> unit
  (** Process-main wrapper for this model (pass to [Kernel.spawn]). *)

  type thread

  val spawn : (unit -> unit) -> thread
  val join : thread -> unit
  val yield : unit -> unit

  val set_concurrency : int -> unit
  (** Pre-size the LWP pool multiplexing unbound threads
      ([thread_setconcurrency]).  A no-op on models where the LWP count
      is fixed by the architecture: liblwp is pinned to one, cthreads is
      1:1, activations size their pool through upcalls. *)

  module Mu : sig
    type t

    val create : unit -> t
    val lock : t -> unit
    val unlock : t -> unit
  end

  module Sem : sig
    type t

    val create : int -> t
    val p : t -> unit
    val v : t -> unit
  end
end

val all : (module S) list
(** The four models, MT first. *)

val by_name : string -> (module S) option
