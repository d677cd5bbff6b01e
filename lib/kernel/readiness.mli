(** Readiness of one direction of a pollable object (a pipe end, a
    socket direction, a listener's backlog, an epoll ready queue).

    The object calls {!fire} at every transition that may have made that
    direction ready — data arrived, room opened, EOF, reset, close — and
    knows nothing about who listens.  Two kinds of subscriber listen:

    - one-shot {e waiters} (blocked calls, [poll]): fired once, oldest
      first, then dropped;
    - persistent {e watches} (epoll interest entries): fired at every
      transition, newest first, until {!unwatch}ed.

    Neither registration checks the current level: the caller has just
    found the object not ready (a blocked call's attempt failed) or
    performs its own level check (epoll's arm time).  Spurious firings
    are part of the contract; every subscriber re-checks. *)

type t

val create : unit -> t

val wait : t -> (unit -> unit) -> unit
(** Register a one-shot waiter for the next {!fire}.  A waiter
    registered while a {!fire} runs waits for the following one. *)

type watch

val watch : t -> (unit -> unit) -> watch
(** Register a persistent watch. *)

val unwatch : watch -> unit
(** Detach; idempotent and O(1).  The watch is skipped from now on and
    pruned at the next {!fire}. *)

val fire : t -> unit
(** Run the waiters registered so far, oldest first, then the live
    watches; prune the dead watches. *)

val waiters : t -> int
(** One-shot waiters registered and not yet fired. *)

val watches : t -> int
(** Watches held, counting unwatched ones not yet pruned. *)
