(** Connection-oriented stream sockets (kernel mechanism).

    A connection is a pair of bounded byte streams between two endpoints,
    one per direction.  A [write] accepts at most
    [capacity - buffered - in_flight] bytes into the sender's window and
    delivers them into the peer's receive buffer after a transfer time
    plus half a network round trip ({!Sunos_hw.Devices.Net.send}); the
    window reopens only when the receiver drains — which is what gives a
    fast writer backpressure against a slow reader.  EOF is ordered
    after all in-flight data.  Closing an endpoint whose receive side
    still holds undelivered data aborts the connection: the peer's
    subsequent reads and writes fail with a reset.

    Listeners live in a per-kernel {!registry} under a string service
    name.  Connection admission happens when the (simulated) SYN arrives
    at the listener: if the listener is gone or its backlog is full the
    connect is refused, otherwise the server endpoint joins the pending
    queue until an [accept] collects it.

    Like {!Pipe}, this module is policy-free: no LWPs, no costs, no
    errnos — just state transitions, and a {!Readiness.t} per direction
    and per listener that the syscall layer builds blocking calls,
    [poll] and epoll interest on. *)

type endpoint
type listener
type registry

val create_registry : unit -> registry
val default_capacity : int

(** {1 Listeners} *)

val listen :
  registry ->
  name:string ->
  backlog:int ->
  ?capacity:int ->
  unit ->
  (listener, [ `Addr_in_use ]) result

val lookup : registry -> string -> listener option

val try_admit : listener -> net:Sunos_hw.Devices.Net.t -> endpoint option
(** Admission at SYN arrival.  [None] = refused (closed listener or full
    backlog); [Some client_ep] = the connection is established and its
    server endpoint queued for accept. *)

val accept : listener -> endpoint option
val acceptable : listener -> bool

val accept_readiness : listener -> Readiness.t
(** Fires on every pending-queue arrival {e and} on listener close (so
    blocked acceptors can fail out). *)

val close_listener : listener -> unit
(** Deregisters the name and aborts never-accepted pending connections. *)

val listener_closed : listener -> bool
val listener_name : listener -> string

(** {1 Endpoints} *)

val read : endpoint -> len:int -> [ `Data of string | `Eof | `Empty | `Reset ]
val write : endpoint -> string -> [ `Accepted of int | `Full | `Reset ]
val close : endpoint -> unit

val abort : endpoint -> unit
(** Abortive teardown (fault injection: mid-stream RST).  Both streams
    die instantly and every direction's readiness fires, so blocked
    readers, writers and pollers observe the reset. *)

val stall : endpoint -> until:Sunos_sim.Time.t -> unit
(** Fault injection: the peer of [endpoint] stops draining — deliveries
    on the endpoint's outgoing direction are deferred to [until] (byte
    order preserved, window stays closed: a stall is backpressure, not
    loss). *)

val readable : endpoint -> bool
val writable : endpoint -> bool

val read_readiness : endpoint -> Readiness.t
(** The endpoint's receive direction: fires at every delivery, at the
    ordered EOF, on reset and on close. *)

val write_readiness : endpoint -> Readiness.t
(** The endpoint's send direction: fires when the peer's read opens the
    window, on reset and on close. *)

val pair :
  net:Sunos_hw.Devices.Net.t -> ?capacity:int -> unit -> endpoint * endpoint
(** A connected pair without the listen/connect handshake. *)
