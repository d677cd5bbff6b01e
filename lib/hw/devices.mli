(** Simulated I/O devices with service-time queues.

    Each device accepts requests and invokes a completion callback from
    the event queue after its modeled service time.  The kernel layer
    turns completions into LWP wakeups (interrupt handling cost is charged
    there). *)

module Disk : sig
  (** Single-spindle disk: FIFO, one request in service at a time. *)

  type t

  val create :
    eventq:Sunos_sim.Eventq.t -> access_time:Sunos_sim.Time.span -> unit -> t
  (** Service time is exactly [access_time] plus the transfer. *)

  val submit : t -> bytes_:int -> on_complete:(unit -> unit) -> unit
  (** [bytes_] adds transfer time at 1 MiB/s (a 1991 SCSI disk). *)

  val queue_length : t -> int
  val completed : t -> int
end

module Net : sig
  (** Network interface: unlimited concurrency, per-message latency. *)

  type t

  val create : eventq:Sunos_sim.Eventq.t -> rtt:Sunos_sim.Time.span -> unit -> t

  val send : t -> bytes_:int -> on_complete:(unit -> unit) -> unit
  (** Completion fires after one-way latency (rtt/2) + transfer time. *)

  val request_response : t -> bytes_:int -> on_complete:(unit -> unit) -> unit
  (** Completion fires after a full round trip. *)

  val in_flight : t -> int
  val completed : t -> int

  val now : t -> Sunos_sim.Time.t

  val delay : t -> Sunos_sim.Time.span -> (unit -> unit) -> unit
  (** Re-schedule a deferred delivery after [span]; counted in flight
      like a transfer.  Used for fault-injected peer stalls. *)
end
