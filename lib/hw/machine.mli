(** The machine: CPUs + devices + cost model + the event queue that drives
    them.  One [Machine.t] per simulation. *)

type t = {
  eventq : Sunos_sim.Eventq.t;
  cpus : Cpu.t array;
  disk : Devices.Disk.t;
  net : Devices.Net.t;
  tty : Devices.Tty.t;
  cost : Cost_model.t;
  trace : Sunos_sim.Tracebuf.t;
  rng : Sunos_sim.Rng.t;
  chaos : Sunos_sim.Faultgen.t;
}

val create :
  ?cpus:int ->
  ?cost:Cost_model.t ->
  ?seed:int64 ->
  ?trace_capacity:int ->
  ?chaos:Sunos_sim.Faultgen.profile ->
  unit ->
  t
(** Defaults: 1 CPU (the paper's measurement platform was a uniprocessor),
    {!Cost_model.default}, seed 1, chaos profile from [SUNOS_CHAOS]
    (off when unset).  The chaos stream is seeded independently of the
    machine's workload stream.  Every CPU and device shares the one
    event queue. *)

val now : t -> Sunos_sim.Time.t
val ncpus : t -> int

val trace : t -> tag:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Emit a trace record stamped with the current time. *)

val run : ?until:Sunos_sim.Time.t -> ?max_events:int -> t -> unit
(** Drain the event queue (see {!Sunos_sim.Eventq.run}). *)
