(** The machine: CPUs + devices + cost model + the event queue that drives
    them.  One [Machine.t] per simulation. *)

type t = {
  eventq : Sunos_sim.Eventq.t;
  cpus : Cpu.t array;
  disk : Devices.Disk.t;
  net : Devices.Net.t;
  cost : Cost_model.t;
  trace : Sunos_sim.Tracebuf.t;
  chaos : Sunos_sim.Faultgen.t;
}

val create :
  ?cpus:int ->
  ?cost:Cost_model.t ->
  ?seed:int64 ->
  ?chaos:Sunos_sim.Faultgen.profile ->
  unit ->
  t
(** Defaults: 1 CPU (the paper's measurement platform was a uniprocessor),
    {!Cost_model.default}, seed 1, chaos profile from [SUNOS_CHAOS]
    (off when unset); [seed] seeds the chaos stream.  Every CPU and
    device shares the one event queue.  The trace ring holds up to 65536
    records; it starts empty and grows only as records arrive, so a
    machine costs no trace memory until something is traced. *)

val now : t -> Sunos_sim.Time.t
val ncpus : t -> int

val trace :
  t ->
  Sunos_sim.Tracebuf.kind ->
  cpu:int ->
  pid:int ->
  lwp:int ->
  name:string ->
  name2:string ->
  arg:int ->
  arg2:int ->
  arg3:int ->
  unit
(** Emit a typed trace record stamped with the current time (see
    {!Sunos_sim.Tracebuf.emit}).  Nothing is formatted, and nothing is
    allocated when tracing is off or the kind is filtered out. *)

val run : ?until:Sunos_sim.Time.t -> ?max_events:int -> t -> unit
(** Drain the event queue (see {!Sunos_sim.Eventq.run}). *)
