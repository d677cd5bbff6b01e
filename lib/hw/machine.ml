module Sim = Sunos_sim

type t = {
  eventq : Sim.Eventq.t;
  cpus : Cpu.t array;
  disk : Devices.Disk.t;
  net : Devices.Net.t;
  cost : Cost_model.t;
  trace : Sim.Tracebuf.t;
  chaos : Sim.Faultgen.t;
}

let create ?(cpus = 1) ?(cost = Cost_model.default) ?(seed = 1L) ?chaos () =
  if cpus <= 0 then invalid_arg "Machine.create: cpus";
  let chaos =
    match chaos with
    | Some p -> Sim.Faultgen.create ~seed p
    | None -> Sim.Faultgen.of_env ~seed ()
  in
  let eventq = Sim.Eventq.create () in
  {
    eventq;
    cpus = Array.init cpus (fun id -> Cpu.create ~id);
    disk = Devices.Disk.create ~eventq ~access_time:cost.Cost_model.disk_access ();
    net = Devices.Net.create ~eventq ~rtt:cost.Cost_model.net_rtt ();
    cost;
    trace = Sim.Tracebuf.create ();
    chaos;
  }

let now t = Sim.Eventq.now t.eventq
let ncpus t = Array.length t.cpus

let trace t kind ~cpu ~pid ~lwp ~name ~name2 ~arg ~arg2 ~arg3 =
  Sim.Tracebuf.emit t.trace ~time:(now t) kind ~cpu ~pid ~lwp ~name ~name2 ~arg
    ~arg2 ~arg3

let run ?until ?max_events t = Sim.Eventq.run ?until ?max_events t.eventq
