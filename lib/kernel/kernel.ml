module Machine = Sunos_hw.Machine

type t = Ktypes.kernel

let boot_on machine =
  let k = Kernel_impl.create ~machine in
  Signal_impl.install k;
  Syscall_impl.install k;
  k

let boot ?cpus ?cost ?seed ?chaos () =
  boot_on (Machine.create ?cpus ?cost ?seed ?chaos ())

let machine (k : t) = k.Ktypes.machine
let fs (k : t) = k.Ktypes.fs
let shutdown (_ : t) = ()

let spawn k ~name ~main =
  let proc = Kernel_impl.spawn_process k ~name ~main in
  proc.Ktypes.pid

let run ?until ?max_events k = Machine.run ?until ?max_events (machine k)
let now k = Machine.now (machine k)
let find_proc = Kernel_impl.find_proc

let proc_alive k pid =
  match find_proc k pid with
  | Some p -> p.Ktypes.pstate = Ktypes.Palive
  | None -> false

let exit_status k pid =
  match find_proc k pid with
  | Some p -> (
      match p.Ktypes.pstate with
      | Ktypes.Pzombie | Ktypes.Preaped -> Some p.Ktypes.exit_status
      | Ktypes.Palive -> None)
  | None -> None

let trace_records k = Sunos_sim.Tracebuf.records (machine k).Machine.trace
let set_tracing k b = Sunos_sim.Tracebuf.set_enabled (machine k).Machine.trace b

let set_trace_tags k tags =
  Sunos_sim.Tracebuf.set_interest (machine k).Machine.trace tags
let syscall_count (k : t) = k.Ktypes.ctr_syscalls
let dispatch_count (k : t) = k.Ktypes.ctr_dispatches
let preemption_count (k : t) = k.Ktypes.ctr_preemptions
let sigwaiting_count (k : t) = k.Ktypes.ctr_sigwaiting
let lwp_create_count (k : t) = k.Ktypes.ctr_lwp_creates

let bug_sigwaiting_no_rearm = Kernel_impl.bug_sigwaiting_no_rearm
let chaos k = (machine k).Machine.chaos
let chaos_label k = Sunos_sim.Faultgen.label (chaos k)
let chaos_counts k = Sunos_sim.Faultgen.counts (chaos k)
let chaos_total k = Sunos_sim.Faultgen.total (chaos k)
