(* Kernel mechanism: dispatching LWP fibers onto CPUs, charging simulated
   time, sleeping/waking, and process/LWP lifecycle.  Policy (signals) and
   the syscall table are layered on top through the kernel's service
   vector (hook_* / syscall_exec fields), installed by Boot.

   Execution model invariants:
   - an LWP's fiber runs only while its [lstate] is [Lrunning cpu];
   - all state transitions happen inside event callbacks, so they are
     totally ordered by simulated time;
   - a busy interval models the CPU being held.  Each CPU has one busy
     record and each interval one armed heap entry ([arm]); an interval
     acts when it ends only while it is still its CPU's newest and its
     LWP still runs there (a kill or exec may have taken the CPU, or
     charging the span may have ended the process), and any other entry
     fires as a no-op. *)

open Ktypes
module Time = Sunos_sim.Time
module Eventq = Sunos_sim.Eventq
module Machine = Sunos_hw.Machine
module Cpu = Sunos_hw.Cpu
module Cost = Sunos_hw.Cost_model
module Prioq = Sunos_sim.Prioq
module Schedctl = Sunos_sim.Schedctl
module Tracebuf = Sunos_sim.Tracebuf
module Shm = Sunos_hw.Shared_memory

let cost k = k.machine.Machine.cost
let now k = Machine.now k.machine
let eventq k = k.machine.Machine.eventq
let ns = Eventq.span_ns
let is_idle cpu = match Cpu.occupant cpu with None -> true | Some _ -> false

(* Typed trace records ({!Tracebuf.kind} says which fields a kind uses;
   the others are -1 or "").  Every argument is an immediate or a string
   that already exists, so a record nobody will read allocates nothing. *)
let trace k kind ~cpu ~pid ~lwp ~name ~arg =
  Machine.trace k.machine kind ~cpu ~pid ~lwp ~name ~name2:"" ~arg ~arg2:(-1)
    ~arg3:(-1)

let trace_lwp k kind lwp ~name ~arg =
  trace k kind ~cpu:(-1) ~pid:lwp.proc.pid ~lwp:lwp.lid ~name ~arg

let trace_proc k kind proc ~name ~arg =
  trace k kind ~cpu:(-1) ~pid:proc.pid ~lwp:(-1) ~name ~arg

(* ------------------------------------------------------------------ *)
(* Chaos (deterministic fault injection)                               *)
(* ------------------------------------------------------------------ *)

module Faultgen = Sunos_sim.Faultgen

let chaos k = k.machine.Machine.chaos

(* Roll a fault at an existing decision point.  Every hit is traced
   under the "chaos" tag so an injected fault is always observable in
   the record; with chaos off this never draws from the stream. *)
let chaos_roll k ~site rate =
  if Faultgen.fire (chaos k) ~site rate then begin
    trace k Tracebuf.Chaos ~cpu:(-1) ~pid:(-1) ~lwp:(-1) ~name:site ~arg:(-1);
    true
  end
  else false

(* Seeded-bug knob for the exploration suite (test-only, default off):
   revert the SIGWAITING re-arm to its pre-fix shape — skip the re-arm
   on ANY EINTR wakeup, not just signal-caused ones, so a timeout-EINTR
   leaves pool growth disarmed.  The explorer must re-find that bug. *)
let bug_sigwaiting_no_rearm = ref false

let create ~machine =
  {
    machine;
    fs = Fs.create ();
    sockets = Socket.create_registry ();
    procs = [];
    next_pid = 1;
    runq = Prioq.create ~levels:(max_global_prio + 1);
    gangs = Hashtbl.create 8;
    futex = Hashtbl.create 64;
    ctr_syscalls = 0;
    ctr_dispatches = 0;
    ctr_preemptions = 0;
    ctr_sigwaiting = 0;
    ctr_lwp_creates = 0;
    busy = [||];
    fired = [||];
    hook_post_proc = (fun _ _ -> ());
    hook_post_lwp = (fun _ _ -> ());
    syscall_exec = (fun _ _ -> failwith "no syscall table installed");
  }

let sig_flag lwp = not (Queue.is_empty lwp.deliverable)

let is_running_on lwp cpu =
  match lwp.lstate with Lrunning c -> c = Cpu.id cpu | _ -> false

(* Is the busy interval with heap entry [seq] still [cpu]'s newest,
   held by [lwp]?  [r] is [cpu]'s busy record. *)
let holds r seq lwp cpu = seq = r.b_seq && is_running_on lwp cpu

(* One more busy entry fired, counted in [slot] (see [busy_slot]). *)
let count k slot = k.fired.(slot) <- k.fired.(slot) + 1

let cpu_of k lwp =
  match lwp.lstate with
  | Lrunning c -> k.machine.Machine.cpus.(c)
  | _ -> invalid_arg "cpu_of: LWP not running"

let release_cpu k cpu = Cpu.set_occupant cpu ~now:(now k) None

(* ------------------------------------------------------------------ *)
(* Run queue                                                           *)
(* ------------------------------------------------------------------ *)

(* May [cpu] run [lwp]?  Any CPU may, unless the LWP is bound to
   another. *)
let runs_on cpu lwp =
  match lwp.bound_cpu with Some c -> c = Cpu.id cpu | None -> true

(* One queue serves every CPU: an LWP bound to a CPU waits in it like any
   other, and only that CPU takes it.  FIFO within a priority is enqueue
   order. *)
let enqueue k lwp =
  lwp.runq_gen <- lwp.runq_gen + 1;
  match lwp.cls with
  | Sc_gang _ -> ()  (* gang members are placed by gang_place *)
  | Sc_timeshare _ | Sc_realtime _ ->
      Prioq.push k.runq (global_prio lwp) (lwp, lwp.runq_gen)

(* A queue entry is dead once the LWP was re-enqueued (newer generation),
   ran (state change), or changed priority; pruning them at the bucket
   front is the lazy half of the O(1) dequeue. *)
let entry_live prio (lwp, gen) =
  lwp.runq_gen = gen
  && (match lwp.lstate with Lrunnable -> true | _ -> false)
  && global_prio lwp = prio

(* The live entries at [prio] that [cpu] may run, front first. *)
let eligible k cpu prio =
  Prioq.live_entries k.runq prio ~keep:(fun ((lwp, _) as e) ->
      entry_live prio e && runs_on cpu lwp)

(* Pop the best LWP [cpu] may run: the highest occupied priority (a
   find-highest-set probe), FIFO within it.  Passive dispatch takes the
   live front when this CPU may run it, O(1) amortized.  Otherwise the
   candidates are the level's live entries this CPU may run, front
   first, so candidate 0 is the passive pick; the schedule driver, if
   any, chooses, and a level with no candidate is passed over. *)
let rec pick_below k cpu limit =
  let prio = Prioq.top_below k.runq limit in
  if prio < 0 then None
  else
    match Prioq.peek_live k.runq prio ~keep:(entry_live prio) with
    | None -> pick_below k cpu (prio - 1)
    | Some (lwp, _) when runs_on cpu lwp && not (Schedctl.active ()) ->
        Prioq.drop_front k.runq prio;
        Some lwp
    | Some _ -> (
        match eligible k cpu prio with
        | [] -> pick_below k cpu (prio - 1)
        | cands ->
            let i =
              Schedctl.choose ~site:"dispatch" ~obj:prio (List.length cands)
            in
            let ((lwp, _) as entry) = List.nth cands i in
            ignore (Prioq.remove k.runq prio entry : bool);
            Some lwp)

let pick k cpu = pick_below k cpu max_global_prio

(* Idle/preemption probe: the same walk without the take. *)
let rec runnable_below k cpu limit =
  let prio = Prioq.top_below k.runq limit in
  prio >= 0
  &&
  match Prioq.peek_live k.runq prio ~keep:(entry_live prio) with
  | Some (lwp, _) when runs_on cpu lwp -> true
  | Some _ when eligible k cpu prio <> [] -> true
  | Some _ | None -> runnable_below k cpu (prio - 1)

let runnable_exists_for k cpu = runnable_below k cpu max_global_prio

(* ------------------------------------------------------------------ *)
(* The dispatch / step machine                                         *)
(* ------------------------------------------------------------------ *)

(* The (segment id, offset) of each robust word repaired for a death in
   process [pid] (whose library, if any, is [lib]), in the segments it
   maps and in each private clone's source, which forked children name
   through inherited handles. *)
let rec robust_hits ~pid ~lib ~proc_exit hits = function
  | [] -> hits
  | seg :: rest ->
      let hits = Shm.sweep_robust seg ~pid ~lib ~proc_exit hits in
      let hits =
        match Shm.clone_of seg with
        | Some src -> Shm.sweep_robust src ~pid ~lib ~proc_exit hits
        | None -> hits
      in
      robust_hits ~pid ~lib ~proc_exit hits rest

let quantum_for k lwp =
  match lwp.cls with
  | Sc_realtime _ ->
      Int64.to_int (Time.s 3600) (* effectively until it blocks *)
  | Sc_timeshare _ | Sc_gang _ -> Int64.to_int (cost k).Cost.quantum

(* Open a run-ahead window for the fiber we are about to continue: how
   far may it charge before settling with the kernel?

   The budget is min(remaining quantum, time to the event queue's next
   pending event, [Eventq.time_to_next]).  The horizon cap is the
   exactness argument: no event fires strictly before that instant, so
   nothing in the simulated machine can observe the fiber between the
   grant and its settle — coalescing N charge events into one is
   invisible.  The
   budget comparison in [Uctx.charge] is strict (acc < budget), so the
   quantum can never expire inside the window and an event lying exactly
   on the window's edge still fires before the settle event (smaller
   seq), exactly as it fired before the final charge boundary in the
   per-charge regime.

   Eligibility is conservative: any condition the per-charge regime
   would have re-examined at each boundary — pending deliverable
   signals, an armed virtual/profiling timer, a CPU rlimit, a posted
   stop, a pending preemption, a stale CPU binding — forces a zero
   budget, reproducing the old behavior bit-for-bit.
   None of these can *appear* inside the window (only events create
   them), so checking at grant time covers the whole window.  For the
   same reason [account]'s timer and limit branches are off for a
   prefix settled under a grant. *)
let grant_budget k cpu lwp =
  let c = cost k in
  let budget =
    if
      c.Cost.coalesce
      && lwp.quantum_left > 0
      && (match (lwp.vtimer_left, lwp.ptimer_left, lwp.proc.cpu_limit) with
         | None, None, None -> true
         | _ -> false)
      && (not lwp.proc.stopped)
      && (not (sig_flag lwp))
      && (not (Cpu.need_resched cpu))
      && runs_on cpu lwp
    then Eventq.time_to_next (eventq k) ~cap:lwp.quantum_left
    else 0
  in
  Uctx.grant ~cost:c ~budget

let rec kick k =
  gang_place k;
  let cpus = k.machine.Machine.cpus in
  for i = 0 to Array.length cpus - 1 do
    if is_idle cpus.(i) then try_dispatch k cpus.(i)
  done

and try_dispatch k cpu =
  if is_idle cpu then
    match pick k cpu with
    | None -> Cpu.set_need_resched cpu false
    | Some lwp -> place k cpu lwp

and place k cpu lwp =
  if Array.length k.busy = 0 then start_busy k lwp;
  Cpu.set_occupant cpu ~now:(now k) (Some lwp.lid);
  Cpu.set_need_resched cpu false;
  lwp.lstate <- Lrunning (Cpu.id cpu);
  lwp.quantum_left <- quantum_for k lwp;
  (* Chaos: a preemption storm dispatches with a sliver of a quantum, so
     the LWP is preempted almost immediately.  Shrinking quantum_left is
     all it takes — run-ahead coalescing caps its budget by quantum_left,
     so the storm composes with coalescing for free. *)
  (match lwp.cls with
  | Sc_timeshare _ | Sc_gang _ ->
      if chaos_roll k ~site:"preempt-storm" (Faultgen.profile (chaos k)).preempt_storm
      then
        lwp.quantum_left <-
          Int64.to_int
            (Time.max (Time.us 20)
               (Faultgen.draw_span (chaos k)
                  ~max_span:(Int64.of_int (lwp.quantum_left / 8))))
  | Sc_realtime _ -> ());
  k.ctr_dispatches <- k.ctr_dispatches + 1;
  trace k Tracebuf.Dispatch ~cpu:(Cpu.id cpu) ~pid:lwp.proc.pid ~lwp:lwp.lid
    ~name:"" ~arg:(-1);
  (* Going through the dispatcher costs a kernel context switch. *)
  arm k cpu lwp 0 (ns (cost k).Cost.kernel_dispatch) B_dispatch

(* The CPUs' busy records, their counts and the queue's target that
   ends their intervals are made at the first dispatch: a machine that
   never runs anything, such as a boot timed on its own, pays for none
   of them.  A record names [lwp] until its CPU's first interval; no
   entry has its seq before then. *)
and start_busy k lwp =
  k.fired <- Array.make (stale_slot + 1) 0;
  k.busy <-
    Array.map
      (fun cpu ->
        {
          b_cpu = cpu;
          b_lwp = lwp;
          b_span = 0;
          b_seq = -1;
          b_kind = B_call;
          b_fin = ignore;
        })
      k.machine.Machine.cpus;
  Eventq.set_target (eventq k) (fun i seq -> busy_end k i seq)

(* Best-effort gang scheduling: the RUNNABLE members of a gang are placed
   all-or-nothing, so a barrier-released burst starts simultaneously on
   its CPUs; members that are blocked or already running are exempt
   (space sharing), which keeps gangs deadlock-free when members sleep at
   different times.  See DESIGN.md. *)
and gang_place k =
  if Hashtbl.length k.gangs > 0 then
  let idle_cpus () =
    Array.to_list k.machine.Machine.cpus |> List.filter is_idle
  in
  Hashtbl.iter
    (fun _gid members ->
      let ready =
        List.filter
          (fun l -> match l.lstate with Lrunnable -> true | _ -> false)
          !members
      in
      let n = List.length ready in
      let idle = idle_cpus () in
      if n > 0 && n <= List.length idle then begin
        let rec go cpus lwps =
          match (cpus, lwps) with
          | cpu :: cpus', lwp :: lwps' ->
              place k cpu lwp;
              go cpus' lwps'
          | _, [] -> ()
          | [], _ :: _ -> assert false
        in
        go idle ready
      end)
    k.gangs

and resume k cpu lwp =
  if not (lwp_alive lwp) then begin
    release_cpu k cpu;
    kick k
  end
  else begin
    lwp.on_resume ();
    match lwp.pending with
    | P_start f ->
        lwp.pending <- P_dead;
        grant_budget k cpu lwp;
        step k cpu lwp (Uctx.run_fiber f)
    | P_charge { left; kont } as charge ->
        if left > 0 then charge_slice k cpu lwp 0 charge left
        else continue_charge k cpu lwp kont
    | P_sysret _ -> deliver_sysret k cpu lwp
    | P_syswait _ | P_dead ->
        (* nothing to run: stale dispatch *)
        release_cpu k cpu;
        kick k
  end

(* Every fiber step settles the run-ahead ledger first.  The coalesced
   prefix is strictly below the granted budget, which was itself capped
   at the remaining quantum and the event horizon — so the quantum
   cannot expire inside it, no stop/preempt condition can arise (those
   need events, and none fires before the horizon), and nothing else is
   scheduled in the window.  So a charge or a syscall step accounts the
   prefix at once and starts its next busy interval [lead] = prefix
   later: that interval's event sorts against every other event exactly
   as it would behind a settle event of its own.  Exit and panic keep
   the settle event, since they must happen at the settled instant. *)
and step k cpu lwp (s : Uctx.step) =
  let prefix = Uctx.unsettled () in
  if prefix = 0 then dispatch_step k cpu lwp 0 s
  else
    match s with
    | Uctx.Step_charge _ | Uctx.Step_sys _ ->
        account k lwp prefix;
        lwp.quantum_left <- lwp.quantum_left - prefix;
        dispatch_step k cpu lwp prefix s
    | Uctx.Step_done | Uctx.Step_raised _ ->
        arm_fin k cpu lwp 0 prefix B_settle (fun () ->
            lwp.quantum_left <- lwp.quantum_left - prefix;
            dispatch_step k cpu lwp 0 s)

(* Act on a step whose busy interval, if any, starts [lead] ns from
   now ([lead] > 0 only for a charge or a syscall after a settled
   prefix). *)
and dispatch_step k cpu lwp lead (s : Uctx.step) =
  match s with
  | Uctx.Step_done -> lwp_exit_internal k lwp
  | Uctx.Step_raised (Uctx.Process_killed, _) ->
      (* teardown path: the fiber acknowledged its death *)
      release_cpu k cpu;
      kick k
  | Uctx.Step_raised (e, bt) ->
      trace_lwp k Tracebuf.Panic lwp ~name:(Printexc.to_string e) ~arg:(-1);
      ignore bt;
      proc_exit k lwp.proc ~status:139
  | Uctx.Step_charge (span, kont) ->
      let left = ns span in
      let charge = P_charge { left; kont } in
      lwp.pending <- charge;
      charge_slice k cpu lwp lead charge left
  | Uctx.Step_sys (req, kont) ->
      lwp.pending <- P_syswait (req, kont);
      k.ctr_syscalls <- k.ctr_syscalls + 1;
      let c = cost k in
      arm k cpu lwp lead (ns c.Cost.trap_entry + ns c.Cost.syscall_fixed) B_trap

(* Resume a charge continuation whose span is fully accounted. *)
and continue_charge k cpu lwp kont =
  lwp.pending <- P_dead;
  grant_budget k cpu lwp;
  step k cpu lwp (Effect.Deep.continue kont (sig_flag lwp))

(* Hold [cpu] for [span] ns from [lead] ns on, accounting it to [lwp],
   then do what [kind] says ([busy_end]).  The CPU's busy record gets
   immediates only, bar the LWP when another took the CPU.  [lead] > 0
   only under a grant, where the span is a trap or a slice of at most
   the quantum left, so the sum cannot wrap. *)
and arm k cpu lwp lead span kind =
  let i = Cpu.id cpu in
  let r = k.busy.(i) in
  let seq = Eventq.arm (eventq k) ~tag:i (lead + span) in
  r.b_seq <- seq;
  r.b_span <- span;
  r.b_kind <- kind;
  if r.b_lwp != lwp then r.b_lwp <- lwp

(* An interval that runs [fin] when it ends. *)
and arm_fin k cpu lwp lead span kind fin =
  arm k cpu lwp lead span kind;
  k.busy.(Cpu.id cpu).b_fin <- fin

and busy k cpu lwp lead span fin = arm_fin k cpu lwp lead (ns span) B_call fin

(* CPU [i]'s interval with heap entry [seq] ended: the queue's target.
   It acts only while it is its CPU's newest interval and its LWP still
   runs there: whoever took the CPU away owns the next move.  An older
   entry is not cancelled but fires here as a no-op, so [events=] and
   the run-ahead grants count it like any other entry.  Charging the
   span may end the LWP's process by a CPU-time signal ([account]), and
   the exit may place another LWP on this CPU; the interval then stops
   there, as it would have had the kill come first. *)
and busy_end k i seq =
  let r = k.busy.(i) in
  let lwp = r.b_lwp and cpu = r.b_cpu in
  if not (holds r seq lwp cpu) then count k stale_slot
  else begin
    let kind = r.b_kind and span = r.b_span in
    count k (busy_slot kind);
    match kind with
    | B_dispatch -> resume k cpu lwp
    | B_settle | B_call ->
        let fin = r.b_fin in
        r.b_fin <- ignore;
        account k lwp span;
        if holds r seq lwp cpu then begin
          lwp.on_resume ();
          fin ()
        end
    | B_trap | B_complete | B_sysret | B_charge ->
        account k lwp span;
        if holds r seq lwp cpu then begin
          (* other LWPs may have run during this interval: restore this
             LWP's register context (current-thread pointer) before any
             of its code continues *)
          lwp.on_resume ();
          match (kind, lwp.pending) with
          | B_trap, P_syswait (req, _) -> k.syscall_exec lwp req
          | B_complete, _ -> op_done k cpu lwp
          | B_sysret, P_sysret (kont, ret) ->
              lwp.pending <- P_dead;
              grant_budget k cpu lwp;
              step k cpu lwp (Effect.Deep.continue kont ret)
          | B_charge, (P_charge c as charge) ->
              c.left <- c.left - span;
              slice_done k cpu lwp span charge c.left c.kont
          | _ -> ()
        end
  end

(* Run the next slice of [charge], the LWP's [P_charge] with [left] ns
   owed, from [lead] ns on.  [lead] > 0 only under a grant, which
   requires [runs_on]. *)
and charge_slice k cpu lwp lead charge left =
  if not (runs_on cpu lwp) then begin
    (* newly bound elsewhere: migrate before burning any time here *)
    lwp.pending <- charge;
    lwp.lstate <- Lrunnable;
    enqueue k lwp;
    release_cpu k cpu;
    kick k
  end
  else
    let q = lwp.quantum_left in
    arm k cpu lwp lead (if q > 0 && left > q then q else left) B_charge

(* A [slice] of [charge] ended with [left] ns still owed: stop or yield
   at the boundary, or go on. *)
and slice_done k cpu lwp slice charge left kont =
  lwp.quantum_left <- lwp.quantum_left - slice;
  if lwp.proc.stopped then begin
    (* stop takes effect at the charge boundary *)
    lwp.pending <- charge;
    lwp.lstate <- Lstopped;
    release_cpu k cpu;
    try_dispatch k cpu
  end
  else
    let quantum_expired = lwp.quantum_left <= 0 in
    let should_preempt =
      (not (runs_on cpu lwp))
      || (Cpu.need_resched cpu || quantum_expired)
         && runnable_exists_for k cpu
    in
    if should_preempt then begin
      k.ctr_preemptions <- k.ctr_preemptions + 1;
      if quantum_expired then ts_penalty lwp;
      trace k Tracebuf.Preempt ~cpu:(Cpu.id cpu) ~pid:lwp.proc.pid
        ~lwp:lwp.lid ~name:"" ~arg:(-1);
      lwp.pending <- charge;
      lwp.lstate <- Lrunnable;
      enqueue k lwp;
      release_cpu k cpu;
      kick k
    end
    else begin
      if quantum_expired then lwp.quantum_left <- quantum_for k lwp;
      if left > 0 then charge_slice k cpu lwp 0 charge left
      else continue_charge k cpu lwp kont
    end

(* Return to user mode with the result in [P_sysret]. *)
and deliver_sysret k cpu lwp =
  arm k cpu lwp 0 (ns (cost k).Cost.trap_exit) B_sysret

(* CPU-time accounting of [ns]: drives virtual/profiling interval timers
   and the CPU resource limit.  The LWP is in the kernel exactly while
   its pending step is a syscall's, from the trap until the return to
   user mode completes. *)
and account k lwp ns =
  (match lwp.pending with
  | P_syswait _ | P_sysret _ -> lwp.stime <- lwp.stime + ns
  | P_start _ | P_charge _ | P_dead -> (
      lwp.utime <- lwp.utime + ns;
      match lwp.vtimer_left with
      | Some left ->
          let left = Time.diff left (Int64.of_int ns) in
          if Time.(left <= 0L) then begin
            lwp.vtimer_left <- None;
            k.hook_post_lwp lwp Signo.sigvtalrm
          end
          else lwp.vtimer_left <- Some left
      | None -> ()));
  (match lwp.ptimer_left with
  | Some left ->
      let left = Time.diff left (Int64.of_int ns) in
      if Time.(left <= 0L) then begin
        lwp.ptimer_left <- None;
        k.hook_post_lwp lwp Signo.sigprof
      end
      else lwp.ptimer_left <- Some left
  | None -> ());
  match lwp.proc.cpu_limit with
  | Some limit ->
      let u, s = cpu_times lwp.proc in
      if u + s > Int64.to_int limit then begin
        lwp.proc.cpu_limit <- None;
        k.hook_post_lwp lwp Signo.sigxcpu
      end
  | None -> ()

and ts_penalty lwp =
  match lwp.cls with
  | Sc_timeshare ts -> ts.ts_pri <- max 0 (ts.ts_pri - 10)
  | Sc_realtime _ | Sc_gang _ -> ()

(* ------------------------------------------------------------------ *)
(* Runnable / preemption                                               *)
(* ------------------------------------------------------------------ *)

and make_runnable k lwp =
  if lwp.proc.stopped then lwp.lstate <- Lstopped
  else begin
    lwp.lstate <- Lrunnable;
    enqueue k lwp;
    preempt_check k lwp;
    kick k
  end

and preempt_check k lwp =
  (* If every CPU is busy and some CPU runs lower-priority work, ask it
     to reschedule at its next charge boundary. *)
  let prio = global_prio lwp in
  let best : (Cpu.t * int) option ref = ref None in
  Array.iter
    (fun cpu ->
      match Cpu.occupant cpu with
      | None -> ()
      | Some lid -> (
          match find_lwp_by_lid k lwp.proc lid with
          | Some running when global_prio running < prio && runs_on cpu lwp
            -> (
              match !best with
              | Some (_, p) when p <= global_prio running -> ()
              | _ -> best := Some (cpu, global_prio running))
          | _ -> ()))
    k.machine.Machine.cpus;
  match !best with
  | Some (cpu, _) -> Cpu.set_need_resched cpu true
  | None -> ()

(* Occupants may belong to any process; search the whole table. *)
and find_lwp_by_lid k _hint lid =
  let rec in_procs = function
    | [] -> None
    | p :: rest -> (
        match List.find_opt (fun l -> l.lid = lid) p.lwps with
        | Some l -> Some l
        | None -> in_procs rest)
  in
  in_procs k.procs

(* ------------------------------------------------------------------ *)
(* Sleep and wakeup                                                    *)
(* ------------------------------------------------------------------ *)

(* Block the LWP that is currently executing a system call, and return
   the sleep: the caller registers its means of wakeup under it, and
   that registration stays live exactly while [sleep_live lwp sl].
   Detects the paper's SIGWAITING condition: every live LWP of the
   process asleep in an indefinite wait. *)
and block k lwp ~wchan ~interruptible ~indefinite =
  let cpu = cpu_of k lwp in
  let sl =
    { sl_wchan = wchan; sl_interruptible = interruptible;
      sl_indefinite = indefinite; sl_timeout = None }
  in
  lwp.lstate <- Lsleeping sl;
  trace_lwp k Tracebuf.Sleep lwp ~name:wchan ~arg:(Bool.to_int indefinite);
  release_cpu k cpu;
  if interruptible && sig_flag lwp then
    (* a signal became deliverable while we were running: an
       interruptible sleep must not begin — fail it with EINTR right
       away, as a real kernel checks pending signals on sleep entry *)
    interrupt_sleep k lwp;
  (match lwp.proc.activations with
  | Some entry when wchan <> "lwp_park" ->
      (* Scheduler-activations mode: an application thread just lost its
         virtual processor to a kernel wait.  Give the library a context
         to keep running threads on: unpark an idle LWP if one exists,
         otherwise create a fresh activation running the library's
         registered entry.  (lwp_park itself is the library going idle,
         not an application block, so it never triggers an upcall.) *)
      upcall_block k lwp.proc entry
  | Some _ | None -> if indefinite then check_sigwaiting k lwp.proc);
  try_dispatch k cpu;
  kick k;
  sl

and upcall_block k proc entry =
  k.ctr_sigwaiting <- k.ctr_sigwaiting + 1;
  match List.find_opt parked proc.lwps with
  | Some l -> wake k l Sysdefs.R_ok
  | None ->
      (* a runnable LWP will look at the run queue soon anyway —
         creating another activation would only inflate the pool *)
      if not (List.exists (fun l -> l.lstate = Lrunnable) proc.lwps) then
        ignore (spawn_lwp k proc ~entry ~cls:(Sc_timeshare { ts_pri = 29 }))

and check_sigwaiting k proc =
  (* scheduler-activations processes get a blocking upcall instead;
     posting SIGWAITING too would interrupt their indefinite waits
     (poll, accept) in a storm: the upcall unparks an idle LWP, the
     unpark re-arms the edge, the LWP re-parks, SIGWAITING fires ... *)
  if proc.sigwaiting_armed && Option.is_none proc.activations
     && all_indefinite proc
  then begin
    proc.sigwaiting_armed <- false;
    k.ctr_sigwaiting <- k.ctr_sigwaiting + 1;
    trace_proc k Tracebuf.Sigwaiting proc ~name:""
      ~arg:(List.length proc.lwps);
    k.hook_post_proc proc Signo.sigwaiting
  end

(* Arm a wakeup-with-[ret] after [span] unless the sleep ends first. *)
and set_sleep_timeout k lwp span ret =
  match lwp.lstate with
  | Lsleeping sl ->
      let h =
        Eventq.after (eventq k) span (fun () ->
            if sleep_live lwp sl then wake k lwp ret)
      in
      sl.sl_timeout <- Some h
  | Lrunnable | Lrunning _ | Lstopped | Lzombie -> ()

(* End [lwp]'s sleep: making it runnable (or stopped) is what retires
   the sleep. *)
and wake ?(sig_eintr = false) k lwp ret =
  match lwp.lstate with
  | Lrunnable | Lrunning _ | Lstopped | Lzombie -> ()
  | Lsleeping sl ->
      (match sl.sl_timeout with
      | Some h -> Eventq.cancel h
      | None -> ());
      (match lwp.pending with
      | P_syswait (_, kont) -> lwp.pending <- P_sysret (kont, ret)
      | _ -> assert false);
      (* a real wakeup re-arms the SIGWAITING edge trigger; the EINTR
         that signal delivery itself causes must not, or a process whose
         SIGWAITING handler cannot make progress would be stormed.  Only
         the signal path ([interrupt_sleep]) is exempt: an EINTR that
         arrives by timeout (chaos-injected) is an ordinary wakeup, and
         skipping the re-arm for it could miss the next all-blocked edge
         entirely (the woken LWP re-blocks, nobody re-arms, no
         SIGWAITING, deadlock). *)
      (if !bug_sigwaiting_no_rearm then begin
         match ret with
         | Sysdefs.R_err e when e = Errno.EINTR -> ()
         | _ -> lwp.proc.sigwaiting_armed <- true
       end
       else if not sig_eintr then lwp.proc.sigwaiting_armed <- true);
      (* Wakeup boost keeps interactive timeshare LWPs responsive. *)
      (match lwp.cls with
      | Sc_timeshare ts -> ts.ts_pri <- min 59 (ts.ts_pri + 12)
      | Sc_realtime _ | Sc_gang _ -> ());
      make_runnable k lwp

and interrupt_sleep k lwp =
  match lwp.lstate with
  | Lsleeping sl when sl.sl_interruptible ->
      wake ~sig_eintr:true k lwp (Sysdefs.R_err Errno.EINTR)
  | Lsleeping _ | Lrunnable | Lrunning _ | Lstopped | Lzombie -> ()

(* Wake up to [count] live waiters of a shared-object wait channel,
   oldest first unless the schedule driver chooses; returns how many
   woke.  The kwake syscall wakes its count; robust-owner death wakes
   everyone, so all contenders re-examine the lock word and observe
   OWNERDEAD. *)
and futex_wake k ~seg_id ~offset ~count =
  match Hashtbl.find_opt k.futex (seg_id, offset) with
  | None -> 0
  | Some { fc_waiters = q; _ } ->
      let woken = ref 0 and draining = ref true in
      while !draining && !woken < count do
        match
          Schedctl.take ~site:"kwake" ~obj:offset
            ~foot:(fun _ -> [])
            ~want:(count - !woken) ~live:futex_live q
        with
        | Some w ->
            incr woken;
            wake k w.fw_lwp Sysdefs.R_ok
        | None -> draining := false
      done;
      !woken

(* Robust USYNC_PROCESS sweep: a death in [proc] runs the checks of the
   robust words in every segment it maps.  Each word a dead holder held
   is repaired; wake its channel so the next acquirer sees OWNERDEAD
   instead of blocking forever on a lock nobody will release. *)
and robust_sweep k proc ~proc_exit =
  match robust_hits ~pid:proc.pid ~lib:proc.lib ~proc_exit [] proc.mappings with
  | [] -> ()
  | hits ->
      List.iter
        (fun (seg_id, offset) ->
          let woken = futex_wake k ~seg_id ~offset ~count:max_int in
          Machine.trace k.machine Tracebuf.Ownerdead ~cpu:(-1) ~pid:(-1)
            ~lwp:(-1) ~name:"" ~name2:"" ~arg:seg_id ~arg2:offset
            ~arg3:woken)
        (List.sort compare hits)

(* ------------------------------------------------------------------ *)
(* Syscall completion                                                  *)
(* ------------------------------------------------------------------ *)

(* Finish a syscall for an LWP that kept its CPU: charge the operation
   cost, then return to user mode (or get preempted holding the ready
   result). *)
and complete k lwp ?(op_cost = 0L) ret =
  match lwp.lstate with
  | Lrunnable | Lsleeping _ | Lstopped | Lzombie ->
      () (* the syscall killed / blocked the caller; nothing to deliver *)
  | Lrunning c ->
      (match lwp.pending with
      | P_syswait (_, kont) -> lwp.pending <- P_sysret (kont, ret)
      | P_dead | P_start _ | P_charge _ | P_sysret _ -> ());
      arm k k.machine.Machine.cpus.(c) lwp 0 (ns op_cost) B_complete

(* The operation's cost is paid, with the result in [P_sysret] unless
   the LWP died meanwhile. *)
and op_done k cpu lwp =
  match lwp.pending with
  | P_sysret _ ->
      if lwp.proc.stopped then begin
        lwp.lstate <- Lstopped;
        release_cpu k cpu;
        try_dispatch k cpu
      end
      else if Cpu.need_resched cpu && runnable_exists_for k cpu then begin
        k.ctr_preemptions <- k.ctr_preemptions + 1;
        lwp.lstate <- Lrunnable;
        enqueue k lwp;
        release_cpu k cpu;
        try_dispatch k cpu
      end
      else deliver_sysret k cpu lwp
  | P_dead | P_start _ | P_charge _ | P_syswait _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

and next_pid k =
  let pid = k.next_pid in
  k.next_pid <- k.next_pid + 1;
  pid

and make_proc k ~name ~parent =
  let proc =
    {
      pid = next_pid k;
      pname = name;
      parent;
      children = [];
      lwps = [];
      next_lid = 1;
      fdtab = Hashtbl.create 8;
      next_fd = 3;
      handlers = Array.make (Signo.max_sig + 1) Sysdefs.Sig_default;
      proc_sig_pending = [];
      pstate = Palive;
      waitpid_waiters = [];
      rtimer = None;
      mappings = [];
      cpu_limit = None;
      dead_utime = 0;
      dead_stime = 0;
      minflt = 0;
      majflt = 0;
      shed_count = 0;
      stopped = false;
      exit_status = 0;
      activations = None;
      lib = None;
      sigwaiting_armed = true;
    }
  in
  (match parent with Some p -> p.children <- proc :: p.children | None -> ());
  k.procs <- proc :: k.procs;
  proc

and make_lwp k proc ~entry ~cls =
  let lid = proc.next_lid in
  proc.next_lid <- proc.next_lid + 1;
  k.ctr_lwp_creates <- k.ctr_lwp_creates + 1;
  proc.sigwaiting_armed <- true (* new capacity: re-arm the edge *);
  let lwp =
    {
      lid;
      proc;
      lstate = Lrunnable;
      cls;
      bound_cpu = None;
      sigmask = Sigset.empty;
      deliverable = Queue.create ();
      lwp_sig_pending = [];
      pending = P_start entry;
      on_resume = ignore;
      park_token = false;
      utime = 0;
      stime = 0;
      quantum_left = 0;
      vtimer_left = None;
      ptimer_left = None;
      runq_gen = 0;
    }
  in
  proc.lwps <- proc.lwps @ [ lwp ];
  gang_add k lwp;
  lwp

and spawn_process k ~name ~main =
  let proc = make_proc k ~name ~parent:None in
  let lwp = make_lwp k proc ~entry:main ~cls:(Sc_timeshare { ts_pri = 29 }) in
  trace_lwp k Tracebuf.Spawn lwp ~name ~arg:(-1);
  make_runnable k lwp;
  proc

and spawn_lwp k proc ~entry ~cls =
  let lwp = make_lwp k proc ~entry ~cls in
  make_runnable k lwp;
  lwp

and gang_add k lwp =
  match lwp.cls with
  | Sc_gang gid -> (
      match Hashtbl.find_opt k.gangs gid with
      | Some members -> members := !members @ [ lwp ]
      | None -> Hashtbl.replace k.gangs gid (ref [ lwp ]))
  | Sc_timeshare _ | Sc_realtime _ -> ()

and gang_remove k lwp =
  match lwp.cls with
  | Sc_gang gid -> (
      match Hashtbl.find_opt k.gangs gid with
      | Some members -> members := List.filter (fun l -> l != lwp) !members
      | None -> ())
  | Sc_timeshare _ | Sc_realtime _ -> ()

and lwp_exit_internal k lwp =
  destroy_lwp k lwp;
  lwp.proc.lwps <- List.filter (fun l -> l != lwp) lwp.proc.lwps;
  trace_lwp k Tracebuf.Lwp_exit lwp ~name:"" ~arg:(-1);
  if lwp.proc.lwps = [] && lwp.proc.pstate = Palive then
    proc_exit k lwp.proc ~status:lwp.proc.exit_status
  else begin
    (* The process survives this LWP: robust locks whose holding thread
       died with it (a bound thread that exited holding one) must still
       be repaired. *)
    robust_sweep k lwp.proc ~proc_exit:false;
    (* the remaining LWPs may now all be in indefinite waits *)
    if lwp.proc.pstate = Palive then check_sigwaiting k lwp.proc;
    kick k
  end

(* Tear one LWP down, making it a zombie.  Every caller then takes it
   off [proc.lwps], which so holds live LWPs only. *)
and destroy_lwp k l =
  (match l.lstate with
  | Lrunning c -> release_cpu k k.machine.Machine.cpus.(c)
  | Lsleeping { sl_timeout = Some h; _ } -> Eventq.cancel h
  | Lsleeping _ | Lrunnable | Lstopped | Lzombie -> ());
  l.proc.dead_utime <- l.proc.dead_utime + l.utime;
  l.proc.dead_stime <- l.proc.dead_stime + l.stime;
  gang_remove k l;
  l.lstate <- Lzombie;
  l.pending <- P_dead

and close_fdobj fdobj =
  match fdobj with
  | Fd_pipe_r p -> Pipe.close_read p
  | Fd_pipe_w p -> Pipe.close_write p
  | Fd_sock ep -> Socket.close ep
  | Fd_sock_listen l -> Socket.close_listener l
  | Fd_epoll ep -> Epoll.close ep
  | Fd_file _ -> ()

and proc_exit k proc ~status =
  if proc.pstate = Palive then begin
    proc.exit_status <- status;
    proc.pstate <- Pzombie;
    proc.stopped <- false;
    trace_proc k Tracebuf.Exit proc ~name:proc.pname ~arg:status;
    (* Tear down every LWP.  Sleeping ones end their sleeps, which kills
       whatever wait-structure entries they left; running ones lose their
       CPUs; queued ones become stale entries. *)
    List.iter (fun l -> destroy_lwp k l) proc.lwps;
    proc.lwps <- [];
    (* Robust USYNC_PROCESS cleanup — after the LWP teardown so the dead
       process's own futex waiters are already dead and only other
       processes' contenders get woken to observe OWNERDEAD. *)
    robust_sweep k proc ~proc_exit:true;
    Hashtbl.iter (fun _ fdobj -> close_fdobj fdobj) proc.fdtab;
    Hashtbl.reset proc.fdtab;
    proc.mappings <- [];
    (match proc.rtimer with
    | Some h -> Eventq.cancel h
    | None -> ());
    proc.rtimer <- None;
    List.iter (fun child -> child.parent <- None) proc.children;
    (match proc.parent with
    | Some pp when pp.pstate = Palive ->
        k.hook_post_proc pp Signo.sigchld;
        (* wake the parent's waitpid sleepers; they rescan and reap *)
        List.iter
          (fun (l, sl) -> if sleep_live l sl then interrupt_sleep k l)
          pp.waitpid_waiters
    | Some _ | None -> proc.pstate <- Preaped);
    kick k
  end

let find_proc k pid = List.find_opt (fun p -> p.pid = pid) k.procs

let find_lwp proc lid = List.find_opt (fun l -> l.lid = lid) proc.lwps
