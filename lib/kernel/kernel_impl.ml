(* Kernel mechanism: dispatching LWP fibers onto CPUs, charging simulated
   time, sleeping/waking, and process/LWP lifecycle.  Policy (signals) and
   the syscall table are layered on top through the kernel's service
   vector (hook_* / syscall_exec fields), installed by Boot.

   Execution model invariants:
   - an LWP's fiber runs only while its [lstate] is [Lrunning cpu];
   - all state transitions happen inside event callbacks, so they are
     totally ordered by simulated time;
   - a [busy] interval models the CPU being held; completion callbacks
     check the LWP is still running on that CPU (kills and stops may have
     intervened) before acting. *)

open Ktypes
module Time = Sunos_sim.Time
module Eventq = Sunos_sim.Eventq
module Machine = Sunos_hw.Machine
module Cpu = Sunos_hw.Cpu
module Cost = Sunos_hw.Cost_model
module Prioq = Sunos_sim.Prioq
module Schedctl = Sunos_sim.Schedctl
module Tracebuf = Sunos_sim.Tracebuf

let cost k = k.machine.Machine.cost
let now k = Machine.now k.machine
let eventq k = k.machine.Machine.eventq
let schedule k span f = ignore (Eventq.after (eventq k) span f)
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
  if Faultgen.fire (chaos k) ~now:(now k) ~site rate then begin
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
    futex_names = Hashtbl.create 16;
    ctr_syscalls = 0;
    ctr_dispatches = 0;
    ctr_preemptions = 0;
    ctr_sigwaiting = 0;
    ctr_lwp_creates = 0;
    hook_post_proc = (fun _ _ -> ());
    hook_post_lwp = (fun _ _ -> ());
    syscall_exec = (fun _ _ -> failwith "no syscall table installed");
  }

let sig_flag lwp = not (Queue.is_empty lwp.deliverable)

let is_running_on lwp cpu =
  match lwp.lstate with Lrunning c -> c = Cpu.id cpu | _ -> false

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

let quantum_for k lwp =
  match lwp.cls with
  | Sc_realtime _ ->
      Int64.to_int (Time.s 3600) (* effectively until it blocks *)
  | Sc_timeshare _ | Sc_gang _ -> Int64.to_int (cost k).Cost.quantum

(* Open a run-ahead window for the fiber we are about to continue: how
   far may it charge before settling with the kernel?

   The budget is min(remaining quantum, time to the event queue's next
   pending event).  The horizon cap is the exactness
   argument: no event fires strictly before [next_time], so nothing in
   the simulated machine can observe the fiber between the grant and its
   settle — coalescing N charge events into one is invisible.  The
   budget comparison in [Uctx.charge] is strict (acc < budget), so the
   quantum can never expire inside the window and an event lying exactly
   on the window's edge still fires before the settle event (smaller
   seq), exactly as it fired before the final charge boundary in the
   per-charge regime.

   Eligibility is conservative: any condition the per-charge regime
   would have re-examined at each boundary — pending deliverable
   signals, an armed virtual/profiling timer, profil(2) ticks, a CPU
   rlimit, a posted stop, a pending preemption, a stale CPU binding —
   forces a zero budget, reproducing the old behavior bit-for-bit.
   None of these can *appear* inside the window (only events create
   them), so checking at grant time covers the whole window.  For the
   same reason [account]'s timer, limit and profil branches are off for
   a prefix settled under a grant. *)
let grant_budget k cpu lwp =
  let c = cost k in
  let budget =
    if
      c.Cost.coalesce
      && lwp.quantum_left > 0
      && (not lwp.prof_on)
      && (match (lwp.vtimer_left, lwp.ptimer_left, lwp.proc.cpu_limit) with
         | None, None, None -> true
         | _ -> false)
      && (not lwp.proc.stopped)
      && (not (sig_flag lwp))
      && (not (Cpu.need_resched cpu))
      && runs_on cpu lwp
    then
      match Eventq.next_time (eventq k) with
      | Some t ->
          let gap = Time.diff t (now k) in
          if Time.(gap < Int64.of_int lwp.quantum_left) then Int64.to_int gap
          else lwp.quantum_left
      | None -> lwp.quantum_left
    else 0
  in
  Uctx.grant ~budget:(Int64.of_int budget)

let rec kick k =
  gang_place k;
  Array.iter
    (fun cpu -> if is_idle cpu then try_dispatch k cpu)
    k.machine.Machine.cpus

and try_dispatch k cpu =
  if is_idle cpu then
    match pick k cpu with
    | None -> Cpu.set_need_resched cpu false
    | Some lwp -> place k cpu lwp

and place k cpu lwp =
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
  schedule k (cost k).Cost.kernel_dispatch (fun () ->
      if is_running_on lwp cpu then resume k cpu lwp)

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
    | P_charge (remaining, kont) ->
        if Time.(remaining > 0L) then charge_slice k cpu lwp 0 remaining kont
        else continue_charge k cpu lwp kont
    | P_sysret (kont, ret) -> deliver_sysret k cpu lwp kont ret
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
  let prefix = Int64.to_int (Uctx.unsettled ()) in
  if prefix = 0 then dispatch_step k cpu lwp 0 s
  else
    match s with
    | Uctx.Step_charge _ | Uctx.Step_sys _ ->
        account k lwp prefix;
        lwp.quantum_left <- lwp.quantum_left - prefix;
        dispatch_step k cpu lwp prefix s
    | Uctx.Step_done | Uctx.Step_raised _ ->
        busy k cpu lwp 0 (Int64.of_int prefix) (fun () ->
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
  | Uctx.Step_charge (span, kont) -> charge_slice k cpu lwp lead span kont
  | Uctx.Step_sys (req, kont) ->
      lwp.in_kernel <- true;
      lwp.pending <- P_syswait kont;
      k.ctr_syscalls <- k.ctr_syscalls + 1;
      let c = cost k in
      busy k cpu lwp lead
        (Int64.add c.Cost.trap_entry c.Cost.syscall_fixed)
        (fun () -> k.syscall_exec lwp req)

(* Resume a charge continuation whose span is fully accounted. *)
and continue_charge k cpu lwp kont =
  lwp.pending <- P_dead;
  grant_budget k cpu lwp;
  step k cpu lwp (Effect.Deep.continue kont (sig_flag lwp))

(* Hold the CPU for [span] from [lead] ns on, accounting it to the LWP,
   then run [fin].  If the LWP lost the CPU meanwhile (kill, stop at a
   boundary), the completion is dropped — whoever took the CPU away owns
   the next move. *)
and busy k cpu lwp lead span fin =
  let due = Int64.add (now k) (Int64.add (Int64.of_int lead) span) in
  ignore
    (Eventq.at (eventq k) due (fun () ->
         if is_running_on lwp cpu then begin
           account k lwp (Int64.to_int span);
           (* other LWPs may have run during this interval: restore this
              LWP's register context (current-thread pointer) before any
              of its code continues *)
           lwp.on_resume ();
           fin ()
         end))

(* [lead] > 0 only under a grant, which requires [runs_on]. *)
and charge_slice k cpu lwp lead span kont =
  if not (runs_on cpu lwp) then begin
    (* newly bound elsewhere: migrate before burning any time here *)
    lwp.pending <- P_charge (span, kont);
    lwp.lstate <- Lrunnable;
    enqueue k lwp;
    release_cpu k cpu;
    kick k
  end
  else
  let q = lwp.quantum_left in
  let slice =
    if q > 0 && Time.(span > Int64.of_int q) then Int64.of_int q else span
  in
  busy k cpu lwp lead slice (fun () ->
      let remaining = Time.diff span slice in
      lwp.quantum_left <- lwp.quantum_left - Int64.to_int slice;
      if lwp.proc.stopped then begin
        (* stop takes effect at the charge boundary *)
        lwp.pending <- P_charge (remaining, kont);
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
          lwp.pending <- P_charge (remaining, kont);
          lwp.lstate <- Lrunnable;
          enqueue k lwp;
          release_cpu k cpu;
          kick k
        end
        else begin
          if quantum_expired then lwp.quantum_left <- quantum_for k lwp;
          if Time.(remaining > 0L) then charge_slice k cpu lwp 0 remaining kont
          else continue_charge k cpu lwp kont
        end)

and deliver_sysret k cpu lwp kont ret =
  busy k cpu lwp 0 (cost k).Cost.trap_exit (fun () ->
      lwp.in_kernel <- false;
      lwp.pending <- P_dead;
      grant_budget k cpu lwp;
      step k cpu lwp (Effect.Deep.continue kont ret))

(* CPU-time accounting of [ns]: drives virtual/profiling interval timers,
   the profil(2) tick counter and the CPU resource limit. *)
and account k lwp ns =
  if lwp.in_kernel then lwp.stime <- lwp.stime + ns
  else begin
    lwp.utime <- lwp.utime + ns;
    match lwp.vtimer_left with
    | Some left ->
        let left = Time.diff left (Int64.of_int ns) in
        if Time.(left <= 0L) then begin
          lwp.vtimer_left <- None;
          k.hook_post_lwp lwp Signo.sigvtalrm
        end
        else lwp.vtimer_left <- Some left
    | None -> ()
  end;
  (match lwp.ptimer_left with
  | Some left ->
      let left = Time.diff left (Int64.of_int ns) in
      if Time.(left <= 0L) then begin
        lwp.ptimer_left <- None;
        k.hook_post_lwp lwp Signo.sigprof
      end
      else lwp.ptimer_left <- Some left
  | None -> ());
  if lwp.prof_on && not lwp.in_kernel then
    lwp.prof_ticks <-
      lwp.prof_ticks + (ns / Int64.to_int (cost k).Cost.clock_tick);
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
    { sl_interruptible = interruptible; sl_indefinite = indefinite;
      sl_timeout = None }
  in
  lwp.sleep <- Some sl;
  lwp.wchan <- wchan;
  lwp.lstate <- Lsleeping;
  trace_lwp k Tracebuf.Sleep lwp ~name:wchan ~arg:(Bool.to_int indefinite);
  release_cpu k cpu;
  if interruptible && sig_flag lwp then
    (* a signal became deliverable while we were running: an
       interruptible sleep must not begin — fail it with EINTR right
       away, as a real kernel checks pending signals on sleep entry *)
    interrupt_sleep k lwp;
  if lwp.proc.upcall_on_block && wchan <> "lwp_park" then
    (* Scheduler-activations mode: an application thread just lost its
       virtual processor to a kernel wait.  Give the library a context
       to keep running threads on: unpark an idle LWP if one exists,
       otherwise create a fresh activation running the library's
       registered entry.  (lwp_park itself is the library going idle,
       not an application block, so it never triggers an upcall.) *)
    upcall_block k lwp.proc
  else if indefinite then check_sigwaiting k lwp.proc;
  try_dispatch k cpu;
  kick k;
  sl

and upcall_block k proc =
  k.ctr_sigwaiting <- k.ctr_sigwaiting + 1;
  let parked =
    List.find_opt
      (fun l ->
        l.parked && match l.lstate with Lsleeping -> true | _ -> false)
      proc.lwps
  in
  match parked with
  | Some l -> wake k l Sysdefs.R_ok
  | None ->
      (* an LWP that is runnable (or mid-way into a park) will look at
         the run queue soon anyway — creating another activation would
         only inflate the pool *)
      let spare_exists =
        List.exists
          (fun l ->
            match l.lstate with
            | Lrunnable -> true
            | Lrunning _ -> l.parked (* unwinding from a cancelled park *)
            | Lsleeping | Lstopped | Lzombie -> false)
          proc.lwps
      in
      if not spare_exists then
        match proc.activation_entry with
        | Some entry ->
            ignore
              (spawn_lwp k proc ~entry ~cls:(Sc_timeshare { ts_pri = 29 }))
        | None -> ()

and check_sigwaiting k proc =
  (* scheduler-activations processes get a blocking upcall instead;
     posting SIGWAITING too would interrupt their indefinite waits
     (poll, accept) in a storm: the upcall unparks an idle LWP, the
     unpark re-arms the edge, the LWP re-parks, SIGWAITING fires ... *)
  if proc.sigwaiting_armed && (not proc.upcall_on_block)
     && all_indefinite proc
  then begin
    proc.sigwaiting_armed <- false;
    k.ctr_sigwaiting <- k.ctr_sigwaiting + 1;
    trace_proc k Tracebuf.Sigwaiting proc ~name:""
      ~arg:(List.length (live_lwps proc));
    k.hook_post_proc proc Signo.sigwaiting
  end

(* Arm a wakeup-with-[ret] after [span] unless the sleep ends first. *)
and set_sleep_timeout k lwp span ret =
  match lwp.sleep with
  | None -> ()
  | Some sl ->
      let h =
        Eventq.after (eventq k) span (fun () ->
            if sleep_live lwp sl then wake k lwp ret)
      in
      sl.sl_timeout <- Some h

and wake ?(sig_eintr = false) k lwp ret =
  match lwp.sleep with
  | None -> ()
  | Some sl ->
      (match sl.sl_timeout with
      | Some h -> Eventq.cancel h
      | None -> ());
      lwp.sleep <- None;
      lwp.parked <- false;
      lwp.wchan <- "";
      (match lwp.pending with
      | P_syswait kont -> lwp.pending <- P_sysret (kont, ret)
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
      match lwp.lstate with
      | Lsleeping -> make_runnable k lwp
      | Lrunnable | Lrunning _ | Lstopped | Lzombie -> ()

and interrupt_sleep k lwp =
  match lwp.sleep with
  | Some sl when sl.sl_interruptible ->
      wake ~sig_eintr:true k lwp (Sysdefs.R_err Errno.EINTR)
  | Some _ | None -> ()

(* Wake up to [count] live waiters of a shared-object wait channel,
   oldest first unless the schedule driver chooses; returns how many
   woke.  The kwake syscall wakes its count; robust-owner death wakes
   everyone, so all contenders re-examine the lock word and observe
   OWNERDEAD. *)
and futex_wake k ~seg_id ~offset ~count =
  match Hashtbl.find_opt k.futex (seg_id, offset) with
  | None -> 0
  | Some q ->
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

(* Robust USYNC_PROCESS sweep: repair locks whose owner just died and
   wake their wait channels so the next acquirer sees OWNERDEAD instead
   of blocking forever on a lock nobody will release. *)
and robust_sweep k channels =
  List.iter
    (fun (seg_id, offset) ->
      let woken = futex_wake k ~seg_id ~offset ~count:max_int in
      Machine.trace k.machine Tracebuf.Ownerdead ~cpu:(-1) ~pid:(-1) ~lwp:(-1)
        ~name:"" ~name2:"" ~arg:seg_id ~arg2:offset ~arg3:woken)
    channels

(* ------------------------------------------------------------------ *)
(* Syscall completion                                                  *)
(* ------------------------------------------------------------------ *)

(* Finish a syscall for an LWP that kept its CPU: charge the operation
   cost, then return to user mode (or get preempted holding the ready
   result). *)
and complete k lwp ?(op_cost = 0L) ret =
  match lwp.lstate with
  | Lrunnable | Lsleeping | Lstopped | Lzombie ->
      () (* the syscall killed / blocked the caller; nothing to deliver *)
  | Lrunning _ ->
  let cpu = cpu_of k lwp in
  busy k cpu lwp 0 op_cost (fun () ->
      match lwp.pending with
      | P_syswait kont ->
          if lwp.proc.stopped then begin
            lwp.pending <- P_sysret (kont, ret);
            lwp.lstate <- Lstopped;
            release_cpu k cpu;
            try_dispatch k cpu
          end
          else if Cpu.need_resched cpu && runnable_exists_for k cpu then begin
            k.ctr_preemptions <- k.ctr_preemptions + 1;
            lwp.pending <- P_sysret (kont, ret);
            lwp.lstate <- Lrunnable;
            enqueue k lwp;
            release_cpu k cpu;
            try_dispatch k cpu
          end
          else deliver_sysret k cpu lwp kont ret
      | P_dead | P_start _ | P_charge _ | P_sysret _ -> ())

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
      cwd = "/";
      uid = 0;
      gid = 0;
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
      upcall_on_block = false;
      activation_entry = None;
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
      altstack = false;
      deliverable = Queue.create ();
      lwp_sig_pending = [];
      pending = P_start entry;
      on_resume = ignore;
      wchan = "";
      sleep = None;
      park_token = false;
      parked = false;
      utime = 0;
      stime = 0;
      in_kernel = false;
      quantum_left = 0;
      vtimer_left = None;
      ptimer_left = None;
      prof_on = false;
      prof_ticks = 0;
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
  let cpu = try Some (cpu_of k lwp) with Invalid_argument _ -> None in
  lwp.proc.dead_utime <- lwp.proc.dead_utime + lwp.utime;
  lwp.proc.dead_stime <- lwp.proc.dead_stime + lwp.stime;
  lwp.lstate <- Lzombie;
  lwp.pending <- P_dead;
  gang_remove k lwp;
  lwp.proc.lwps <- List.filter (fun l -> l != lwp) lwp.proc.lwps;
  trace_lwp k Tracebuf.Lwp_exit lwp ~name:"" ~arg:(-1);
  (match cpu with
  | Some c -> release_cpu k c
  | None -> ());
  if live_lwps lwp.proc = [] && lwp.proc.pstate = Palive then
    proc_exit k lwp.proc ~status:lwp.proc.exit_status
  else begin
    (* The process survives this LWP: robust locks whose registering
       thread died with it (e.g. a chaos-reaped pool LWP holding a
       shard lock) must still be repaired. *)
    robust_sweep k (Robust.sweep_dead_owners lwp.proc.pid);
    (* the remaining LWPs may now all be in indefinite waits *)
    if lwp.proc.pstate = Palive then check_sigwaiting k lwp.proc;
    kick k
  end

(* Tear one LWP down (exec path and proc_exit share this). *)
and destroy_lwp k l =
  (match l.lstate with
  | Lrunning c -> release_cpu k k.machine.Machine.cpus.(c)
  | Lsleeping ->
      (match l.sleep with
      | Some { sl_timeout = Some h; _ } -> Eventq.cancel h
      | Some _ | None -> ());
      l.sleep <- None;
      l.parked <- false
  | Lrunnable | Lstopped | Lzombie -> ());
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
    robust_sweep k (Robust.sweep_pid proc.pid);
    Hashtbl.iter (fun _ fdobj -> close_fdobj fdobj) proc.fdtab;
    Hashtbl.reset proc.fdtab;
    List.iter Sunos_hw.Shared_memory.decr_map_count proc.mappings;
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
