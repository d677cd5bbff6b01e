(* Signal policy, per the paper's model:

   - Traps are caused synchronously and handled only by the faulting
     thread (LWP-directed posting).
   - Interrupts are process-directed; the kernel picks ONE LWP with the
     signal unmasked (preferring one in an interruptible sleep so that
     delivery is prompt); if every LWP masks it, the signal pends on the
     process until some LWP unmasks it.  Received count <= sent count.
   - SIG_DFL / SIG_IGN actions apply to the whole process.
   - Delivery happens at return-to-user-mode points: the kernel marks the
     signal deliverable on the chosen LWP and (if sleeping interruptibly)
     interrupts the sleep with EINTR; the user-side wrappers pick the
     handler closures up via Sys_sig_pickup and run them in-context. *)

open Ktypes
module K = Kernel_impl
module Tracebuf = Sunos_sim.Tracebuf

let rec default_action k proc signo =
  match Signo.default_action signo with
  | Signo.Act_ignore -> ()
  | Signo.Act_exit | Signo.Act_core ->
      K.proc_exit k proc ~status:(128 + signo)
  | Signo.Act_stop -> stop_proc k proc
  | Signo.Act_continue -> cont_proc k proc

and stop_proc k proc =
  if (not proc.stopped) && proc.pstate = Palive then begin
    proc.stopped <- true;
    K.trace_proc k Tracebuf.Stop proc ~name:"" ~arg:(-1);
    List.iter
      (fun l ->
        match l.lstate with
        | Lrunnable -> l.lstate <- Lstopped (* queue entry goes stale *)
        | Lrunning c ->
            Sunos_hw.Cpu.set_need_resched k.machine.Sunos_hw.Machine.cpus.(c)
              true
        | Lsleeping _ | Lstopped | Lzombie -> ())
      proc.lwps;
    K.kick k
  end

and cont_proc k proc =
  if proc.stopped && proc.pstate = Palive then begin
    proc.stopped <- false;
    K.trace_proc k Tracebuf.Continue proc ~name:"" ~arg:(-1);
    List.iter
      (fun l -> if l.lstate = Lstopped then K.make_runnable k l)
      proc.lwps
  end

(* Mark [signo] deliverable on [lwp] and make sure it will reach a
   delivery point soon. *)
let make_deliverable k lwp signo =
  Queue.add signo lwp.deliverable;
  K.interrupt_sleep k lwp

(* Choose the LWP an interrupt is handed to.  Preference order: sleeping
   interruptible (prompt delivery), then running/runnable.  Within a
   class, the first in LWP order — deterministic. *)
let pick_recipient proc signo =
  let eligible =
    List.filter
      (fun l -> lwp_alive l && not (Sigset.mem signo l.sigmask))
      proc.lwps
  in
  let sleeping_interruptible =
    List.find_opt
      (fun l ->
        match l.lstate with
        | Lsleeping sl -> sl.sl_interruptible
        | _ -> false)
      eligible
  in
  match sleeping_interruptible with
  | Some l -> Some l
  | None -> (
      match
        List.find_opt
          (fun l ->
            match l.lstate with
            | Lrunnable | Lrunning _ -> true
            | Lsleeping _ | Lstopped | Lzombie -> false)
          eligible
      with
      | Some l -> Some l
      | None -> List.nth_opt eligible 0)

(* Process-directed signal (an "interrupt" in the paper's terms). *)
let post_proc k proc signo =
  if proc.pstate = Palive then begin
    K.trace_proc k Tracebuf.Signal proc ~name:(Signo.name signo) ~arg:signo;
    if signo = Signo.sigkill then K.proc_exit k proc ~status:(128 + signo)
    else begin
      if signo = Signo.sigcont then cont_proc k proc;
      match proc.handlers.(signo) with
      | Sysdefs.Sig_ignore -> ()
      | Sysdefs.Sig_default -> default_action k proc signo
      | Sysdefs.Sig_handler _ -> (
          match pick_recipient proc signo with
          | Some lwp -> make_deliverable k lwp signo
          | None ->
              (* everyone masks it: pend on the process *)
              proc.proc_sig_pending <- proc.proc_sig_pending @ [ signo ])
    end
  end

(* LWP-directed signal (a trap, thread_kill target, or per-LWP timer). *)
let post_lwp k lwp signo =
  let proc = lwp.proc in
  if proc.pstate = Palive && lwp_alive lwp then begin
    K.trace_lwp k Tracebuf.Signal_lwp lwp ~name:(Signo.name signo) ~arg:signo;
    if signo = Signo.sigkill then K.proc_exit k proc ~status:(128 + signo)
    else
      match proc.handlers.(signo) with
      | Sysdefs.Sig_ignore -> ()
      | Sysdefs.Sig_default -> default_action k proc signo
      | Sysdefs.Sig_handler _ ->
          if Sigset.mem signo lwp.sigmask then
            lwp.lwp_sig_pending <- lwp.lwp_sig_pending @ [ signo ]
          else make_deliverable k lwp signo
  end

(* After a mask change, formerly pended signals may become deliverable:
   LWP-directed ones first, then process-wide pended ones (any unmasking
   LWP may take those). *)
let mask_changed k lwp =
  let deliverable_now, still_masked =
    List.partition
      (fun s -> not (Sigset.mem s lwp.sigmask))
      lwp.lwp_sig_pending
  in
  lwp.lwp_sig_pending <- still_masked;
  List.iter (fun s -> make_deliverable k lwp s) deliverable_now;
  let proc = lwp.proc in
  let taken, remaining =
    List.partition
      (fun s ->
        (not (Sigset.mem s lwp.sigmask))
        &&
        match proc.handlers.(s) with
        | Sysdefs.Sig_handler _ -> true
        | Sysdefs.Sig_default | Sysdefs.Sig_ignore -> false)
      proc.proc_sig_pending
  in
  proc.proc_sig_pending <- remaining;
  List.iter (fun s -> make_deliverable k lwp s) taken

(* The Sys_sig_pickup payload: drain the LWP's deliverable queue,
   re-evaluating dispositions at delivery time (a handler may have been
   reset since posting). *)
let pickup k lwp =
  let proc = lwp.proc in
  let rec drain acc =
    match Queue.take_opt lwp.deliverable with
    | None -> List.rev acc
    | Some signo -> (
        match proc.handlers.(signo) with
        | Sysdefs.Sig_handler _ as d -> drain ((signo, d) :: acc)
        | Sysdefs.Sig_ignore -> drain acc
        | Sysdefs.Sig_default ->
            default_action k proc signo;
            drain acc)
  in
  drain []

let install k =
  k.hook_post_proc <- post_proc k;
  k.hook_post_lwp <- post_lwp k
