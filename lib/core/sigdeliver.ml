(* Library-level signal routing, per the paper's model:

   - All threads share one vector of handlers (the pool's mirror of the
     process disposition table).
   - Each thread has its own signal mask.
   - An interrupt (process-directed signal) is handled by ONE thread
     that has it unmasked: the kernel hands the signal to some LWP (see
     Signal_impl); the closure the library installed there routes it to
     an eligible thread — running it inline if the current thread
     qualifies, waking a blocked eligible thread otherwise, or leaving
     it pending until some thread unmasks it.
   - thread_kill() signals behave like traps: only the named thread runs
     the handler. *)

open Ttypes
module Uctx = Sunos_kernel.Uctx
module Sysdefs = Sunos_kernel.Sysdefs
module Sigset = Sunos_kernel.Sigset
module Signo = Sunos_kernel.Signo
module Cost = Sunos_hw.Cost_model

let eligible signo tcb =
  tcb.tstate <> Tzombie && not (Sigset.mem signo tcb.tsigmask)

let threads_by_tid pool =
  Hashtbl.fold (fun _ t acc -> t :: acc) pool.threads []
  |> List.sort (fun a b -> compare a.tid b.tid)

(* Route one process-directed signal.  Runs inside whichever thread's (or
   idle LWP's) fiber picked the kernel delivery up. *)
let route pool signo =
  match pool.handlers.(signo) with
  | Sysdefs.Sig_default | Sysdefs.Sig_ignore ->
      () (* resolved kernel-side; nothing for the library to do *)
  | Sysdefs.Sig_handler h -> (
      match Current.get_opt () with
      | Some me when me.pool == pool && eligible signo me ->
          Uctx.charge pool.cost.Cost.signal_deliver;
          h signo
      | _ -> (
          let all = threads_by_tid pool in
          match
            List.find_opt
              (fun t -> eligible signo t && t.tstate = Tblocked)
              all
          with
          | Some t ->
              Queue.add signo t.pending_tsigs;
              Pool.make_ready t Wake_signal
          | None -> (
              match List.find_opt (eligible signo) all with
              | Some t ->
                  (* running or runnable: picked up at its next
                     delivery point *)
                  Queue.add signo t.pending_tsigs
              | None ->
                  (* every thread masks it: pend on the process *)
                  pool.proc_pending_tsigs <-
                    pool.proc_pending_tsigs @ [ signo ])))

(* Install an application-level disposition for [signo].  Handlers run in
   an eligible thread's context; default/ignore pass straight through to
   the kernel. *)
let set_disposition pool signo disp =
  let old = pool.handlers.(signo) in
  pool.handlers.(signo) <- disp;
  (match disp with
  | Sysdefs.Sig_handler _ ->
      ignore
        (Uctx.sigaction signo (Sysdefs.Sig_handler (fun s -> route pool s)))
  | Sysdefs.Sig_default | Sysdefs.Sig_ignore ->
      ignore (Uctx.sigaction signo disp));
  old

(* A thread's mask just opened up: claim any process-pended signals it is
   now eligible for and run them here, plus its own pended trap-likes. *)
let mask_changed tcb =
  let pool = tcb.pool in
  let claimed, still_pending =
    List.partition (fun s -> eligible s tcb) pool.proc_pending_tsigs
  in
  pool.proc_pending_tsigs <- still_pending;
  List.iter (fun s -> Queue.add s tcb.pending_tsigs) claimed;
  match Current.get_opt () with
  | Some me when me == tcb -> Pool.run_pending_tsigs ()
  | Some _ | None -> ()

(* thread_kill: trap-like, handled only by the named thread. *)
let thread_kill target signo =
  let pool = target.pool in
  match pool.handlers.(signo) with
  | Sysdefs.Sig_ignore -> ()
  | Sysdefs.Sig_default ->
      (* the default action applies to the whole process: let the kernel
         take it *)
      Uctx.kill ~pid:pool.pid signo
  | Sysdefs.Sig_handler _ -> (
      Queue.add signo target.pending_tsigs;
      match Current.get_opt () with
      | Some me when me == target -> Pool.run_pending_tsigs ()
      | _ ->
          if target.tstate = Tblocked && eligible signo target then
            Pool.make_ready target Wake_signal)

(* sigsend(P_THREAD_ALL): the signal goes to every thread. *)
let sigsend_all pool signo =
  List.iter (fun t -> thread_kill t signo) (threads_by_tid pool)
