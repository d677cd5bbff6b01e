open Ttypes
module Uctx = Sunos_kernel.Uctx
module Sigset = Sunos_kernel.Sigset
module Signo = Sunos_kernel.Signo
module Sysdefs = Sunos_kernel.Sysdefs
module Cost = Sunos_hw.Cost_model

type id = int

type flag = THREAD_STOP | THREAD_NEW_LWP | THREAD_BIND_LWP | THREAD_WAIT

let get_id () = (Current.get ()).tid

let create ?(flags = []) ?(stack = `Default) entry =
  let self = Current.get () in
  let pool = self.pool in
  let has f = List.mem f flags in
  let bound = has THREAD_BIND_LWP in
  let stopped = has THREAD_STOP in
  let stack_kind =
    match stack with `Default -> Stack_default | `Caller n -> Stack_caller n
  in
  Pool.charge_create_costs pool stack_kind;
  let tcb =
    Pool.new_tcb pool ~entry ~prio:self.prio ~sigmask:self.tsigmask ~bound
      ~wait_flag:(has THREAD_WAIT) ~stack_kind ~stopped
  in
  if bound then begin
    pool.ctr_creates_bound <- pool.ctr_creates_bound + 1;
    (* the LWP is created with the thread and dedicated to it *)
    Pool.spawn_bound pool tcb
  end
  else begin
    pool.ctr_creates_unbound <- pool.ctr_creates_unbound + 1;
    if has THREAD_NEW_LWP then Pool.grow_pool pool;
    if not stopped then begin
      Pool.runq_push pool tcb;
      Uctx.charge pool.cost.Cost.runq_op;
      ignore (Pool.kick_idle_lwp pool)
    end
  end;
  tcb.tid

let exit () = raise Thread_exit_exn

let find pool tid = Hashtbl.find_opt pool.threads tid

(* Reap a zombie THREAD_WAIT thread: its id becomes reusable and its
   default stack is already back in the cache. *)
let reap pool tcb = Hashtbl.remove pool.threads tcb.tid

let rec wait_any self pool =
  let zombie =
    Hashtbl.fold
      (fun _ t acc ->
        match acc with
        | Some _ -> acc
        | None -> if t.wait_flag && t.exited then Some t else None)
      pool.threads None
  in
  match zombie with
  | Some t ->
      reap pool t;
      t.tid
  | None ->
      let waitable_exists =
        Hashtbl.fold
          (fun _ t acc -> acc || (t.wait_flag && t != self))
          pool.threads false
      in
      if not waitable_exists then
        invalid_arg "Thread.wait: no THREAD_WAIT thread to wait for";
      ignore
        (Pool.suspend ~park:(fun tcb ->
             tcb.tstate <- Tblocked;
             pool.any_waiters <- pool.any_waiters @ [ (tcb, register tcb) ]));
      wait_any self pool

let rec wait_for self pool target =
  if target.exited then begin
    reap pool target;
    target.tid
  end
  else begin
    ignore
      (Pool.suspend ~park:(fun tcb ->
           tcb.tstate <- Tblocked;
           target.waiter <- Some (tcb, register tcb)));
    wait_for self pool target
  end

let wait ?thread () =
  let self = Current.get () in
  let pool = self.pool in
  Uctx.charge pool.cost.Cost.call;
  match thread with
  | None -> wait_any self pool
  | Some tid -> (
      match find pool tid with
      | None -> invalid_arg "Thread.wait: no such thread"
      | Some target ->
          if target == self then invalid_arg "Thread.wait: waiting for self";
          if not target.wait_flag then
            invalid_arg "Thread.wait: thread not created with THREAD_WAIT";
          (match target.waiter with
          | Some j when live j ->
              invalid_arg "Thread.wait: thread already has a waiter"
          | Some _ | None -> ());
          wait_for self pool target)

let sigsetmask how set =
  let self = Current.get () in
  let old = self.tsigmask in
  self.tsigmask <- Sigset.apply how set ~old;
  Sigdeliver.mask_changed self;
  old

let kill tid signo =
  let pool = Current.pool () in
  Uctx.charge pool.cost.Cost.call;
  match find pool tid with
  | None -> invalid_arg "Thread.kill: no such thread"
  | Some target -> Sigdeliver.thread_kill target signo

let sigsend_all signo = Sigdeliver.sigsend_all (Current.pool ()) signo

let stop ?thread () =
  let self = Current.get () in
  let pool = self.pool in
  Uctx.charge pool.cost.Cost.call;
  let stop_self () =
    ignore (Pool.suspend ~park:(fun tcb -> tcb.tstate <- Tstopped))
  in
  match thread with
  | None -> stop_self ()
  | Some tid when tid = self.tid -> stop_self ()
  | Some tid -> (
      match find pool tid with
      | None -> invalid_arg "Thread.stop: no such thread"
      | Some target -> (
          match target.tstate with
          | Trunnable -> target.tstate <- Tstopped (* runq entry goes stale *)
          | Trunning | Tblocked -> target.stop_requested <- true
          | Tstopped | Tzombie -> ()))

let continue tid =
  let pool = Current.pool () in
  Uctx.charge pool.cost.Cost.call;
  match find pool tid with
  | None -> invalid_arg "Thread.continue: no such thread"
  | Some target -> (
      target.stop_requested <- false;
      match target.tstate with
      | Tstopped ->
          target.tstate <- Trunnable;
          if target.bound then Pool.unpark_bound pool target
          else begin
            (* preserve the wake_reason recorded when it was stopped *)
            Pool.runq_push pool target;
            Uctx.charge pool.cost.Cost.runq_op;
            ignore (Pool.kick_idle_lwp pool)
          end
      | Trunnable | Trunning | Tblocked | Tzombie -> ())

let priority ?thread prio =
  let self = Current.get () in
  let pool = self.pool in
  if prio < 0 then invalid_arg "Thread.priority: negative priority";
  let target =
    match thread with
    | None -> self
    | Some tid -> (
        match find pool tid with
        | Some t -> t
        | None -> invalid_arg "Thread.priority: no such thread")
  in
  let old = target.prio in
  target.prio <- min max_prio prio;
  old

let setconcurrency n =
  let pool = Current.pool () in
  if n < 0 then invalid_arg "Thread.setconcurrency: negative";
  if n = 0 then () (* automatic: SIGWAITING growth takes over *)
  else if n > pool.n_pool_lwps then
    for _ = pool.n_pool_lwps + 1 to n do
      Pool.grow_pool pool
    done
  else if n < pool.n_pool_lwps then begin
    pool.shrink_lwps <- pool.shrink_lwps + (pool.n_pool_lwps - n);
    (* poke idle LWPs so they notice and retire *)
    ignore (Pool.kick_idle_lwp pool)
  end

let yield () =
  let self = Current.get () in
  let pool = self.pool in
  Pool.thread_checkpoint ();
  if live_runnable pool && not self.bound then
    ignore
      (Pool.suspend ~park:(fun tcb ->
           tcb.tstate <- Trunnable;
           Pool.runq_push pool tcb))
  else Uctx.charge pool.cost.Cost.call

let sigaction signo disp =
  Sigdeliver.set_disposition (Current.pool ()) signo disp

let sigaltstack enabled =
  let self = Current.get () in
  (* the paper: alternate-stack state belongs to the LWP, so only bound
     threads may use one — giving it to unbound threads would cost a
     system call on every thread context switch *)
  if not self.bound then
    invalid_arg "Thread.sigaltstack: only bound threads may use one";
  match Uctx.syscall (Sysdefs.Sys_sigaltstack enabled) with
  | Sysdefs.R_ok -> ()
  | _ -> invalid_arg "Thread.sigaltstack"

let state tid =
  Option.map (fun t -> tstate_name t.tstate) (find (Current.pool ()) tid)
