(* The M:N scheduler: threads multiplexed on a pool of LWPs.

   Each pool LWP runs [lwp_main]: pick a thread from the user-level run
   queue, load its state, run it until it suspends (Figure 2 of the
   paper), save its state, pick another.  No kernel call is involved in
   any of that; the kernel is entered only when a thread blocks *in* the
   kernel (syscalls pass through transparently thanks to nested effect
   handlers), when an idle LWP parks, or when a waker unparks one.

   THE COMMIT RULE (lost-wakeup freedom): a blocking primitive must
   perform no effect (no charge, no syscall) between reading the state
   that makes it decide to block and performing [Suspend]; and the
   scheduler saves the continuation and runs the park function with no
   intervening effect.  Simulated interleaving happens only at effect
   boundaries, so decision + suspension + waitq insertion are atomic —
   the simulation analogue of holding the queue's dispatcher lock. *)

open Ttypes
module Uctx = Sunos_kernel.Uctx
module Errno = Sunos_kernel.Errno
module Cost = Sunos_hw.Cost_model
module Time = Sunos_sim.Time
module Prioq = Sunos_sim.Prioq

let charge = Uctx.charge

(* ------------------------------------------------------------------ *)
(* Pool construction                                                   *)
(* ------------------------------------------------------------------ *)

let make_pool ~pid ~cost ~auto_grow =
  {
    pid;
    cost;
    runq = Prioq.create ~levels:(max_prio + 1);
    threads = Hashtbl.create 64;
    next_tid = 1;
    live_threads = 0;
    n_pool_lwps = 1;
    idle_lwps = [];
    shrink_lwps = 0;
    stack_cached = 0;
    stack_hits = 0;
    stack_misses = 0;
    handlers = Array.make (Sunos_kernel.Signo.max_sig + 1) Sysdefs.Sig_default;
    proc_pending_tsigs = [];
    any_waiters = [];
    auto_grow;
    timer_slot = None;
    ctr_creates_unbound = 0;
    ctr_creates_bound = 0;
    ctr_switches = 0;
    ctr_lwp_grown = 0;
  }

(* ------------------------------------------------------------------ *)
(* Run queue (user level)                                              *)
(* ------------------------------------------------------------------ *)

let runq_push pool tcb =
  Prioq.push pool.runq (max 0 (min max_prio tcb.prio)) tcb

(* A queued thread that is no longer runnable (suspended while queued)
   is a stale entry.  Under the schedule explorer a candidate's
   footprint is the locks the thread holds (thrsan's held-set
   bookkeeping), which is what the explorer's partial-order reduction
   keys on: reordering two ready threads whose lock footprints are
   disjoint commutes at the sync-object level. *)
let runnable tcb = tcb.tstate = Trunnable
let held_locks tcb = List.map (fun o -> o.so_id) tcb.san_held

(* The front live thread of the highest priority that has one. *)
let runq_pop pool =
  Prioq.take ~site:"runq" ~obj:pool.pid ~foot:held_locks ~want:1
    ~live:runnable pool.runq

(* ------------------------------------------------------------------ *)
(* Thread-level signal pickup                                          *)
(* ------------------------------------------------------------------ *)

(* Run the handlers for any thread-directed signals pending on the
   current thread.  Runs inside the thread's own fiber, so handlers may
   block, make system calls, etc. *)
let rec run_pending_tsigs () =
  let tcb = Current.get () in
  let pool = tcb.pool in
  match Queue.take_opt tcb.pending_tsigs with
  | None -> ()
  | Some signo ->
      (match pool.handlers.(signo) with
      | Sysdefs.Sig_handler h ->
          charge pool.cost.Cost.signal_deliver;
          h signo
      | Sysdefs.Sig_default | Sysdefs.Sig_ignore -> ());
      run_pending_tsigs ()

(* A cooperative delivery point: primitives call this so running threads
   notice thread_kill()s and routed interrupts promptly. *)
let thread_checkpoint () =
  match Current.get_opt () with
  | Some tcb when not (Queue.is_empty tcb.pending_tsigs) ->
      run_pending_tsigs ()
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Suspension and wakeup                                               *)
(* ------------------------------------------------------------------ *)

(* A signal wakeup runs the thread's pending handlers here, in its own
   fiber, before the blocking primitive looks at why it woke. *)
let suspend ~park =
  match Effect.perform (Suspend park) with
  | Wake_normal -> Wake_normal
  | Wake_signal ->
      run_pending_tsigs ();
      Wake_signal

(* Pop an idle pool LWP and unpark it so it notices new work.  Returns
   whether a live LWP was actually kicked: under fault injection an LWP
   can be reaped by the kernel while it sits on the idle list, in which
   case its unpark raises ESRCH — repair the pool accounting and try the
   next candidate.  Callers that must guarantee capacity (the SIGWAITING
   handler) grow the pool when this returns [false]. *)
let rec kick_idle_lwp pool =
  match pool.idle_lwps with
  | [] -> false
  | lid :: rest -> (
      pool.idle_lwps <- rest;
      try
        Uctx.lwp_unpark lid;
        true
      with Errno.Unix_error (Errno.ESRCH, _) ->
        pool.n_pool_lwps <- pool.n_pool_lwps - 1;
        kick_idle_lwp pool)

(* Forward declaration: respawning the dedicated LWP of a bound thread
   whose LWP was reaped while parked.  Set to the real implementation
   once [bound_main] exists (the let-rec chain cannot reach it here). *)
let bound_rescue : (pool -> tcb -> unit) ref =
  ref (fun _ _ -> failwith "bound_rescue: not initialised")

let unpark_bound pool tcb =
  try Uctx.lwp_unpark tcb.bound_lwp
  with Errno.Unix_error (Errno.ESRCH, _) -> !bound_rescue pool tcb

let make_ready tcb reason =
  let pool = tcb.pool in
  (* retire the thread's wait registration: the entry it left in a wait
     queue, joinee or timer is dead from here on *)
  tcb.wait_gen <- tcb.wait_gen + 1;
  (* a woken thread is no longer waiting: clear its waits-for edge so
     the sanitizer never walks a stale one (single store; kept
     unconditional so toggling thrsan mid-run stays sound) *)
  tcb.san_waiting <- None;
  tcb.wake_reason <- reason;
  if tcb.stop_requested then begin
    tcb.stop_requested <- false;
    tcb.tstate <- Tstopped
  end
  else begin
    tcb.tstate <- Trunnable;
    if tcb.bound then begin
      (* the dedicated LWP sleeps in the kernel: waking a bound thread
         means library bookkeeping plus a kernel round trip (the paper's
         bound-thread synchronization premium) *)
      charge pool.cost.Cost.sync_slow_extra;
      unpark_bound pool tcb
    end
    else begin
      runq_push pool tcb;
      charge pool.cost.Cost.runq_op;
      ignore (kick_idle_lwp pool)
    end
  end

(* ------------------------------------------------------------------ *)
(* Running one thread on the current LWP                               *)
(* ------------------------------------------------------------------ *)

let run_thread_fiber entry =
  let open Effect.Deep in
  match_with entry ()
    {
      retc = (fun () -> T_done);
      exnc =
        (fun e ->
          match e with Thread_exit_exn -> T_done | e -> T_raised e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend park ->
              Some (fun (k : (a, tstep) continuation) -> T_suspended (park, k))
          | _ -> None);
    }

(* Wake the oldest live thread_wait(NULL) sleeper, dropping the dead
   registrations in front of it. *)
let rec wake_any_waiter pool =
  match pool.any_waiters with
  | [] -> ()
  | ((w, _) as j) :: rest ->
      pool.any_waiters <- rest;
      if live j then make_ready w Wake_normal else wake_any_waiter pool

(* Reclaim what thread_exit leaves behind.  Default stacks go back to
   the library cache; joinable (THREAD_WAIT) threads linger as zombies
   until waited for. *)
let thread_finish pool tcb =
  tcb.exited <- true;
  tcb.tstate <- Tzombie;
  pool.live_threads <- pool.live_threads - 1;
  (match tcb.stack_kind with
  | Stack_default -> pool.stack_cached <- pool.stack_cached + 1
  | Stack_caller _ -> ());
  if tcb.wait_flag then begin
    let joiner = tcb.waiter in
    tcb.waiter <- None;
    match joiner with
    | Some ((w, _) as j) when live j -> make_ready w Wake_normal
    | Some _ | None -> wake_any_waiter pool
  end
  else Hashtbl.remove pool.threads tcb.tid;
  if pool.live_threads = 0 then
    (* the last thread is gone: the process's work is done *)
    Uctx.exit 0

(* Run [tcb] until it gives the LWP back.  [my_cur] is this LWP's slot
   behind the kernel resume hook. *)
let run_thread pool my_cur tcb =
  charge pool.cost.Cost.user_ctx_restore;
  let cur = Some tcb in
  my_cur := cur;
  Current.set cur;
  tcb.tstate <- Trunning;
  pool.ctr_switches <- pool.ctr_switches + 1;
  let step =
    match tcb.entry with
    | Some f ->
        tcb.entry <- None;
        run_thread_fiber (fun () ->
            if not (Queue.is_empty tcb.pending_tsigs) then
              run_pending_tsigs ();
            f ())
    | None -> (
        match tcb.kont with
        | Some kont ->
            tcb.kont <- None;
            Effect.Deep.continue kont tcb.wake_reason
        | None -> assert false)
  in
  my_cur := None;
  Current.set None;
  match step with
  | T_done -> thread_finish pool tcb
  | T_raised e ->
      (* an uncaught exception in a thread takes the process down, like
         an unhandled trap *)
      raise e
  | T_suspended (park, kont) ->
      (* no effect between saving the continuation and parking: commit
         rule (see the header comment) *)
      tcb.kont <- Some kont;
      let gen = tcb.wait_gen in
      park tcb;
      (* bare-park audit: blocked, yet the park registered no wait (the
         generation is unchanged) — no waker can find this thread *)
      if Thrsan.tracking () && tcb.tstate = Tblocked && tcb.wait_gen = gen
      then Thrsan.note_bare_park tcb;
      charge pool.cost.Cost.user_ctx_save

(* ------------------------------------------------------------------ *)
(* LWP bodies                                                          *)
(* ------------------------------------------------------------------ *)

(* Body of a pool LWP serving unbound threads. *)
let lwp_main pool () =
  let my_cur = ref None in
  Uctx.set_resume_hook (fun () -> Current.set !my_cur);
  let my_lid = Uctx.getlwpid () in
  let rec loop () =
    if pool.shrink_lwps > 0 && pool.n_pool_lwps > 1 then begin
      pool.shrink_lwps <- pool.shrink_lwps - 1;
      pool.n_pool_lwps <- pool.n_pool_lwps - 1;
      Uctx.lwp_exit ()
    end
    else
      match runq_pop pool with
      | Some tcb ->
          run_thread pool my_cur tcb;
          loop ()
      | None ->
          (* idle: advertise, then re-check before parking (the waker
             pops us from idle_lwps before unparking, so a wakeup that
             races with this window leaves us an unpark token) *)
          pool.idle_lwps <- my_lid :: pool.idle_lwps;
          if live_runnable pool then begin
            pool.idle_lwps <-
              List.filter (fun l -> l <> my_lid) pool.idle_lwps;
            loop ()
          end
          else begin
            (match Uctx.lwp_park () with `Parked | `Timeout -> ());
            pool.idle_lwps <- List.filter (fun l -> l <> my_lid) pool.idle_lwps;
            loop ()
          end
  in
  loop ()

(* Body of an LWP permanently bound to one thread (THREAD_BIND_LWP).
   When its thread blocks at user level, the LWP parks in the kernel —
   which is precisely why bound-thread synchronization costs kernel
   round trips (Figure 6, row 3). *)
let bound_main pool tcb () =
  let my_cur = ref None in
  Uctx.set_resume_hook (fun () -> Current.set !my_cur);
  tcb.bound_lwp <- Uctx.getlwpid ();
  let rec loop () =
    match tcb.tstate with
    | Trunnable ->
        run_thread pool my_cur tcb;
        if tcb.tstate = Tzombie then Uctx.lwp_exit () else loop ()
    | Tblocked | Tstopped ->
        (match Uctx.lwp_park () with `Parked | `Timeout -> ());
        loop ()
    | Trunning | Tzombie -> Uctx.lwp_exit ()
  in
  loop ()

(* Add an LWP to the pool (thread_setconcurrency, THREAD_NEW_LWP, or
   SIGWAITING growth).

   LWP creation can fail with a transient ENOMEM under fault injection.
   Growth must eventually happen: by the time the SIGWAITING handler
   calls us the edge trigger has been consumed, so giving up would
   leave the process one all-blocked transition away from a silent
   deadlock.  Retry with capped exponential backoff — the backoff
   sleeps complete with ordinary wakeups, which re-arm the SIGWAITING
   edge, so the process stays recoverable while we wait out the
   pressure. *)
let lwp_create_retry entry =
  let rec attempt backoff =
    match Uctx.lwp_create ~entry () with
    | _lid -> ()
    | exception Errno.Unix_error (Errno.ENOMEM, _) ->
        Uctx.sleep backoff;
        attempt (Time.min (Time.ms 10) (Int64.mul backoff 2L))
  in
  attempt (Time.us 100)

let grow_pool pool =
  lwp_create_retry (lwp_main pool);
  pool.n_pool_lwps <- pool.n_pool_lwps + 1

let spawn_bound pool tcb = lwp_create_retry (bound_main pool tcb)

(* The forward declaration above can now point at the real thing: a
   bound thread whose LWP was reaped gets a fresh dedicated LWP, which
   re-reads [tcb.tstate] and runs it. *)
let () = bound_rescue := spawn_bound

(* ------------------------------------------------------------------ *)
(* Thread construction                                                 *)
(* ------------------------------------------------------------------ *)

let alloc_tid pool =
  let tid = pool.next_tid in
  pool.next_tid <- pool.next_tid + 1;
  tid

(* Charge the paper's unbound-creation path: TCB from the free list,
   stack from the cache (or a cold allocation + TLS zeroing). *)
let charge_create_costs pool stack_kind =
  let c = pool.cost in
  charge c.Cost.call;
  charge c.Cost.tcb_alloc;
  charge c.Cost.tcb_init;
  match stack_kind with
  | Stack_caller _ -> () (* programmer-supplied storage: nothing to do *)
  | Stack_default ->
      if pool.stack_cached > 0 then begin
        pool.stack_cached <- pool.stack_cached - 1;
        pool.stack_hits <- pool.stack_hits + 1;
        charge c.Cost.stack_cache_hit
      end
      else begin
        pool.stack_misses <- pool.stack_misses + 1;
        charge c.Cost.stack_alloc_cold;
        charge c.Cost.tls_zero
      end

let new_tcb pool ~entry ~prio ~sigmask ~bound ~wait_flag ~stack_kind ~stopped =
  let tcb =
    {
      tid = alloc_tid pool;
      pool;
      tstate = (if stopped then Tstopped else Trunnable);
      prio;
      tsigmask = sigmask;
      kont = None;
      wake_reason = Wake_normal;
      entry = Some entry;
      bound;
      bound_lwp = 0;
      wait_flag;
      stack_kind;
      tls = Array.make 8 None;
      waiter = None;
      wait_gen = 0;
      pending_tsigs = Queue.create ();
      stop_requested = false;
      exited = false;
      san_waiting = None;
      san_held = [];
    }
  in
  Hashtbl.replace pool.threads tcb.tid tcb;
  pool.live_threads <- pool.live_threads + 1;
  tcb
