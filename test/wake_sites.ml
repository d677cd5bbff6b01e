(* A thread-directed signal wakeup at every library wait site, shared by
   test_threads (outcomes and simulated end times) and test_thrsan (none
   of these legitimate waits is a bare park).

   Each site blocks a victim thread, wakes it with [Thread.kill], and
   then has the waker act on the same wait before the victim runs again
   (no yield between the kill and the act): a [Mutex.exit], a
   [Semaphore.v], the joined thread's exit, the alarm that ends a sleep.
   The signal wakeup must have retired the victim's wait registration,
   so that act finds no stale waiter to wake a second time; the victim
   then runs its handler exactly once and retries the wait. *)

module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Sysdefs = Sunos_kernel.Sysdefs
module Signo = Sunos_kernel.Signo
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Mutex = Sunos_threads.Mutex
module Condvar = Sunos_threads.Condvar
module Semaphore = Sunos_threads.Semaphore
module Rwlock = Sunos_threads.Rwlock
module Timers = Sunos_threads.Timers

type result = {
  handled : int;  (* SIGUSR1 handler runs *)
  held : bool;  (* the site's own outcome *)
  ended : Time.t;  (* simulated instant the run drained *)
  status : int option;  (* the process's exit status *)
}

(* Start [victim] and run until it blocks: on one LWP, the yield lets it
   run to its wait before the caller resumes. *)
let blocked victim =
  let tid = T.create ~flags:[ T.THREAD_WAIT ] victim in
  T.yield ();
  tid

let mutex () =
  let m = Mutex.create () and entries = ref 0 in
  Mutex.enter m;
  let v =
    blocked (fun () ->
        Mutex.enter m;
        incr entries;
        Mutex.exit m)
  in
  T.kill v Signo.sigusr1;
  Mutex.exit m;
  ignore (T.wait ~thread:v ());
  !entries = 1 && not (Mutex.is_locked m)

let condvar () =
  let m = Mutex.create () and cv = Condvar.create () in
  let ready = ref false and returns = ref 0 in
  let v =
    blocked (fun () ->
        Mutex.enter m;
        while not !ready do
          Condvar.wait cv m;
          incr returns
        done;
        Mutex.exit m)
  in
  T.kill v Signo.sigusr1;
  Mutex.enter m;
  ready := true;
  Condvar.signal cv;
  Mutex.exit m;
  ignore (T.wait ~thread:v ());
  !returns = 1 && not (Mutex.is_locked m)

let semaphore () =
  let s = Semaphore.create () and got = ref false in
  let v =
    blocked (fun () ->
        Semaphore.p s;
        got := true)
  in
  T.kill v Signo.sigusr1;
  Semaphore.v s;
  ignore (T.wait ~thread:v ());
  !got && Semaphore.count s = 0

(* [first] is held by the caller while the victim waits for [second]. *)
let rwlock first second () =
  let rw = Rwlock.create () and entered = ref false in
  Rwlock.enter rw first;
  let v =
    blocked (fun () ->
        Rwlock.enter rw second;
        entered := true;
        Rwlock.exit rw)
  in
  T.kill v Signo.sigusr1;
  Rwlock.exit rw;
  ignore (T.wait ~thread:v ());
  !entered && Rwlock.readers rw = 0 && not (Rwlock.has_writer rw)

(* The victim joins [target]; the target kills the victim and exits at
   once, so its exit is the act that follows the kill. *)
let join wait () =
  let gate = Semaphore.create () and victim = ref 0 and joined = ref 0 in
  let target =
    T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
        Semaphore.p gate;
        T.kill !victim Signo.sigusr1)
  in
  victim := blocked (fun () -> joined := wait target);
  Semaphore.v gate;
  ignore (T.wait ~thread:!victim ());
  !joined = target

let sleep () =
  let span = Time.ms 10 and slept = ref Time.zero in
  let v =
    blocked (fun () ->
        let t0 = Uctx.gettime () in
        Timers.sleep span;
        slept := Time.diff (Uctx.gettime ()) t0)
  in
  T.kill v Signo.sigusr1;
  (* the alarm is handled on this thread, past the deadline, before the
     victim runs again *)
  Uctx.charge_us 20_000;
  ignore (T.wait ~thread:v ());
  Time.(!slept >= span) && Timers.pending () = 0

let sites =
  [
    ("mutex", mutex);
    ("condvar", condvar);
    ("semaphore", semaphore);
    ("rwlock reader", rwlock Rwlock.Writer Rwlock.Reader);
    ("rwlock writer", rwlock Rwlock.Reader Rwlock.Writer);
    ("wait thread", join (fun target -> T.wait ~thread:target ()));
    ("wait any", join (fun _ -> T.wait ()));
    ("timer sleep", sleep);
  ]

let run site =
  let handled = ref 0 and held = ref false in
  let k = Kernel.boot ~cpus:1 () in
  ignore
    (Kernel.spawn k ~name:"wake"
       ~main:
         (Libthread.boot (fun () ->
              ignore
                (T.sigaction Signo.sigusr1
                   (Sysdefs.Sig_handler (fun _ -> incr handled)));
              held := site ())));
  Kernel.run k;
  {
    handled = !handled;
    held = !held;
    ended = Kernel.now k;
    status = Kernel.exit_status k 1;
  }
