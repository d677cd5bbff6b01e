open Ttypes
module Uctx = Sunos_kernel.Uctx
module Sigset = Sunos_kernel.Sigset
module Signo = Sunos_kernel.Signo
module Sysdefs = Sunos_kernel.Sysdefs

let boot ?(concurrency = 0) ?(auto_grow = true) ?(activations = false) main
    () =
  (* the machine's path lengths, handed over by the kernel that runs us *)
  let cost = Uctx.cost () in
  let pool = Pool.make_pool ~pid:(Uctx.getpid ()) ~cost in
  if activations then
    (* scheduler-activations mode: on every application block the kernel
       hands us a context; fresh activations enter our LWP main loop *)
    Uctx.upcall_on_block (fun () ->
        pool.n_pool_lwps <- pool.n_pool_lwps + 1;
        pool.ctr_lwp_grown <- pool.ctr_lwp_grown + 1;
        Pool.lwp_main pool ());
  if auto_grow then
    (* SIGWAITING: all LWPs are blocked in indefinite waits; if threads
       are runnable, add an LWP so they can run (deadlock avoidance) *)
    ignore
      (Uctx.sigaction Signo.sigwaiting
         (Sysdefs.Sig_handler
            (fun _ ->
              (* grow only when runnable threads exist AND no already-
                 idle LWP could take them (idle ones just need a kick);
                 without the idle check, activations-style per-block
                 upcalls would grow the pool without bound *)
              if live_runnable pool then
                if pool.idle_lwps = [] || not (Pool.kick_idle_lwp pool)
                then begin
                  (* no idle LWP — or every "idle" entry was an LWP the
                     kernel reaped (chaos): kick repaired the accounting
                     and found nobody to wake, so real growth is due *)
                  pool.ctr_lwp_grown <- pool.ctr_lwp_grown + 1;
                  Pool.grow_pool pool
                end)));
  let main_tcb =
    Pool.new_tcb pool
      ~entry:(fun () ->
        main ();
        (* returning from main is exit(): all threads are destroyed *)
        Uctx.exit 0)
      ~prio:default_prio ~sigmask:Sigset.empty ~bound:false ~wait_flag:false
      ~stack_kind:Stack_default ~stopped:false
  in
  Pool.runq_push pool main_tcb;
  for _ = 2 to concurrency do
    Pool.grow_pool pool
  done;
  (* this initial LWP becomes pool LWP #1 and dispatches the main thread *)
  Pool.lwp_main pool ()

type stats = {
  creates_unbound : int;
  creates_bound : int;
  switches : int;
  lwps_grown : int;
  pool_lwps : int;
  live_threads : int;
  runnable : int;
  stack_cache_hits : int;
  stack_cache_misses : int;
}

let stats () =
  let pool = Current.pool () in
  {
    creates_unbound = pool.ctr_creates_unbound;
    creates_bound = pool.ctr_creates_bound;
    switches = pool.ctr_switches;
    lwps_grown = pool.ctr_lwp_grown;
    pool_lwps = pool.n_pool_lwps;
    live_threads = pool.live_threads;
    runnable = Sunos_sim.Prioq.length pool.runq;
    stack_cache_hits = pool.stack_hits;
    stack_cache_misses = pool.stack_misses;
  }

let threads_snapshot () =
  let pool = Current.pool () in
  Hashtbl.fold (fun tid t acc -> (tid, tstate_name t.tstate) :: acc)
    pool.threads []
  |> List.sort compare
