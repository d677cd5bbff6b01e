(* The SunOS 4.0 LWP library [Kepecs 1985]: a classic user-level-only
   coroutine package.  No kernel support at all: synchronization never
   enters the kernel (good), but a blocking system call or page fault
   blocks the entire application (bad — the paper's central criticism).

   Realized as the threads library pinned to exactly one LWP with the
   SIGWAITING growth disabled; with a single LWP, every kernel block
   stalls every thread, which is precisely the 4.0 behaviour.

   The era's mitigation — a non-blocking I/O wrapper library over the
   kernel's asynchronous facilities — is provided as [read_mitigated]:
   it polls with a zero timeout and yields between probes, so other
   coroutines run while I/O is pending (page faults still stall the
   world, as the paper notes). *)

include Common
module Uctx = Sunos_kernel.Uctx
module Time = Sunos_sim.Time

let name = "liblwp"
let boot main = Libthread.boot ~concurrency:1 ~auto_grow:false main

let spawn f = T.create ~flags:[ T.THREAD_WAIT ] f

(* the whole point of this model is its single LWP *)
let set_concurrency _ = ()

(* Poll-and-yield read: never commits the single LWP to an indefinite
   kernel sleep while other coroutines could run. *)
let read_mitigated fd ~len =
  let rec wait () =
    let ready =
      Uctx.poll ~timeout:Time.zero
        [ { Sunos_kernel.Sysdefs.pfd = fd; want_in = true; want_out = false } ]
    in
    if ready = [] then begin
      T.yield ();
      (* nothing else runnable: sleep briefly rather than spin *)
      Uctx.sleep (Time.ms 2);
      wait ()
    end
    else Uctx.read fd ~len
  in
  wait ()
