(* Scheduler activations in the University of Washington style [Anderson
   1990]: user-level threads like the MT architecture, but the kernel
   performs an upcall on EVERY block of a virtual processor, not only
   when the whole process would otherwise stall.  The library can thus
   keep a virtual processor running another thread across every kernel
   wait — finer-grained than SIGWAITING, at the price of one notification
   (and possibly one LWP creation) per blocking event.

   Realized with the kernel's [upcall_on_block] mode: on every
   application block the kernel either unparks one of the pool's idle
   LWPs or creates a fresh activation that enters the pool's LWP main
   loop. *)

include Common

let name = "activations"
let boot main = Libthread.boot ~activations:true main

let spawn f = T.create ~flags:[ T.THREAD_WAIT ] f

(* the pool sizes itself through blocking upcalls *)
let set_concurrency _ = ()
