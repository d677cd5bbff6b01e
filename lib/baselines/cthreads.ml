(* Mach 2.5 C Threads in its kernel-thread configuration [Cooper 1990]:
   every thread maps 1:1 onto a kernel-supported thread of control.  No
   two-level model: creation always pays the kernel (the paper's Figure 5
   bound row), and contended synchronization always takes kernel round
   trips (the Figure 6 bound row).  Realized as the threads library with
   every thread THREAD_BIND_LWP. *)

include Common

let name = "cthreads"

(* growth is irrelevant: each thread brings its own LWP *)
let boot ?cost main = Libthread.boot ?cost ~auto_grow:false main

let spawn f = T.create ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ] f

(* 1:1 — every thread already has an LWP; there is no pool to size *)
let set_concurrency _ = ()
