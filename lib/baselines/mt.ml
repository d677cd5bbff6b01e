(* The paper's architecture, exposed through the common Model.S
   signature: unbound threads multiplexed on an automatically-grown LWP
   pool.  This is the system under test; the other files in this library
   are its competitors. *)

include Common

let name = "mt"
let boot ?cost main = Libthread.boot ?cost ~auto_grow:true main

let spawn f = T.create ~flags:[ T.THREAD_WAIT ] f
let set_concurrency n = T.setconcurrency n
