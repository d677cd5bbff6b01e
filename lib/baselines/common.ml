(* The half of Model.S that every model shares: each realizes its
   threads as THREAD_WAIT library threads joined by id, and synchronizes
   with the library's own mutexes and semaphores.  A model includes this
   and adds its name, its boot, its spawn flags and its set_concurrency;
   what tells the models apart is only how the library is booted and how
   threads meet LWPs. *)

module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread

type thread = T.id

let join t = ignore (T.wait ~thread:t ())
let yield = T.yield

module Mu = struct
  type t = Sunos_threads.Mutex.t

  let create () = Sunos_threads.Mutex.create ()
  let lock = Sunos_threads.Mutex.enter
  let unlock = Sunos_threads.Mutex.exit
end

module Sem = struct
  type t = Sunos_threads.Semaphore.t

  let create count = Sunos_threads.Semaphore.create ~count ()
  let p = Sunos_threads.Semaphore.p
  let v = Sunos_threads.Semaphore.v
end
