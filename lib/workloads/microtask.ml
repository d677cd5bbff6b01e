module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Semaphore = Sunos_threads.Semaphore

type mode = Raw_lwps | Bound_threads

let iterations = 64

type params = {
  grain_us : int;
  workers : int;
  mode : mode;
  doalls : int;
}

let default_params =
  { grain_us = 200; workers = 4; mode = Raw_lwps; doalls = 5 }

type results = {
  makespan : Sunos_sim.Time.span;
  iterations_done : int;
  lwps_created : int;
}

let chunk_of p w =
  let per = iterations / p.workers and extra = iterations mod p.workers in
  per + (if w < extra then 1 else 0)

(* The "Fortran runtime": raw LWPs, park/unpark as the only coordination
   (unpark tokens make the handshake race-free), shared refs as the
   shared address space.  No threads library anywhere in this path. *)
let raw_main p done_count makespan () =
  let master = Uctx.getlwpid () in
  let work_gen = ref 0 in
  let remaining = ref 0 in
  let worker_gen = Array.make p.workers 0 in
  let worker_lids = Array.make p.workers 0 in
  let shutdown = ref false in
  let worker w () =
    worker_lids.(w) <- Uctx.getlwpid ();
    let rec serve () =
      if !shutdown then Uctx.lwp_exit ()
      else if worker_gen.(w) < !work_gen then begin
        worker_gen.(w) <- worker_gen.(w) + 1;
        for _ = 1 to chunk_of p w do
          Uctx.charge_us p.grain_us;
          incr done_count
        done;
        remaining := !remaining - 1;
        if !remaining = 0 then Uctx.lwp_unpark master;
        serve ()
      end
      else begin
        (match Uctx.lwp_park () with `Parked | `Timeout -> ());
        serve ()
      end
    in
    serve ()
  in
  for w = 0 to p.workers - 1 do
    ignore (Uctx.lwp_create ~entry:(worker w) ())
  done;
  (* give the workers a beat to record their lwpids *)
  Uctx.sleep (Time.ms 1);
  for _ = 1 to p.doalls do
    remaining := p.workers;
    incr work_gen;
    Array.iter (fun lid -> Uctx.lwp_unpark lid) worker_lids;
    while !remaining > 0 do
      match Uctx.lwp_park () with `Parked | `Timeout -> ()
    done
  done;
  makespan := Uctx.gettime ();
  shutdown := true;
  Array.iter (fun lid -> Uctx.lwp_unpark lid) worker_lids;
  Uctx.sleep (Time.ms 1);
  Uctx.exit 0

(* The same loop as bound threads for comparison. *)
let threads_main p done_count makespan () =
  let start = Semaphore.create () and fin = Semaphore.create () in
  let stop = ref false in
  let ts =
    List.init p.workers (fun w ->
        T.create
          ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
          (fun () ->
            let continue_ = ref true in
            while !continue_ do
              Semaphore.p start;
              if !stop then continue_ := false
              else begin
                for _ = 1 to chunk_of p w do
                  Uctx.charge_us p.grain_us;
                  incr done_count
                done;
                Semaphore.v fin
              end
            done))
  in
  for _ = 1 to p.doalls do
    for _ = 1 to p.workers do
      Semaphore.v start
    done;
    for _ = 1 to p.workers do
      Semaphore.p fin
    done
  done;
  makespan := Uctx.gettime ();
  stop := true;
  for _ = 1 to p.workers do
    Semaphore.v start
  done;
  List.iter (fun t -> ignore (T.wait ~thread:t ())) ts

let run ?(cpus = 4) ?cost p =
  let k = Kernel.boot ~cpus ?cost () in
  Kernel.set_tracing k false;
  let done_count = ref 0 and makespan = ref Time.zero in
  (match p.mode with
  | Raw_lwps ->
      ignore
        (Kernel.spawn k ~name:"microtask-raw"
           ~main:(raw_main p done_count makespan))
  | Bound_threads ->
      ignore
        (Kernel.spawn k ~name:"microtask-threads"
           ~main:(Libthread.boot (threads_main p done_count makespan))));
  Kernel.run k;
  {
    makespan = !makespan;
    iterations_done = !done_count;
    lwps_created = Kernel.lwp_create_count k;
  }

let pp_results ppf r =
  Format.fprintf ppf "makespan=%a iterations=%d lwps=%d" Time.pp r.makespan
    r.iterations_done r.lwps_created
