module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Sysdefs = Sunos_kernel.Sysdefs
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Mutex = Sunos_threads.Mutex
module Condvar = Sunos_threads.Condvar

type mode = Unbound of int | Bound | Bound_gang

let row_compute_us = 400

type params = {
  rows : int;
  sweeps : int;
  mode : mode;
  spin_barrier : bool;
}

let default_params =
  { rows = 64; sweeps = 10; mode = Bound; spin_barrier = false }

type results = {
  makespan : Sunos_sim.Time.span;
  thread_switches : int;
  lwps_created : int;
}

(* Classic sense-reversing barrier on a mutex + condvar. *)
let make_blocking_barrier n =
  let m = Mutex.create () in
  let cv = Condvar.create () in
  let count = ref 0 and generation = ref 0 in
  fun () ->
    Mutex.enter m;
    let gen = !generation in
    incr count;
    if !count = n then begin
      count := 0;
      incr generation;
      Condvar.broadcast cv
    end
    else
      while !generation = gen do
        Condvar.wait cv m
      done;
    Mutex.exit m

(* Spinning barrier: arrivals burn CPU probing the generation counter —
   the fine-grain style whose pathology gang scheduling exists to fix. *)
let make_spin_barrier n =
  let m = Mutex.create ~variant:Mutex.Spin () in
  let count = ref 0 and generation = ref 0 in
  fun () ->
    Mutex.enter m;
    let gen = !generation in
    incr count;
    if !count = n then begin
      count := 0;
      incr generation
    end;
    Mutex.exit m;
    while !generation = gen do
      Uctx.charge_us 5
    done

let run ?(cpus = 4) ?cost ?chaos ?(background_load = false) p =
  let k = Kernel.boot ~cpus ?cost ?chaos () in
  Kernel.set_tracing k false;
  let makespan = ref Time.zero and switches = ref 0 in
  let app () =
    let n_threads, flags, gang =
      match p.mode with
      | Unbound n -> (n, [ T.THREAD_WAIT ], false)
      | Bound -> (cpus, [ T.THREAD_BIND_LWP; T.THREAD_WAIT ], false)
      | Bound_gang -> (cpus, [ T.THREAD_BIND_LWP; T.THREAD_WAIT ], true)
    in
    (match p.mode with
    | Unbound _ -> T.setconcurrency cpus
    | Bound | Bound_gang -> ());
    let barrier =
      if p.spin_barrier then make_spin_barrier n_threads
      else make_blocking_barrier n_threads
    in
    let rows_of i =
      (* static row partition *)
      let per = p.rows / n_threads and extra = p.rows mod n_threads in
      per + (if i < extra then 1 else 0)
    in
    let worker i () =
      if gang then Uctx.priocntl (Sysdefs.Cls_gang 1);
      for _sweep = 1 to p.sweeps do
        for _row = 1 to rows_of i do
          Uctx.charge_us row_compute_us
        done;
        barrier ()
      done
    in
    let ts = List.init n_threads (fun i -> T.create ~flags (worker i)) in
    List.iter (fun t -> ignore (T.wait ~thread:t ())) ts;
    switches := (Libthread.stats ()).Libthread.switches;
    makespan := Uctx.gettime ()
  in
  ignore (Kernel.spawn k ~name:"array" ~main:(Libthread.boot app));
  if background_load then
    ignore
      (Kernel.spawn k ~name:"load" ~main:(fun () ->
           (* a CPU hog that competes for one processor until the array
              job is done; it stops when the simulation drains *)
           let rec burn () =
             Uctx.charge (Time.ms 5);
             if Time.(Uctx.gettime () < Time.s 10) then burn ()
           in
           burn ()));
  Kernel.run k;
  {
    makespan = !makespan;
    thread_switches = !switches;
    lwps_created = Kernel.lwp_create_count k;
  }

let pp_results ppf r =
  Format.fprintf ppf "makespan=%a switches=%d lwps=%d" Time.pp r.makespan
    r.thread_switches r.lwps_created
