module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Fs = Sunos_kernel.Fs
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Semaphore = Sunos_threads.Semaphore
module Mutex = Sunos_threads.Mutex
module Syncvar = Sunos_threads.Syncvar

let us = Time.to_us

type creation = { unbound_us : float; bound_us : float }

let creation ?cost () =
  let unbound = ref 0. and bound = ref 0. in
  let k = Kernel.boot ?cost () in
  Kernel.set_tracing k false;
  ignore
    (Kernel.spawn k ~name:"fig5"
       ~main:
         (Libthread.boot (fun () ->
              let n = 200 in
              (* warm the default-stack cache, as the paper measures *)
              let warm =
                List.init n (fun _ ->
                    T.create ~flags:[ T.THREAD_WAIT ] (fun () -> ()))
              in
              List.iter (fun t -> ignore (T.wait ~thread:t ())) warm;
              let t0 = Uctx.gettime () in
              let ts =
                List.init n (fun _ ->
                    T.create ~flags:[ T.THREAD_STOP; T.THREAD_WAIT ]
                      (fun () -> ()))
              in
              let t1 = Uctx.gettime () in
              unbound := us (Time.diff t1 t0) /. float_of_int n;
              List.iter T.continue ts;
              List.iter (fun t -> ignore (T.wait ~thread:t ())) ts;
              let nb = 25 in
              let t0 = Uctx.gettime () in
              let ts =
                List.init nb (fun _ ->
                    T.create
                      ~flags:[ T.THREAD_STOP; T.THREAD_BIND_LWP; T.THREAD_WAIT ]
                      (fun () -> ()))
              in
              let t1 = Uctx.gettime () in
              bound := us (Time.diff t1 t0) /. float_of_int nb;
              List.iter T.continue ts;
              List.iter (fun t -> ignore (T.wait ~thread:t ())) ts)));
  Kernel.run k;
  { unbound_us = !unbound; bound_us = !bound }

type sync = {
  setjmp_us : float;
  unbound_us : float;
  bound_us : float;
  cross_process_us : float;
}

let sync_unbound ?cost () =
  let per = ref 0. in
  let k = Kernel.boot ?cost () in
  Kernel.set_tracing k false;
  ignore
    (Kernel.spawn k ~name:"sync-unbound"
       ~main:
         (Libthread.boot (fun () ->
              let s1 = Semaphore.create () and s2 = Semaphore.create () in
              let rounds = 400 in
              let t2 =
                T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                    for _ = 1 to rounds do
                      Semaphore.p s2;
                      Semaphore.v s1
                    done)
              in
              T.yield ();
              let t0 = Uctx.gettime () in
              for _ = 1 to rounds do
                Semaphore.v s2;
                Semaphore.p s1
              done;
              let t1 = Uctx.gettime () in
              per := us (Time.diff t1 t0) /. (2. *. float_of_int rounds);
              ignore (T.wait ~thread:t2 ()))));
  Kernel.run k;
  !per

let sync_bound ?cost () =
  let per = ref 0. in
  let k = Kernel.boot ?cost () in
  Kernel.set_tracing k false;
  ignore
    (Kernel.spawn k ~name:"sync-bound"
       ~main:
         (Libthread.boot (fun () ->
              let s1 = Semaphore.create () and s2 = Semaphore.create () in
              let rounds = 200 in
              let t2 =
                T.create
                  ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
                  (fun () ->
                    for _ = 1 to rounds do
                      Semaphore.p s2;
                      Semaphore.v s1
                    done)
              in
              let t1b =
                T.create
                  ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
                  (fun () ->
                    let t0 = Uctx.gettime () in
                    for _ = 1 to rounds do
                      Semaphore.v s2;
                      Semaphore.p s1
                    done;
                    let t1 = Uctx.gettime () in
                    per := us (Time.diff t1 t0) /. (2. *. float_of_int rounds))
              in
              ignore (T.wait ~thread:t2 ());
              ignore (T.wait ~thread:t1b ()))));
  Kernel.run k;
  !per

let sync_cross ?cost () =
  let per = ref 0. in
  let k = Kernel.boot ?cost () in
  Kernel.set_tracing k false;
  (match Fs.create_file (Kernel.fs k) ~path:"/sem" () with
  | Ok _ -> ()
  | Error _ -> invalid_arg "Microbench.sync: setup failed");
  let rounds = 200 in
  ignore
    (Kernel.spawn k ~name:"peer"
       ~main:
         (Libthread.boot (fun () ->
              let fd = Uctx.open_file "/sem" in
              let seg = Uctx.mmap fd in
              let s1 = Semaphore.create_shared (Syncvar.place seg ~offset:0) in
              let s2 = Semaphore.create_shared (Syncvar.place seg ~offset:64) in
              for _ = 1 to rounds do
                Semaphore.p s2;
                Semaphore.v s1
              done)));
  ignore
    (Kernel.spawn k ~name:"timer"
       ~main:
         (Libthread.boot (fun () ->
              let fd = Uctx.open_file "/sem" in
              let seg = Uctx.mmap fd in
              let s1 = Semaphore.create_shared (Syncvar.place seg ~offset:0) in
              let s2 = Semaphore.create_shared (Syncvar.place seg ~offset:64) in
              Uctx.sleep (Time.ms 1);
              let t0 = Uctx.gettime () in
              for _ = 1 to rounds do
                Semaphore.v s2;
                Semaphore.p s1
              done;
              let t1 = Uctx.gettime () in
              per := us (Time.diff t1 t0) /. (2. *. float_of_int rounds))));
  Kernel.run k;
  !per

let sync ?cost () =
  let model =
    match cost with Some c -> c | None -> Sunos_hw.Cost_model.default
  in
  {
    setjmp_us = us model.Sunos_hw.Cost_model.setjmp_longjmp;
    unbound_us = sync_unbound ?cost ();
    bound_us = sync_bound ?cost ();
    cross_process_us = sync_cross ?cost ();
  }

type contention = { makespan_ms : float; cpu_ms : float }

let mutex_contention ?cost variant ~cs_us =
  let k = Kernel.boot ~cpus:2 ?cost () in
  Kernel.set_tracing k false;
  let makespan = ref Time.zero and cpu_used = ref 0L in
  ignore
    (Kernel.spawn k ~name:"mtx"
       ~main:
         (Libthread.boot (fun () ->
              let m = Mutex.create ~variant () in
              let worker i () =
                (* stagger the start so the threads collide *)
                Uctx.charge_us (i * (cs_us / 2));
                for _ = 1 to 50 do
                  Mutex.enter m;
                  Uctx.charge_us cs_us;
                  Mutex.exit m;
                  Uctx.charge_us (7 * (i + 1))
                done
              in
              let ts =
                List.init 3 (fun i ->
                    T.create ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
                      (worker i))
              in
              List.iter (fun t -> ignore (T.wait ~thread:t ())) ts;
              makespan := Uctx.gettime ();
              let ru = Uctx.getrusage () in
              cpu_used :=
                Int64.add ru.Sunos_kernel.Sysdefs.ru_utime
                  ru.Sunos_kernel.Sysdefs.ru_stime)));
  Kernel.run k;
  { makespan_ms = Time.to_ms !makespan; cpu_ms = Time.to_ms !cpu_used }

let spin_budgets = [ 0; 1; 5; 20; 100 ]
