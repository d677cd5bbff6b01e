module Shm = Sunos_hw.Shared_memory
module Univ = Sunos_sim.Univ
module Uctx = Sunos_kernel.Uctx

type place = { seg : Shm.t; offset : int }

let place seg ~offset = { seg; offset }

let locate p ~key ~make =
  match Shm.get p.seg ~offset:p.offset with
  | Some u -> (
      match Univ.unpack key u with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf
               "Syncvar.locate: offset %d of %s holds a different variable"
               p.offset (Shm.name p.seg)))
  | None ->
      let v = make () in
      Shm.put p.seg ~offset:p.offset (Univ.pack key v);
      v

let wait p ?timeout ~expect () =
  (* delivery point: the shared primitives (mutex, rwlock, semaphore)
     re-enter here from their retry loops on every wakeup, and a thread
     blocked in kwait keeps tstate Trunning — thread_kill cannot wake
     it, only queue the signal.  Running pending thread-directed
     signals here keeps a kwait-looping thread from starving them (the
     missing-checkpoint class of BUG 13/14). *)
  Pool.thread_checkpoint ();
  (* auto-instrument bare syncvar waits for the sanitizer; primitives
     built on syncvars (shared mutex/rwlock) record their own richer
     edge first, which we must not overwrite — hence the [san_waiting]
     emptiness check.  No edge survives the wait: kernel wakeups bypass
     [Pool.make_ready], so clear it ourselves. *)
  if Thrsan.tracking () then begin
    match Current.get_opt () with
    | Some self when self.Ttypes.san_waiting = None ->
        Thrsan.blocked_on self
          (Thrsan.shared_obj ~kind:"syncvar" ~seg:p.seg ~offset:p.offset ());
        let r = Uctx.kwait ~seg:p.seg ~offset:p.offset ?timeout ~expect () in
        Thrsan.clear_wait self;
        r
    | _ -> Uctx.kwait ~seg:p.seg ~offset:p.offset ?timeout ~expect ()
  end
  else Uctx.kwait ~seg:p.seg ~offset:p.offset ?timeout ~expect ()

let wake p ~count = Uctx.kwake ~seg:p.seg ~offset:p.offset ~count
let wake_all p = wake p ~count:max_int

(* A finished thread is gone from its process's thread table, or
   lingers there as a zombie until waited for. *)
let dead_holder ~pid ~lib ~proc_exit hpid htid =
  hpid = pid
  && (proc_exit
     ||
     match Ttypes.pool_of_lib lib with
     | None -> false
     | Some pool -> (
         match Hashtbl.find_opt pool.Ttypes.threads htid with
         | None -> true
         | Some t -> t.Ttypes.tstate = Ttypes.Tzombie))
