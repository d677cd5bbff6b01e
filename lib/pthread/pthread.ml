module Time = Sunos_sim.Time
module T = Sunos_threads.Thread
module Smutex = Sunos_threads.Mutex
module Scond = Sunos_threads.Condvar
module Ssem = Sunos_threads.Semaphore
module Srw = Sunos_threads.Rwlock
module Tls = Sunos_threads.Tls
module Uctx = Sunos_kernel.Uctx

(* ------------------------------------------------------------------ *)
(* Thread-specific data plumbing (needed by the thread wrapper)        *)
(* ------------------------------------------------------------------ *)

(* Destructors registered by Key.set, keyed by a unique key id so a
   second set for the same key replaces the cleanup rather than adding
   one.  POSIX runs destructors for keys with non-NULL values when the
   thread exits. *)
let tsd_cleanups : (int * (unit -> unit)) list Tls.key = Tls.key ~default:[]

let run_tsd_destructors () =
  let cleanups = Tls.get tsd_cleanups in
  Tls.set tsd_cleanups [];
  List.iter (fun (_, f) -> f ()) cleanups

(* ------------------------------------------------------------------ *)
(* Threads                                                             *)
(* ------------------------------------------------------------------ *)

type attr = {
  detached : bool;
  bound : bool;
  priority : int option;
  stack_size : int option;
}

let default_attr =
  { detached = false; bound = false; priority = None; stack_size = None }

(* The layer does its own join bookkeeping (a done-flag monitor per
   thread) so detach() works at any time without zombie juggling. *)
type t = {
  mutable tid : int;
  m : Smutex.t;
  cv : Scond.t;
  mutable finished : bool;
  mutable detached_flag : bool;
  mutable joined : bool;
}

let create ?(attr = default_attr) f =
  let m = Smutex.create () in
  let cv = Scond.create () in
  let handle =
    { tid = 0; m; cv; finished = false; detached_flag = attr.detached;
      joined = false }
  in
  let body () =
    Fun.protect
      ~finally:(fun () ->
        run_tsd_destructors ();
        Smutex.enter m;
        handle.finished <- true;
        Scond.broadcast cv;
        Smutex.exit m)
      f
  in
  let flags = if attr.bound then [ T.THREAD_BIND_LWP ] else [] in
  let stack =
    match attr.stack_size with Some n -> `Caller n | None -> `Default
  in
  let tid = T.create ~flags ~stack body in
  (match attr.priority with
  | Some p -> ignore (T.priority ~thread:tid p)
  | None -> ());
  handle.tid <- tid;
  handle

let join h =
  if h.detached_flag then invalid_arg "Pthread.join: thread is detached";
  if h.joined then invalid_arg "Pthread.join: already joined";
  Smutex.enter h.m;
  while not h.finished do
    Scond.wait h.cv h.m
  done;
  Smutex.exit h.m;
  h.joined <- true

let detach h = h.detached_flag <- true
let self () = T.get_id ()
let equal a b = a.tid = b.tid

let exit () =
  run_tsd_destructors ();
  T.exit ()

let yield = T.yield

(* ------------------------------------------------------------------ *)
(* Once                                                                *)
(* ------------------------------------------------------------------ *)

type once_state = Not_started | Running | Done

type once = {
  o_m : Smutex.t;
  o_cv : Scond.t;
  mutable o_state : once_state;
}

let once_init () =
  { o_m = Smutex.create (); o_cv = Scond.create (); o_state = Not_started }

let once o f =
  Smutex.enter o.o_m;
  match o.o_state with
  | Done -> Smutex.exit o.o_m
  | Running ->
      while o.o_state <> Done do
        Scond.wait o.o_cv o.o_m
      done;
      Smutex.exit o.o_m
  | Not_started ->
      o.o_state <- Running;
      Smutex.exit o.o_m;
      Fun.protect
        ~finally:(fun () ->
          Smutex.enter o.o_m;
          o.o_state <- Done;
          Scond.broadcast o.o_cv;
          Smutex.exit o.o_m)
        f

(* ------------------------------------------------------------------ *)
(* Mutexes                                                             *)
(* ------------------------------------------------------------------ *)

module Mutex = struct
  type kind = Normal | Errorcheck

  type t = { kind : kind; mu : Smutex.t }

  let create ?(kind = Normal) () = { kind; mu = Smutex.create () }

  let lock t =
    (match t.kind with
    | Errorcheck ->
        if Smutex.holding t.mu then
          invalid_arg "Pthread.Mutex.lock: relock of an errorcheck mutex"
    | Normal -> () (* relocking a Normal mutex self-deadlocks, as POSIX *));
    Smutex.enter t.mu

  let unlock t =
    match t.kind with
    | Errorcheck ->
        if not (Smutex.holding t.mu) then
          invalid_arg "Pthread.Mutex.unlock: not the owner"
        else Smutex.exit t.mu
    | Normal -> Smutex.exit t.mu

  let trylock t = Smutex.try_enter t.mu
end

(* ------------------------------------------------------------------ *)
(* Condition variables                                                 *)
(* ------------------------------------------------------------------ *)

module Cond = struct
  type t = { cv : Scond.t }

  let create () = { cv = Scond.create () }
  let wait t (m : Mutex.t) = Scond.wait t.cv m.Mutex.mu
  let signal t = Scond.signal t.cv
  let broadcast t = Scond.broadcast t.cv

  (* Timed wait, built with a helper thread that converts the timeout
     into a broadcast.  The waiter can be woken by either source; the
     generation counter tells whether a real signal arrived.  Spurious
     wakeups are inherent to condvars, so waking every waiter of this
     cond at the timeout is correct if blunt. *)
  let timedwait t (m : Mutex.t) span =
    let fired = ref false in
    ignore
      (T.create (fun () ->
           Uctx.sleep span;
           fired := true;
           Scond.broadcast t.cv));
    Scond.wait t.cv m.Mutex.mu;
    if !fired then `Timeout else `Signaled
end

(* ------------------------------------------------------------------ *)
(* Semaphores                                                          *)
(* ------------------------------------------------------------------ *)

module Sem = struct
  type t = Ssem.t

  let create count = Ssem.create ~count ()
  let wait = Ssem.p
  let trywait = Ssem.try_p
  let post = Ssem.v
  let getvalue = Ssem.count
end

(* ------------------------------------------------------------------ *)
(* Barriers                                                            *)
(* ------------------------------------------------------------------ *)

module Barrier = struct
  type t = {
    b_m : Smutex.t;
    b_cv : Scond.t;
    parties : int;
    mutable waiting : int;
    mutable generation : int;
  }

  let create parties =
    if parties <= 0 then invalid_arg "Pthread.Barrier.create";
    { b_m = Smutex.create (); b_cv = Scond.create (); parties; waiting = 0;
      generation = 0 }

  let wait t =
    Smutex.enter t.b_m;
    let gen = t.generation in
    t.waiting <- t.waiting + 1;
    let serial = t.waiting = t.parties in
    if serial then begin
      t.waiting <- 0;
      t.generation <- t.generation + 1;
      Scond.broadcast t.b_cv
    end
    else
      while t.generation = gen do
        Scond.wait t.b_cv t.b_m
      done;
    Smutex.exit t.b_m;
    serial
end

(* ------------------------------------------------------------------ *)
(* Reader/writer locks                                                 *)
(* ------------------------------------------------------------------ *)

module Rwlock = struct
  type t = Srw.t

  let create () = Srw.create ()
  let rdlock t = Srw.enter t Srw.Reader
  let wrlock t = Srw.enter t Srw.Writer
  let tryrdlock t = Srw.try_enter t Srw.Reader
  let trywrlock t = Srw.try_enter t Srw.Writer
  let unlock t = Srw.exit t
end

(* ------------------------------------------------------------------ *)
(* Thread-specific data                                                *)
(* ------------------------------------------------------------------ *)

module Key = struct
  type 'a t = {
    id : int;
    slot : 'a option Tls.key;
    destructor : ('a -> unit) option;
    mutable deleted : bool;
  }

  let next_id = ref 0

  let create ?destructor () =
    incr next_id;
    { id = !next_id; slot = Tls.key ~default:None; destructor; deleted = false }

  let get k = if k.deleted then None else Tls.get k.slot

  let set k v =
    if k.deleted then invalid_arg "Pthread.Key.set: deleted key";
    Tls.set k.slot (Some v);
    match k.destructor with
    | None -> ()
    | Some d ->
        let cleanups = List.remove_assoc k.id (Tls.get tsd_cleanups) in
        let cleanup () =
          if not k.deleted then
            match Tls.get k.slot with
            | Some v -> d v
            | None -> ()
        in
        Tls.set tsd_cleanups ((k.id, cleanup) :: cleanups)

  let delete k = k.deleted <- true
end
