(* Robust USYNC_PROCESS lock registry.

   Real SunOS/POSIX robust mutexes work by having userspace maintain a
   per-thread list of held robust locks that the kernel walks when the
   owner dies, marking each lock OWNERDEAD and waking one waiter.  We
   mirror that split: the core layer registers an entry here on every
   robust acquisition (pure mutation — no syscall, so registration is
   schedule-invariant and free when unused) and the kernel sweeps the
   registry from [proc_exit] / [lwp_exit_internal], running each dead
   owner's repair closure and then waking the lock's wait channel.

   Entries are keyed by the lock's home address (segment id, offset) —
   the same key the kwait/kwake futex table uses — so the sweep can hand
   the affected channels straight back to the kernel for wakeup.

   The registry is domain-local, not per kernel: a lock still held when
   its run drains stays registered after its kernel is gone, and pids
   repeat in every kernel.  A sweep therefore takes only the entries in
   segments the dying process maps (or maps a private clone of).
   Segment ids are unique across kernels, so another kernel's process
   never matches a stale entry and never runs its repair closure. *)

module Shm = Sunos_hw.Shared_memory

type entry = {
  rb_pid : int;
  rb_tid : int;
  rb_owner_dead : unit -> bool; (* is the registering thread dead? *)
  rb_on_death : unit -> unit;   (* mark OWNERDEAD / repair lock word *)
}

let key : (int * int, entry list ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let tbl () = Domain.DLS.get key

let register ~seg_id ~offset ~pid ~tid ~owner_dead ~on_death =
  let t = tbl () in
  let e =
    { rb_pid = pid; rb_tid = tid; rb_owner_dead = owner_dead;
      rb_on_death = on_death }
  in
  match Hashtbl.find_opt t (seg_id, offset) with
  | Some l -> l := e :: !l
  | None -> Hashtbl.replace t (seg_id, offset) (ref [ e ])

let unregister ~seg_id ~offset ~pid ~tid =
  let t = tbl () in
  match Hashtbl.find_opt t (seg_id, offset) with
  | None -> ()
  | Some l ->
      let rec drop_first = function
        | [] -> []
        | e :: rest when e.rb_pid = pid && e.rb_tid = tid -> rest
        | e :: rest -> e :: drop_first rest
      in
      l := drop_first !l;
      if !l = [] then Hashtbl.remove t (seg_id, offset)

let mapped maps seg_id =
  List.exists
    (fun s -> Shm.id s = seg_id || Shm.clone_of s = Some seg_id)
    maps

(* Shared sweep core: run [rb_on_death] for every entry in a segment of
   [maps] matching [dead], drop those entries, and return the
   (seg_id, offset) channels that had at least one death — the caller
   wakes their futex waiters. *)
let sweep maps dead =
  let t = tbl () in
  let hit = ref [] in
  let empty = ref [] in
  Hashtbl.iter
    (fun ((seg_id, _) as k) l ->
      if mapped maps seg_id then begin
        let dying, live = List.partition dead !l in
        if dying <> [] then begin
          List.iter (fun e -> e.rb_on_death ()) dying;
          l := live;
          hit := k :: !hit;
          if live = [] then empty := k :: !empty
        end
      end)
    t;
  List.iter (Hashtbl.remove t) !empty;
  List.sort compare !hit

let sweep_pid ~maps pid = sweep maps (fun e -> e.rb_pid = pid)

(* Safety net for LWP-level death while the process survives (e.g. a
   chaos-reaped LWP): only entries whose registering thread really died
   are repaired. *)
let sweep_dead_owners ~maps pid =
  sweep maps (fun e -> e.rb_pid = pid && e.rb_owner_dead ())
