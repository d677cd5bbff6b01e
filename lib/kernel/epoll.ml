(* The epoll kernel object: an interest set plus a bounded ready queue.

   The legacy [poll] syscall re-examines every fd in its set on every
   wakeup — O(connections) work per event, which is exactly the wall the
   C10k literature hit.  This object inverts the direction: each
   interested fd holds a persistent {!Readiness.watch} on its socket or
   pipe that pushes the fd's interest entry onto the ready queue at the
   state transition itself, so a wait costs O(ready), independent of how
   many connections are held.

   Edge-triggered with explicit re-arm: an entry is queued at most once
   (the [e_queued] flag bounds the ready queue by the interest size and
   counts coalesced edges), and a ONESHOT entry disarms on delivery
   until the consumer re-arms it with ctl(MOD).  Readiness is only
   {e level}-checked at arm time (add and re-arm) — that check, plus the
   fact that watches fire on every subsequent transition, is the
   lost-wakeup argument (DESIGN.md).  Spurious readiness is allowed:
   consumers drain with non-blocking ops until [`Again].

   Like Socket and Pipe this module is pure mechanism: no LWPs, no
   costs, no errnos.  The syscall layer validates fds against the fdtab
   at delivery time, which is how entries whose fd was closed without a
   ctl(DEL) get collected. *)

type entry = {
  e_fd : int;
  mutable e_want_in : bool;
  mutable e_want_out : bool;
  mutable e_oneshot : bool;
  mutable e_armed : bool;  (* eligible to queue; ONESHOT clears on delivery *)
  mutable e_queued : bool;  (* sitting in [ready]: dedups edges *)
  mutable e_dead : bool;  (* removed from interest; skipped at pop *)
  mutable e_watches : Readiness.watch list;  (* on the fd's object *)
}

type t = {
  id : int;  (* the owning fd number, for /proc and traces *)
  interest : (int, entry) Hashtbl.t;
  ready : entry Queue.t;
  on_ready : Readiness.t;  (* an entry queued, or the epoll closed *)
  mutable closed : bool;
  (* stats, surfaced via procfs pp_epoll and the net_server debrief *)
  mutable edges : int;  (* entries enqueued *)
  mutable coalesced : int;  (* edges absorbed by an already-queued entry *)
  mutable wakeups : int;  (* blocked waiters woken *)
  mutable delivered : int;  (* entries handed to epoll_wait callers *)
}

let create ~id =
  {
    id;
    interest = Hashtbl.create 64;
    ready = Queue.create ();
    on_ready = Readiness.create ();
    closed = false;
    edges = 0;
    coalesced = 0;
    wakeups = 0;
    delivered = 0;
  }

let id t = t.id
let closed t = t.closed
let find t fd = Hashtbl.find_opt t.interest fd
let interest_count t = Hashtbl.length t.interest
let ready_depth t = Queue.length t.ready
let edges t = t.edges
let coalesced t = t.coalesced
let wakeups t = t.wakeups
let delivered t = t.delivered
let readiness t = t.on_ready

let fire_waiters t =
  t.wakeups <- t.wakeups + Readiness.waiters t.on_ready;
  Readiness.fire t.on_ready

let unwatch e = List.iter Readiness.unwatch e.e_watches

let register t ~fd ~want_in ~want_out ~oneshot =
  let e =
    {
      e_fd = fd;
      e_want_in = want_in;
      e_want_out = want_out;
      e_oneshot = oneshot;
      e_armed = true;
      e_queued = false;
      e_dead = false;
      e_watches = [];
    }
  in
  Hashtbl.replace t.interest fd e;
  e

(* An edge (or an arm-time level check) on [e]: queue it unless the
   entry is disarmed, already queued, dead, or the epoll is gone.  The
   disarmed case is NOT a lost wakeup — re-arming re-checks readiness. *)
let note_edge t e =
  if not (t.closed || e.e_dead || not e.e_armed) then
    if e.e_queued then t.coalesced <- t.coalesced + 1
    else begin
      e.e_queued <- true;
      Queue.add e t.ready;
      t.edges <- t.edges + 1;
      fire_waiters t
    end

(* Remove [e] from the interest set.  It may still sit in the ready
   queue; [pop] skips dead entries, which is the "interest removal with
   pending readiness" case. *)
let kill_entry t e =
  if not e.e_dead then begin
    e.e_dead <- true;
    unwatch e;
    Hashtbl.remove t.interest e.e_fd
  end

let rec pop t =
  match Queue.take_opt t.ready with
  | None -> None
  | Some e ->
      e.e_queued <- false;
      if e.e_dead then pop t else Some e

(* Called by the syscall layer when it hands [e] to an epoll_wait
   caller: ONESHOT entries disarm until ctl(MOD) re-arms them. *)
let note_delivered t e =
  t.delivered <- t.delivered + 1;
  if e.e_oneshot then e.e_armed <- false

let close t =
  if not t.closed then begin
    t.closed <- true;
    Hashtbl.iter (fun _ e -> e.e_dead <- true; unwatch e) t.interest;
    Hashtbl.reset t.interest;
    Queue.clear t.ready;
    (* a waiter blocked on a concurrently-closed epoll fd re-checks and
       fails out rather than sleeping forever *)
    fire_waiters t
  end
