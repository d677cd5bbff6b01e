open Ttypes
module Uctx = Sunos_kernel.Uctx
module Univ = Sunos_sim.Univ
module Cost = Sunos_hw.Cost_model
module Shm = Sunos_hw.Shared_memory

type rw = Reader | Writer

type priv = {
  mutable readers : tcb list;  (* current reader holders *)
  mutable writer : tcb option;
  mutable upgrader : tcb option;  (* reader waiting to become writer *)
  rq : Waitq.t;
  wq : Waitq.t;
  uq : Waitq.t;  (* the (single) pending upgrader parks here so signal
                    routing and the promotion wake can find it *)
  san : san_obj;
}

(* Cross-process state: holders are named by (pid, tid) numbers, as in
   Mutex; writer pid 0 means no writer.  The word is the only record of
   who holds it. *)
type shared_state = {
  mutable s_readers : (int * int) list;  (* one entry per read hold *)
  mutable s_writer_pid : int;
  mutable s_writer_tid : int;
  mutable s_wwaiters : int;
  mutable s_robust : bool;
  mutable s_ownerdead : bool;
  s_san : san_obj;  (* named after the word's home, as in Mutex *)
}

type t =
  | Private of priv
  | Shared of { state : shared_state; at : Syncvar.place }

let shared_key : shared_state Univ.key = Univ.key ()

let create () =
  Private
    { readers = []; writer = None; upgrader = None; rq = Waitq.create ();
      wq = Waitq.create (); uq = Waitq.create ();
      san = Thrsan.new_obj ~kind:"rwlock" () }

exception Owner_dead

let () =
  Printexc.register_printer (function
    | Owner_dead ->
        Some
          "Rwlock: robust lock's writer died; acquire with enter_robust and \
           repair"
    | _ -> None)

(* Seeded-bug knob for the exploration suite (test-only, default off):
   revert the upgrader to its pre-fix BUG 14 shape — a bare park with no
   uq registration, promoted by waking the TCB directly whether or not
   it is parked.  The explorer must re-find the phantom-runq-entry
   crash that shape causes. *)
let bug14_bare_upgrader = ref false

(* Writer preference: new readers are admitted only when no writer holds
   or waits and no upgrade is pending. *)
let can_read s =
  s.writer = None && s.upgrader = None && Waitq.is_empty s.wq

let can_write s = s.writer = None && s.readers = [] && s.upgrader = None

let rec block_on ~self ~san ~waitq ~can ~admit =
  if can () then begin
    admit ();
    Thrsan.acquired self san
  end
  else begin
    Thrsan.blocked_on self san;
    ignore (Waitq.sleep waitq);
    block_on ~self ~san ~waitq ~can ~admit
  end

(* Wake policy on release: one waiting writer first; with none, every
   waiting reader (they re-validate on wake). *)
let wake_next s =
  match Waitq.pop s.wq with
  | Some w -> Pool.make_ready w Wake_normal
  | None ->
      List.iter
        (fun r -> Pool.make_ready r Wake_normal)
        (Waitq.pop_all s.rq)

let enter_priv s self kind =
  Thrsan.acquiring self s.san;
  match kind with
  | Reader ->
      block_on ~self ~san:s.san ~waitq:s.rq
        ~can:(fun () -> can_read s)
        ~admit:(fun () -> s.readers <- self :: s.readers)
  | Writer ->
      block_on ~self ~san:s.san ~waitq:s.wq
        ~can:(fun () -> can_write s)
        ~admit:(fun () -> s.writer <- Some self)

let exit_priv s self =
  let is_writer = match s.writer with Some w -> w == self | None -> false in
  if is_writer then begin
    s.writer <- None;
    Thrsan.released self s.san;
    wake_next s
  end
  else if List.memq self s.readers then begin
    s.readers <- List.filter (fun t -> t != self) s.readers;
    Thrsan.released self s.san;
    match (s.readers, s.upgrader) with
    | [ last ], Some up when last == up ->
        if !bug14_bare_upgrader then Pool.make_ready up Wake_normal
        else (
          (* the upgrader is the only reader left: promote it — but only
             if it is actually parked.  Waking it via its TCB regardless
             (the old code) re-readied an upgrader that had been woken
             for a signal and was not parked at all, planting a phantom
             runq entry that an idle LWP later dispatched with no
             continuation (BUG 14). *)
          match Waitq.pop s.uq with
          | Some u -> Pool.make_ready u Wake_normal
          | None -> () (* between wakeups; it will re-check only_self *))
    | [], _ -> wake_next s
    | _ :: _, _ -> ()
  end
  else failwith "Rwlock.exit: calling thread holds neither side"

let downgrade_priv s self =
  (match s.writer with
  | Some w when w == self -> ()
  | Some _ | None ->
      failwith "Rwlock.downgrade: calling thread is not the writer");
  s.writer <- None;
  s.readers <- [ self ];
  (* waiting writers remain waiting; with none, admit pending readers *)
  if Waitq.is_empty s.wq then
    List.iter (fun r -> Pool.make_ready r Wake_normal) (Waitq.pop_all s.rq)

let try_upgrade_priv s self =
  if not (List.memq self s.readers) then
    failwith "Rwlock.try_upgrade: calling thread is not a reader";
  if s.upgrader <> None || not (Waitq.is_empty s.wq) then false
  else begin
    match s.readers with
    | [ only ] when only == self ->
        s.readers <- [];
        s.writer <- Some self;
        true
    | _ ->
        (* wait for the other readers to drain; upgrade pends block new
           readers (can_read) so this terminates *)
        s.upgrader <- Some self;
        let rec wait () =
          let only_self =
            match s.readers with [ only ] -> only == self | _ -> false
          in
          if only_self then begin
            s.readers <- [];
            s.upgrader <- None;
            s.writer <- Some self
          end
          else begin
            (* we still hold the lock as a reader, so exempt our own
               hold at the root of the cycle check *)
            Thrsan.blocked_on ~skip_self_hold:true self s.san;
            if !bug14_bare_upgrader then
              ignore (Pool.suspend ~park:(fun tcb -> tcb.tstate <- Tblocked))
            else ignore (Waitq.sleep s.uq);
            wait ()
          end
        in
        wait ();
        true
  end

(* --- shared variant: loops over kwait with a broadcast wake ---------- *)

let writer st = st.s_writer_pid <> 0

let writer_is st self =
  st.s_writer_pid = self.pool.pid && st.s_writer_tid = self.tid

(* The one admission check per side: a reader needs no writer holding or
   waiting, a writer needs no holder at all. *)
let free st = function
  | Reader -> (not (writer st)) && st.s_wwaiters = 0
  | Writer -> (not (writer st)) && st.s_readers = []

let take st self = function
  | Reader -> st.s_readers <- (self.pool.pid, self.tid) :: st.s_readers
  | Writer ->
      st.s_writer_pid <- self.pool.pid;
      st.s_writer_tid <- self.tid

let release_writer st =
  st.s_writer_pid <- 0;
  st.s_writer_tid <- 0

(* The read holds less one of [self]'s; fails when it holds none. *)
let rec drop_hold self = function
  | [] -> failwith "Rwlock.exit: lock not held"
  | (pid, tid) :: rest when pid = self.pool.pid && tid = self.tid -> rest
  | h :: rest -> h :: drop_hold self rest

(* The robust check the segment runs at a death.  A dead writer may have
   left the protected state torn: free the word but flag OWNERDEAD for
   the next acquirer to repair.  A dead reader cannot have corrupted
   anything; just drop its holds so writers stop waiting for a ghost. *)
let check st ~pid ~lib ~proc_exit =
  let dead (hpid, htid) = Syncvar.dead_holder ~pid ~lib ~proc_exit hpid htid in
  if writer st && dead (st.s_writer_pid, st.s_writer_tid) then begin
    release_writer st;
    st.s_ownerdead <- true;
    st.s_san.so_holders <- [];
    true
  end
  else if List.exists dead st.s_readers then begin
    st.s_readers <- List.filter (fun h -> not (dead h)) st.s_readers;
    let o = st.s_san in
    o.so_holders <-
      List.filter (fun t -> not (dead (t.pool.pid, t.tid))) o.so_holders;
    true
  end
  else false

let create_shared ?(robust = false) (at : Syncvar.place) =
  let state =
    Syncvar.locate at ~key:shared_key ~make:(fun () ->
        { s_readers = []; s_writer_pid = 0; s_writer_tid = 0; s_wwaiters = 0;
          s_robust = false; s_ownerdead = false;
          s_san =
            Thrsan.new_obj ~kind:"rwlock(shared)"
              ~name:(Thrsan.place_name at.seg ~offset:at.offset) () })
  in
  (* sticky and registered once, as for Mutex *)
  if robust && not state.s_robust then begin
    state.s_robust <- true;
    Shm.register_robust at.seg ~offset:at.offset (check state)
  end;
  Shared { state; at }

(* Returns [`Owner_dead] when a robust lock's writer died: regardless of
   the requested side the acquirer is then admitted as the WRITER, since
   repairing the protected state needs exclusive access.  After
   [set_consistent] it may [downgrade] back to reading.  Only a writer
   asking for the write side counts as waiting while it sleeps. *)
let rec enter_shared st at self kind =
  Thrsan.acquiring self st.s_san;
  let dead = st.s_ownerdead in
  let side = if dead then Writer else kind in
  if free st side then begin
    take st self side;
    Thrsan.acquired self st.s_san;
    if dead then `Owner_dead else `Locked
  end
  else begin
    let waiting = kind = Writer && not dead in
    if waiting then st.s_wwaiters <- st.s_wwaiters + 1;
    Thrsan.blocked_on self st.s_san;
    (match Syncvar.wait at ~expect:(fun () -> not (free st side)) () with
    | `Woken | `Timeout -> ());
    Thrsan.clear_wait self;
    if waiting then st.s_wwaiters <- st.s_wwaiters - 1;
    enter_shared st at self kind
  end

let exit_shared st at self =
  if writer_is st self then begin
    release_writer st;
    Thrsan.released self st.s_san;
    ignore (Syncvar.wake_all at)
  end
  else begin
    st.s_readers <- drop_hold self st.s_readers;
    Thrsan.released self st.s_san;
    if st.s_readers = [] then ignore (Syncvar.wake_all at)
  end

(* --- public ---------------------------------------------------------- *)

let charge_op () =
  Uctx.charge (Current.pool ()).cost.Cost.sync_fast

let enter l kind =
  let self = Current.get () in
  charge_op ();
  Pool.thread_checkpoint ();
  match l with
  | Private s -> enter_priv s self kind
  | Shared { state; at } -> (
      match enter_shared state at self kind with
      | `Locked -> ()
      | `Owner_dead ->
          (* plain entry cannot return the recovery obligation; release
             the write side we were handed and refuse *)
          exit_shared state at self;
          raise Owner_dead)

let enter_robust l kind =
  let self = Current.get () in
  charge_op ();
  Pool.thread_checkpoint ();
  match l with
  | Private s ->
      enter_priv s self kind;
      `Locked
  | Shared { state; at } -> enter_shared state at self kind

let set_consistent l =
  let self = Current.get () in
  match l with
  | Private _ -> ()
  | Shared { state; _ } ->
      if not (writer_is state self) then
        failwith "Rwlock.set_consistent: calling thread is not the writer";
      state.s_ownerdead <- false

let exit l =
  let self = Current.get () in
  charge_op ();
  match l with
  | Private s -> exit_priv s self
  | Shared { state; at } -> exit_shared state at self

let try_enter l kind =
  let self = Current.get () in
  charge_op ();
  (* try-paths run signal checkpoints too: a thread spinning on
     try_enter must not starve its pending thread-directed signals *)
  Pool.thread_checkpoint ();
  match l with
  | Private s -> (
      match kind with
      | Reader ->
          if can_read s then begin
            Thrsan.acquiring self s.san;
            Thrsan.acquired self s.san;
            s.readers <- self :: s.readers;
            true
          end
          else false
      | Writer ->
          if can_write s then begin
            Thrsan.acquiring self s.san;
            Thrsan.acquired self s.san;
            s.writer <- Some self;
            true
          end
          else false)
  | Shared { state; _ } ->
      (* un-repaired: only enter_robust hands the lock out *)
      if state.s_ownerdead || not (free state kind) then false
      else begin
        Thrsan.acquiring self state.s_san;
        Thrsan.acquired self state.s_san;
        take state self kind;
        true
      end

let downgrade l =
  let self = Current.get () in
  charge_op ();
  match l with
  | Private s -> downgrade_priv s self
  | Shared { state; at } ->
      if not (writer_is state self) then
        failwith "Rwlock.downgrade: calling thread is not the writer";
      release_writer state;
      take state self Reader;
      if state.s_wwaiters = 0 then ignore (Syncvar.wake_all at)

let try_upgrade l =
  let self = Current.get () in
  charge_op ();
  Pool.thread_checkpoint ();
  match l with
  | Private s -> try_upgrade_priv s self
  | Shared { state; _ } -> (
      (* stricter than the private variant: succeeds only when we are
         the sole reader right now (no cross-process upgrade waiting) *)
      match state.s_readers with
      | [ (pid, tid) ]
        when pid = self.pool.pid && tid = self.tid && state.s_wwaiters = 0
             && not state.s_ownerdead ->
          state.s_readers <- [];
          take state self Writer;
          true
      | _ -> false)

let readers = function
  | Private s -> List.length s.readers
  | Shared { state; _ } -> List.length state.s_readers

let has_writer = function
  | Private s -> s.writer <> None
  | Shared { state; _ } -> writer state

let owner_dead = function
  | Private _ -> false
  | Shared { state; _ } -> state.s_ownerdead
