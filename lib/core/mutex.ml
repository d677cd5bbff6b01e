open Ttypes
module Uctx = Sunos_kernel.Uctx
module Univ = Sunos_sim.Univ
module Time = Sunos_sim.Time
module Cost = Sunos_hw.Cost_model
module Shm = Sunos_hw.Shared_memory

type variant = Sleep | Spin | Adaptive

type priv_state = {
  variant : variant;
  mutable owner : tcb option;
  waitq : Waitq.t;
  mutable san : san_obj option;  (* thrsan identity, allocated lazily *)
}

(* Cross-process state: the owner is named by (pid, tid) numbers, since
   TCBs are meaningless in other processes; pid 0 means unlocked.  The
   word is the only record of who holds it. *)
type shared_state = {
  mutable s_owner_pid : int;
  mutable s_owner_tid : int;
  mutable s_robust : bool;
  mutable s_ownerdead : bool;
  mutable s_san : san_obj option;
}

type t =
  | Private of priv_state
  | Shared of { state : shared_state; at : Syncvar.place }

let shared_key : shared_state Univ.key = Univ.key ()

let create ?(variant = Sleep) () =
  Private { variant; owner = None; waitq = Waitq.create (); san = None }

let locked st = st.s_owner_pid <> 0

let take st self =
  st.s_owner_pid <- self.pool.pid;
  st.s_owner_tid <- self.tid

let release st =
  st.s_owner_pid <- 0;
  st.s_owner_tid <- 0

let held_by st self =
  st.s_owner_pid = self.pool.pid && st.s_owner_tid = self.tid

(* The robust check the segment runs at a death: a dead owner leaves the
   word free but OWNERDEAD, for the next acquirer to repair what it
   guarded. *)
let check st ~pid ~proc_exit =
  let dead =
    locked st
    && Syncvar.dead_holder ~pid ~proc_exit st.s_owner_pid st.s_owner_tid
  in
  if dead then begin
    release st;
    st.s_ownerdead <- true;
    match st.s_san with Some o -> o.so_holders <- [] | None -> ()
  end;
  dead

let create_shared ?(robust = false) (at : Syncvar.place) =
  let state =
    Syncvar.locate at ~key:shared_key ~make:(fun () ->
        {
          s_owner_pid = 0;
          s_owner_tid = 0;
          s_robust = false;
          s_ownerdead = false;
          s_san = None;
        })
  in
  (* robustness is a property of the lock word, not the handle: any
     process asking for it turns it on for every mapper, and the word
     registers its check in its segment once *)
  if robust && not state.s_robust then begin
    state.s_robust <- true;
    Shm.register_robust at.seg ~offset:at.offset (check state)
  end;
  Shared { state; at }

let cost_of (tcb : tcb) = tcb.pool.cost

let msan s =
  match s.san with
  | Some o -> o
  | None ->
      let o = Thrsan.new_obj ~kind:"mutex" () in
      s.san <- Some o;
      o

(* Shared lock identity for the sanitizer: named after the home address
   so a report from any process points at the same lock word. *)
let mssan st (at : Syncvar.place) =
  match st.s_san with
  | Some o -> o
  | None ->
      let o =
        Thrsan.new_obj ~kind:"mutex(shared)"
          ~name:(Printf.sprintf "%s+%d" (Shm.name at.Syncvar.seg) at.offset)
          ()
      in
      st.s_san <- Some o;
      o

exception Not_owner
exception Owner_dead

let () =
  Printexc.register_printer (function
    | Not_owner -> Some "Mutex: releasing a lock not held by this thread"
    | Owner_dead ->
        Some
          "Mutex: robust lock's owner died; acquire with enter_robust and \
           repair"
    | _ -> None)

(* --- private (within-process) --------------------------------------- *)

(* Spin until the lock frees.  Each probe is a charge, so ownership is
   re-examined at every simulated-time boundary; on a uniprocessor the
   spinner eventually exhausts its quantum and the owner runs. *)
let rec spin_until_free c s =
  if s.owner <> None then begin
    Uctx.charge c.Cost.sync_fast;
    spin_until_free c s
  end

(* Record an uncontended (or post-spin) acquisition with the sanitizer.
   Handoff acquisitions are recorded by the releaser in [exit_private],
   so the holder set is correct the instant ownership changes. *)
let san_take s self =
  if Thrsan.tracking () then Thrsan.acquired self (msan s)

let rec sleep_until_owned s self =
  if s.owner = None then begin
    s.owner <- Some self;
    san_take s self
  end
  else begin
    if Thrsan.tracking () then Thrsan.blocked_on self (msan s);
    (* commit rule: no effect between this check and the Suspend *)
    match Waitq.sleep s.waitq with
    | Wake_normal ->
        (* handoff: the releaser made us the owner *)
        assert (match s.owner with Some o -> o == self | None -> false)
    | Wake_signal -> sleep_until_owned s self
  end

let enter_private s self =
  let c = cost_of self in
  Uctx.charge c.Cost.sync_fast;
  Pool.thread_checkpoint ();
  if Thrsan.tracking () then Thrsan.acquiring self (msan s);
  if s.owner = None then begin
    s.owner <- Some self;
    san_take s self
  end
  else begin
    Uctx.charge c.Cost.sync_slow_extra;
    match s.variant with
    | Spin ->
        spin_until_free c s;
        s.owner <- Some self;
        san_take s self
    | Adaptive ->
        (* spin briefly while the owner is on a CPU, else sleep; the
           budget lives in the cost model so ablations can sweep it *)
        let spins = ref 0 in
        let limit = c.Cost.adaptive_spin_limit in
        let owner_running () =
          match s.owner with
          | Some o -> o.tstate = Trunning
          | None -> false
        in
        while s.owner <> None && owner_running () && !spins < limit do
          Uctx.charge c.Cost.sync_fast;
          incr spins
        done;
        if s.owner = None then begin
          s.owner <- Some self;
          san_take s self
        end
        else sleep_until_owned s self
    | Sleep -> sleep_until_owned s self
  end

let exit_private s self =
  (match s.owner with
  | Some o when o == self -> ()
  | Some _ | None -> raise Not_owner);
  let c = cost_of self in
  Uctx.charge c.Cost.sync_fast;
  match Waitq.pop s.waitq with
  | Some next ->
      (* direct handoff keeps the bracketing invariant simple *)
      s.owner <- Some next;
      if Thrsan.tracking () then begin
        Thrsan.released self (msan s);
        Thrsan.acquired next (msan s)
      end;
      Pool.make_ready next Wake_normal
  | None ->
      s.owner <- None;
      if Thrsan.tracking () then Thrsan.released self (msan s)

(* --- shared (between processes) -------------------------------------- *)

let rec enter_shared st at self =
  let c = cost_of self in
  Uctx.charge c.Cost.sync_fast;
  (* same delivery point the private path has (enter_private): without
     it a thread looping on a contended shared lock starves its pending
     thread-directed signals — the missing-checkpoint class of
     BUG 13/14, which the try_* audit found here too *)
  Pool.thread_checkpoint ();
  if Thrsan.tracking () then Thrsan.acquiring self (mssan st at);
  if not (locked st) then begin
    take st self;
    if Thrsan.tracking () then Thrsan.acquired self (mssan st at)
  end
  else begin
    if Thrsan.tracking () then Thrsan.blocked_on self (mssan st at);
    (* kwait's expect closes the check-then-sleep race *)
    (match Syncvar.wait at ~expect:(fun () -> locked st) () with
    | `Woken | `Timeout -> ());
    if Thrsan.tracking () then Thrsan.clear_wait self;
    enter_shared st at self
  end

let exit_shared st at self =
  if not (held_by st self) then raise Not_owner;
  let c = cost_of self in
  Uctx.charge c.Cost.sync_fast;
  release st;
  if Thrsan.tracking () then Thrsan.released self (mssan st at);
  ignore (Syncvar.wake at ~count:1)

(* --- public ----------------------------------------------------------- *)

let enter m =
  let self = Current.get () in
  match m with
  | Private s -> enter_private s self
  | Shared { state; at } ->
      enter_shared state at self;
      if state.s_ownerdead then begin
        (* the plain entry point cannot return the recovery obligation;
           refuse the lock (use [enter_robust] to repair) *)
        exit_shared state at self;
        raise Owner_dead
      end

let enter_robust m =
  let self = Current.get () in
  match m with
  | Private s ->
      enter_private s self;
      `Locked
  | Shared { state; at } ->
      enter_shared state at self;
      if state.s_ownerdead then `Owner_dead else `Locked

let exit m =
  let self = Current.get () in
  match m with
  | Private s -> exit_private s self
  | Shared { state; at } -> exit_shared state at self

let set_consistent m =
  let self = Current.get () in
  match m with
  | Private _ -> ()
  | Shared { state; _ } ->
      if not (held_by state self) then raise Not_owner;
      state.s_ownerdead <- false

let try_enter m =
  let self = Current.get () in
  let c = cost_of self in
  Uctx.charge c.Cost.sync_fast;
  Pool.thread_checkpoint ();
  match m with
  | Private s ->
      if s.owner = None then begin
        if Thrsan.tracking () then Thrsan.acquiring self (msan s);
        s.owner <- Some self;
        san_take s self;
        true
      end
      else false
  | Shared { state; at } ->
      if not (locked state || state.s_ownerdead) then begin
        if Thrsan.tracking () then Thrsan.acquiring self (mssan state at);
        take state self;
        if Thrsan.tracking () then Thrsan.acquired self (mssan state at);
        true
      end
      else false

let is_locked = function
  | Private s -> s.owner <> None
  | Shared { state; _ } -> locked state

let owner_dead = function
  | Private _ -> false
  | Shared { state; _ } -> state.s_ownerdead

let holding m =
  let self = Current.get () in
  match m with
  | Private s -> (match s.owner with Some o -> o == self | None -> false)
  | Shared { state; _ } -> held_by state self

(* internal: used by Condvar to release while parking (no Current) *)
let release_from m tcb =
  match m with
  | Private s -> exit_private s tcb
  | Shared { state; at } -> exit_shared state at tcb
