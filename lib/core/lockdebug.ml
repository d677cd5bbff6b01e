module Time = Sunos_sim.Time
module Uctx = Sunos_kernel.Uctx
module Cost = Sunos_hw.Cost_model

type t = {
  name : string;
  san : Ttypes.san_obj;  (* identity in the pool-wide thrsan graphs *)
  mu : Mutex.t;
  mutable acquisitions : int;
  mutable contentions : int;
  mutable acquired_at : Time.t;
  mutable max_hold : Time.span;
}

exception Self_deadlock of string

(* The order check itself lives in Thrsan, so lock-order edges recorded
   through Lockdebug locks and through sanitizer-tracked plain mutexes
   land in the one pool-wide graph, checked transitively. *)
exception Lock_order_violation = Thrsan.Lock_order_violation

let () =
  Printexc.register_printer (function
    | Self_deadlock n -> Some (Printf.sprintf "Lockdebug: relock of %S" n)
    | _ -> None)

let reset_order_graph = Thrsan.reset_order_graph

let create ~name =
  {
    name;
    san = Thrsan.new_obj ~kind:"lockdebug" ~name ();
    mu = Mutex.create ();
    acquisitions = 0;
    contentions = 0;
    acquired_at = Time.zero;
    max_hold = 0L;
  }

(* One sanitizer identity per shared lock word, not per handle: every
   process that wraps the same (segment, offset) must land its order
   edges on the same graph node, or a cross-process ABBA would never
   close a cycle. *)
let create_shared ?robust ~name (at : Syncvar.place) =
  {
    name;
    san =
      Thrsan.shared_obj ~kind:"lockdebug(shared)" ~name ~seg:at.Syncvar.seg
        ~offset:at.Syncvar.offset ();
    mu = Mutex.create_shared ?robust at;
    acquisitions = 0;
    contentions = 0;
    acquired_at = Time.zero;
    max_hold = 0L;
  }

let name t = t.name

let charge_check () =
  (* the debugging variant pays for its bookkeeping *)
  Uctx.charge (Current.pool ()).Ttypes.cost.Cost.sync_slow_extra

let check_order t = Thrsan.check_order (Current.get ()) t.san

let note_acquired t =
  t.acquisitions <- t.acquisitions + 1;
  t.acquired_at <- Uctx.gettime ();
  Thrsan.held_push (Current.get ()) t.san

let enter t =
  charge_check ();
  if Mutex.holding t.mu then raise (Self_deadlock t.name);
  check_order t;
  if not (Mutex.try_enter t.mu) then begin
    t.contentions <- t.contentions + 1;
    Mutex.enter t.mu
  end;
  note_acquired t

let try_enter t =
  charge_check ();
  if Mutex.holding t.mu then raise (Self_deadlock t.name);
  if Mutex.try_enter t.mu then begin
    check_order t;
    note_acquired t;
    true
  end
  else false

let exit t =
  charge_check ();
  let hold = Time.diff (Uctx.gettime ()) t.acquired_at in
  if Time.(hold > t.max_hold) then t.max_hold <- hold;
  Thrsan.held_pop (Current.get ()) t.san;
  Mutex.exit t.mu

let acquisitions t = t.acquisitions
let contentions t = t.contentions
let max_hold t = t.max_hold
