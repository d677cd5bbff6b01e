open Ttypes
module Uctx = Sunos_kernel.Uctx
module Univ = Sunos_sim.Univ
module Cost = Sunos_hw.Cost_model

type shared_state = { mutable s_count : int }

type t =
  | Private of { mutable count : int; waitq : Waitq.t;
                 mutable san : san_obj option }
  | Shared of { state : shared_state; at : Syncvar.place }

let shared_key : shared_state Univ.key = Univ.key ()

let create ?(count = 0) () =
  Private { count; waitq = Waitq.create (); san = None }

let create_shared ?(count = 0) at =
  let state =
    Syncvar.locate at ~key:shared_key ~make:(fun () -> { s_count = count })
  in
  Shared { state; at }

let p sem =
  let self = Current.get () in
  let c = self.pool.cost in
  Uctx.charge c.Cost.sync_fast;
  Pool.thread_checkpoint ();
  match sem with
  | Private s ->
      (* order edges only: a semaphore's unit is often produced by
         another thread, so treating p() as a held lock would flood the
         waits-for graph with false positives *)
      let san () =
        match s.san with
        | Some o -> o
        | None ->
            let o = Thrsan.new_obj ~kind:"semaphore" () in
            s.san <- Some o;
            o
      in
      if Thrsan.tracking () then Thrsan.acquiring self (san ());
      if s.count > 0 then s.count <- s.count - 1
      else begin
        Uctx.charge c.Cost.sync_slow_extra;
        let rec block () =
          if s.count > 0 then s.count <- s.count - 1
          else begin
            if Thrsan.tracking () then Thrsan.blocked_on self (san ());
            match Waitq.sleep s.waitq with
            | Wake_normal -> () (* v() handed its unit directly to us *)
            | Wake_signal -> block ()
          end
        in
        block ()
      end
  | Shared { state; at } ->
      let rec loop () =
        if state.s_count > 0 then state.s_count <- state.s_count - 1
        else begin
          (match Syncvar.wait at ~expect:(fun () -> state.s_count = 0) () with
          | `Woken | `Timeout -> ());
          loop ()
        end
      in
      loop ()

let v sem =
  let c = (Current.pool ()).cost in
  Uctx.charge c.Cost.sync_fast;
  match sem with
  | Private s -> (
      match Waitq.pop s.waitq with
      | Some t ->
          (* direct handoff: the unit goes to the waiter, not the count *)
          Pool.make_ready t Wake_normal
      | None -> s.count <- s.count + 1)
  | Shared { state; at } ->
      state.s_count <- state.s_count + 1;
      ignore (Syncvar.wake at ~count:1)

let try_p sem =
  let c = (Current.pool ()).cost in
  Uctx.charge c.Cost.sync_fast;
  Pool.thread_checkpoint ();
  match sem with
  | Private s ->
      if s.count > 0 then begin
        s.count <- s.count - 1;
        true
      end
      else false
  | Shared { state; _ } ->
      if state.s_count > 0 then begin
        state.s_count <- state.s_count - 1;
        true
      end
      else false

let count = function
  | Private s -> s.count
  | Shared { state; _ } -> state.s_count
