open Ttypes
module Uctx = Sunos_kernel.Uctx
module Univ = Sunos_sim.Univ
module Cost = Sunos_hw.Cost_model

type shared_state = { mutable s_seq : int }

type t =
  | Private of { waitq : Waitq.t; mutable san : san_obj option }
  | Shared of { state : shared_state; at : Syncvar.place }

let shared_key : shared_state Univ.key = Univ.key ()

let create () = Private { waitq = Waitq.create (); san = None }

let create_shared at =
  let state =
    Syncvar.locate at ~key:shared_key ~make:(fun () -> { s_seq = 0 })
  in
  Shared { state; at }

let wait cv m =
  let self = Current.get () in
  let c = self.pool.cost in
  Uctx.charge c.Cost.sync_fast;
  Pool.thread_checkpoint ();
  (match cv with
  | Private p ->
      if Thrsan.tracking () then begin
        let o =
          match p.san with
          | Some o -> o
          | None ->
              let o = Thrsan.new_obj ~kind:"condvar" () in
              p.san <- Some o;
              o
        in
        Thrsan.blocked_on self o
      end;
      let waitq = p.waitq in
      (* the park function enqueues us on the condvar and only THEN
         releases the mutex — a signaller that sneaks in after the
         release necessarily finds us queued (no lost signal).  A
         signal wakeup returns too: spurious from the caller's
         viewpoint, it re-tests the condition *)
      ignore
        (Pool.suspend ~park:(fun tcb ->
             tcb.tstate <- Tblocked;
             Waitq.add waitq tcb;
             Mutex.release_from m tcb))
  | Shared { state; at } ->
      let seq0 = state.s_seq in
      Mutex.exit m;
      (* the sequence check plays the role of the queue: if a signal
         arrived between the release and the sleep, we don't sleep *)
      (match Syncvar.wait at ~expect:(fun () -> state.s_seq = seq0) () with
      | `Woken | `Timeout -> ()));
  Mutex.enter m

let signal cv =
  let c = (Current.pool ()).cost in
  Uctx.charge c.Cost.sync_fast;
  match cv with
  | Private { waitq; _ } -> (
      match Waitq.pop waitq with
      | Some t -> Pool.make_ready t Wake_normal
      | None -> ())
  | Shared { state; at } ->
      state.s_seq <- state.s_seq + 1;
      ignore (Syncvar.wake at ~count:1)

let broadcast cv =
  let c = (Current.pool ()).cost in
  Uctx.charge c.Cost.sync_fast;
  match cv with
  | Private { waitq; _ } ->
      List.iter (fun t -> Pool.make_ready t Wake_normal) (Waitq.pop_all waitq)
  | Shared { state; at } ->
      state.s_seq <- state.s_seq + 1;
      ignore (Syncvar.wake_all at)
