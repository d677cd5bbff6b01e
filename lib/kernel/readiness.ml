(* One direction of a pollable object: who to tell when it may have
   become ready.  One-shot waiters are blocked calls and poll; they are
   pushed in reverse (registration is O(1), and a poller re-registers on
   every idle fd each cycle) and fired oldest-first.  Watches are epoll
   interest entries; they persist across firings until unwatched and are
   pruned lazily, at the next firing after their flag drops. *)

type watch = { w_fire : unit -> unit; mutable w_active : bool }

type t = {
  mutable waiters : (unit -> unit) list;  (* newest first *)
  mutable watches : watch list;
}

let create () = { waiters = []; watches = [] }
let wait t f = t.waiters <- f :: t.waiters

let watch t f =
  let w = { w_fire = f; w_active = true } in
  t.watches <- w :: t.watches;
  w

let unwatch w = w.w_active <- false
let waiters t = List.length t.waiters
let watches t = List.length t.watches

(* Waiters before watches: blocked calls are woken in the order they
   were before epoll existed, which the goldens pin.  The waiter list is
   detached before it runs, so a waiter that re-registers waits for the
   next firing.  Most firings find no waiter, and no watch to prune;
   those write and allocate nothing. *)
let fire t =
  (match t.waiters with
  | [] -> ()
  | ws ->
      t.waiters <- [];
      List.iter (fun f -> f ()) (List.rev ws));
  if t.watches <> [] then begin
    List.iter (fun w -> if w.w_active then w.w_fire ()) t.watches;
    if not (List.for_all (fun w -> w.w_active) t.watches) then
      t.watches <- List.filter (fun w -> w.w_active) t.watches
  end
