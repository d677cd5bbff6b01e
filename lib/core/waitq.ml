open Ttypes
module Schedctl = Sunos_sim.Schedctl

(* An entry is a registration [(tcb, gen)] (Ttypes.register): it dies in
   place when the thread wakes for any reason, and stays queued, dead,
   until a pop drops it.  Each queue carries a small unique id
   so the exploration driver can tell decision points apart in its logs.
   Allocating it is a pure counter bump — schedule-invariant. *)
type t = { q : (tcb * int) Queue.t; wq_id : int }

let next_id = ref 0

let create () =
  incr next_id;
  { q = Queue.create (); wq_id = !next_id }

let add t tcb = Queue.add (tcb, register tcb) t.q

let sleep t =
  Pool.suspend ~park:(fun tcb ->
      tcb.tstate <- Tblocked;
      add t tcb)

(* The taken entry leaves the queue; its thread's next wakeup (the
   caller's Pool.make_ready) retires the registration. *)
let take t ~want =
  match
    Schedctl.take ~site:"waitq" ~obj:t.wq_id ~foot:(fun _ -> []) ~want ~live t.q
  with
  | Some (tcb, _) -> Some tcb
  | None -> None

let pop t = take t ~want:1

(* Broadcast pops stay FIFO even when driven: every live entry wakes, so
   admission order only shows up through the run queue — whose own
   decision point explores it.  Choosing here too would square the state
   space for nothing. *)
let pop_all t =
  let rec go acc =
    match take t ~want:max_int with None -> List.rev acc | Some x -> go (x :: acc)
  in
  go []

let is_empty t = Queue.fold (fun acc e -> acc && not (live e)) true t.q
