module Schedctl = Sunos_sim.Schedctl

type entry = { e_tcb : Ttypes.tcb; mutable e_alive : bool }

(* Each queue carries a small unique id so the exploration driver can
   tell decision points apart in its logs.  Allocating it is a pure
   counter bump — schedule-invariant. *)
type t = { q : entry Queue.t; wq_id : int }

let next_id = ref 0

let create () =
  incr next_id;
  { q = Queue.create (); wq_id = !next_id }

let add t tcb =
  let e = { e_tcb = tcb; e_alive = true } in
  Queue.add e t.q;
  fun () -> e.e_alive <- false

let live e = e.e_alive

let take t ~want =
  match
    Schedctl.take ~site:"waitq" ~obj:t.wq_id ~foot:(fun _ -> []) ~want ~live t.q
  with
  | Some e ->
      e.e_alive <- false;
      Some e.e_tcb
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

let is_empty t = Queue.fold (fun acc e -> acc && not e.e_alive) true t.q

let length t = Queue.fold (fun acc e -> if e.e_alive then acc + 1 else acc) 0 t.q
