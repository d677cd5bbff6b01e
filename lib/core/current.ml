(* The current-thread register, one per domain: each simulated machine
   is single-threaded, but the bench runner's [-j N] mode runs
   independent machines on separate domains, so the register must not
   be shared between them. *)
let cur_key : Ttypes.tcb option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let cur () = Domain.DLS.get cur_key

let get () =
  match !(cur ()) with
  | Some t -> t
  | None -> failwith "Sunos_threads: no current thread (Libthread.boot missing?)"

let get_opt () = !(cur ())
(* The resume hook restores the register on every busy completion, and
   mostly to the value it already holds: skip that store. *)
let set t =
  let r = cur () in
  if !r != t then r := t
let pool () = (get ()).Ttypes.pool

(* The published thread table, one per domain like the register: the
   library publishes each pool by pid at boot, where the debugger and
   the sanitizer's hang report look it up (the analogue of an outside
   reader finding libthread's tables in the inferior).  Sequential
   simulations reuse pids; boot replaces, so the table always holds the
   latest process under a pid. *)
let pools_key : (int, Ttypes.pool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let publish (p : Ttypes.pool) =
  Hashtbl.replace (Domain.DLS.get pools_key) p.pid p

let published pid = Hashtbl.find_opt (Domain.DLS.get pools_key) pid
