open Ttypes
module Time = Sunos_sim.Time
module Uctx = Sunos_kernel.Uctx
module Signo = Sunos_kernel.Signo
module Sysdefs = Sunos_kernel.Sysdefs

type id = int

type entry = {
  e_id : id;
  deadline : Time.t;
  action : [ `Wake of tcb | `Call of unit -> unit ];
  mutable gen : int;  (* `Wake: the sleeper's registration, from its park *)
  mutable cancelled : bool;  (* `Call: [cancel] *)
}

(* Per-process timer state, stored in the pool itself (each simulated
   process has its own single kernel timer to multiplex). *)
type state = {
  mutable entries : entry list;  (* sorted by deadline *)
  mutable next_id : int;
  mutable armed_for : Time.t option;
  mutable handler_installed : bool;
}

let state_key : state Sunos_sim.Univ.key = Sunos_sim.Univ.key ()

let get_state () =
  let pool = Current.pool () in
  match pool.timer_slot with
  | Some u -> (
      match Sunos_sim.Univ.unpack state_key u with
      | Some s -> s
      | None -> assert false)
  | None ->
      let s =
        { entries = []; next_id = 1; armed_for = None;
          handler_installed = false }
      in
      pool.timer_slot <- Some (Sunos_sim.Univ.pack state_key s);
      s

let insert_sorted s e =
  let rec go = function
    | [] -> [ e ]
    | x :: rest as l ->
        if Time.(e.deadline < x.deadline) then e :: l else x :: go rest
  in
  s.entries <- go s.entries

(* Re-arm the kernel timer for the earliest pending deadline. *)
let rearm s =
  match s.entries with
  | [] ->
      if s.armed_for <> None then begin
        s.armed_for <- None;
        Uctx.setitimer Sysdefs.Timer_real None
      end
  | e :: _ ->
      if s.armed_for <> Some e.deadline then begin
        s.armed_for <- Some e.deadline;
        let now = Uctx.gettime () in
        let span = Time.max 1L (Time.diff e.deadline now) in
        Uctx.setitimer Sysdefs.Timer_real (Some span)
      end

(* An entry still owes its action: a callback not cancelled, or a sleep
   whose sleeper still waits in the park that registered [gen] (a signal
   wakeup retires the registration). *)
let armed e =
  (not e.cancelled)
  &&
  match e.action with
  | `Wake tcb -> live (tcb, e.gen)
  | `Call _ -> true

(* SIGALRM arrives in whichever thread the router picks: expire what is
   due, wake sleepers, run callbacks, re-arm for the rest. *)
let on_alarm s _signo =
  s.armed_for <- None;
  let now = Uctx.gettime () in
  let due, rest =
    List.partition (fun e -> Time.(e.deadline <= now)) s.entries
  in
  s.entries <- rest;
  List.iter
    (fun e ->
      if armed e then
        match e.action with
        | `Wake tcb -> Pool.make_ready tcb Wake_normal
        | `Call f -> f ())
    due;
  rearm s

let ensure_handler s =
  if not s.handler_installed then begin
    s.handler_installed <- true;
    ignore
      (Sigdeliver.set_disposition (Current.pool ()) Signo.sigalrm
         (Sysdefs.Sig_handler (on_alarm s)))
  end

let add s action span =
  let e =
    {
      e_id = s.next_id;
      deadline = Time.add (Uctx.gettime ()) span;
      action;
      gen = -1;
      cancelled = false;
    }
  in
  s.next_id <- s.next_id + 1;
  insert_sorted s e;
  rearm s;
  e

let sleep span =
  let s = get_state () in
  ensure_handler s;
  let deadline = Time.add (Uctx.gettime ()) span in
  let rec go () =
    let now = Uctx.gettime () in
    if Time.(now < deadline) then begin
      let self = Current.get () in
      let e = add s (`Wake self) (Time.diff deadline now) in
      ignore
        (Pool.suspend ~park:(fun tcb ->
             tcb.tstate <- Tblocked;
             e.gen <- register tcb));
      go ()
    end
  in
  go ()

let after span f =
  let s = get_state () in
  ensure_handler s;
  let e = add s (`Call f) span in
  e.e_id

let cancel id =
  let s = get_state () in
  let found = ref false in
  List.iter
    (fun e ->
      if e.e_id = id && not e.cancelled then begin
        e.cancelled <- true;
        found := true
      end)
    s.entries;
  !found

let pending () =
  let s = get_state () in
  List.length (List.filter armed s.entries)
