(* thrsan: a deterministic runtime sanitizer for the whole sync stack.

   Three capabilities, all built on pure OCaml mutation (never a charge
   or a syscall, so enabling the sanitizer cannot change the simulated
   schedule — same-seed runs stay bit-identical):

   1. A waits-for graph spanning the user-level sync objects (Mutex,
      Condvar, Semaphore, Rwlock, Syncvar).  Blocking primitives record
      "thread T waits on object O" just before suspending; acquisitions
      maintain each object's holder set.  An incremental cycle check at
      every block raises a structured {!Deadlock} report — the blocked
      thread, the object, the holder, what the holder waits on, around
      the cycle — with object names and acquisition stamps.

   2. Lock-order checking (lockdep), promoted from the opt-in
      {!Lockdebug} wrapper to a pool-wide mode that covers plain
      mutexes, rwlocks and semaphores.  The order graph uses transitive
      reachability (DFS), so an A->B->C->A three-lock cycle is caught,
      not just a direct ABBA inversion.  Lockdebug delegates to the same
      machinery (and stays usable with the sanitizer off).

   3. Hang diagnosis at event-queue drain: when the simulation runs out
      of events while threads remain [Tblocked] (or runnable with every
      LWP asleep), {!watch}'s drain hook dumps who is blocked on what
      and who last held it — turning a silent deadlock into a report.

   The two switches are process-wide; every table is domain-local, so
   machines run side by side on several domains (bench -j N) keep their
   own objects, graphs and reports.

   Cost when disabled: one [bool ref] load and branch per hook site; no
   allocation, no formatting (the PR 2 [Tracebuf.interested] pattern). *)

open Ttypes
module Machine = Sunos_hw.Machine
module Shm = Sunos_hw.Shared_memory
module Ktypes = Sunos_kernel.Ktypes

(* ------------------------------------------------------------------ *)
(* Switches                                                            *)
(* ------------------------------------------------------------------ *)

let enabled =
  ref
    (match Sys.getenv_opt "THRSAN" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

let tracking () = !enabled
let enable () = enabled := true
let disable () = enabled := false

(* Pool-wide lock-order checking is a separate switch: legitimate
   programs may take locks in orders the heuristic dislikes, so THRSAN=1
   enables only the false-positive-free checks (waits-for cycles, bare
   parks, hang reports). *)
let order_mode = ref false
let set_lock_order_mode b = order_mode := b

(* ------------------------------------------------------------------ *)
(* Sanitizer objects                                                   *)
(* ------------------------------------------------------------------ *)

let next_obj_id = Domain.DLS.new_key (fun () -> ref 0)

(* Acquisition sequence: a deterministic "site" stamp.  (Not simulated
   time — reading the clock is a syscall and would perturb the
   schedule.) *)
let acq_seq = Domain.DLS.new_key (fun () -> ref 0)

(* An object is named only when a report is built: most objects never
   appear in one, so a default name is not even formatted. *)
let new_obj ~kind ?name () =
  let id = Domain.DLS.get next_obj_id in
  incr id;
  {
    so_id = !id;
    so_kind = kind;
    so_name = name;
    so_holders = [];
    so_last_pid = -1;
    so_last_tid = -1;
    so_acq_seq = 0;
  }

let obj_name o =
  match o.so_name with
  | Some n -> n
  | None -> Printf.sprintf "%s#%d" o.so_kind o.so_id

(* Objects at a shared-memory location, keyed by (kind, segment id,
   offset) so the same location resolves to the same object from every
   process.  Not by segment name: every anonymous segment is "[anon]". *)
let shared_objs : (string * int * int, san_obj) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let shared_obj ~kind ?name ~seg ~offset () =
  let objs = Domain.DLS.get shared_objs in
  let key = (kind, Shm.id seg, offset) in
  match Hashtbl.find_opt objs key with
  | Some o -> o
  | None ->
      let name =
        match name with
        | Some n -> n
        | None -> Printf.sprintf "%s+%d" (Shm.name seg) offset
      in
      let o = new_obj ~kind ~name () in
      Hashtbl.add objs key o;
      o

(* ------------------------------------------------------------------ *)
(* Lock-order graph (transitive)                                       *)
(* ------------------------------------------------------------------ *)

exception Lock_order_violation of string * string

let order_edges : (int, int list ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let reset_order_graph () = Hashtbl.reset (Domain.DLS.get order_edges)

let add_edge edges a b =
  match Hashtbl.find_opt edges a with
  | Some l -> if not (List.mem b !l) then l := b :: !l
  | None -> Hashtbl.add edges a (ref [ b ])

(* DFS over the recorded order: is [dst] reachable from [src]? *)
let reachable edges src dst =
  let visited = Hashtbl.create 16 in
  let rec go n =
    if n = dst then true
    else if Hashtbl.mem visited n then false
    else begin
      Hashtbl.add visited n ();
      match Hashtbl.find_opt edges n with
      | None -> false
      | Some l -> List.exists go !l
    end
  in
  go src

(* Acquiring [obj] while holding [held] is a violation if the recorded
   order already puts [obj] (transitively) before [held]; otherwise the
   new edge held -> obj is recorded. *)
let check_order self obj =
  let edges = Domain.DLS.get order_edges in
  List.iter
    (fun held ->
      if held.so_id <> obj.so_id then begin
        if reachable edges obj.so_id held.so_id then
          raise (Lock_order_violation (obj_name held, obj_name obj));
        add_edge edges held.so_id obj.so_id
      end)
    self.san_held

let held_push self obj = self.san_held <- obj :: self.san_held

let held_pop self obj =
  let rec drop = function
    | [] -> []
    | o :: rest -> if o == obj then rest else o :: drop rest
  in
  self.san_held <- drop self.san_held

(* ------------------------------------------------------------------ *)
(* Waits-for graph and deadlock reports                                *)
(* ------------------------------------------------------------------ *)

type wait_link = {
  wl_pid : int;
  wl_tid : int;
  wl_obj_id : int;
  wl_obj_kind : string;
  wl_obj_name : string;
  wl_acq_seq : int;  (* acquisition stamp of the object's current hold *)
  wl_holders : (int * int) list;  (* (pid, tid) of each holder *)
}

type deadlock_report = { dl_links : wait_link list; dl_text : string }

exception Deadlock of deadlock_report

let last_deadlock_r : deadlock_report option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let last_deadlock () = !(Domain.DLS.get last_deadlock_r)

(* Search the waits-for graph for a cycle through [self]: self waits on
   [root]; a holder of [root] may wait on another object, whose holder
   may wait in turn... if the chain reaches [self], the group can never
   make progress.  [skip_self_hold] exempts [self]'s own hold of the
   ROOT object only — a pending rwlock upgrader legitimately waits on a
   lock it still holds as a reader. *)
let find_cycle ~skip_self_hold self root =
  let visited = Hashtbl.create 8 in
  let rec dfs obj chain ~at_root =
    if Hashtbl.mem visited obj.so_id then None
    else begin
      Hashtbl.add visited obj.so_id ();
      let rec scan = function
        | [] -> None
        | h :: rest ->
            if h == self then
              if at_root && skip_self_hold then scan rest
              else Some (List.rev chain)
            else begin
              match h.san_waiting with
              | Some o2 -> (
                  match dfs o2 ((h, o2) :: chain) ~at_root:false with
                  | Some c -> Some c
                  | None -> scan rest)
              | None -> scan rest
            end
      in
      scan obj.so_holders
    end
  in
  dfs root [ (self, root) ] ~at_root:true

let link_of (t, o) =
  {
    wl_pid = t.pool.pid;
    wl_tid = t.tid;
    wl_obj_id = o.so_id;
    wl_obj_kind = o.so_kind;
    wl_obj_name = obj_name o;
    wl_acq_seq = o.so_acq_seq;
    wl_holders = List.map (fun h -> (h.pool.pid, h.tid)) o.so_holders;
  }

let render_deadlock links =
  let b = Buffer.create 256 in
  Buffer.add_string b "thrsan: deadlock (waits-for cycle):\n";
  List.iter
    (fun l ->
      Buffer.add_string b
        (Printf.sprintf "  thread %d/%d waits on %s %s (acq#%d) held by %s\n"
           l.wl_pid l.wl_tid l.wl_obj_kind l.wl_obj_name l.wl_acq_seq
           (match l.wl_holders with
           | [] -> "nobody"
           | hs ->
               String.concat ", "
                 (List.map (fun (p, t) -> Printf.sprintf "%d/%d" p t) hs))))
    links;
  Buffer.contents b

(* Hooks called by the sync primitives.  All are gated at the call site
   on [tracking ()], so the disabled cost is the caller's branch. *)

let acquiring self obj = if !order_mode then check_order self obj

let acquired self obj =
  let seq = Domain.DLS.get acq_seq in
  incr seq;
  obj.so_acq_seq <- !seq;
  obj.so_holders <- self :: obj.so_holders;
  obj.so_last_pid <- self.pool.pid;
  obj.so_last_tid <- self.tid;
  (* held is maintained whenever the sanitizer tracks: the order
     checker reads it, and so does the exploration driver (per-thread
     lock footprints for its partial-order reduction) *)
  held_push self obj

let released self obj =
  let rec drop = function
    | [] -> []
    | h :: rest -> if h == self then rest else h :: drop rest
  in
  obj.so_holders <- drop obj.so_holders;
  held_pop self obj

let blocked_on ?(skip_self_hold = false) self obj =
  self.san_waiting <- Some obj;
  match find_cycle ~skip_self_hold self obj with
  | None -> ()
  | Some chain ->
      let links = List.map link_of chain in
      let r = { dl_links = links; dl_text = render_deadlock links } in
      Domain.DLS.get last_deadlock_r := Some r;
      (* we raise instead of parking, so we are not actually waiting *)
      self.san_waiting <- None;
      raise (Deadlock r)

let clear_wait self = self.san_waiting <- None

(* ------------------------------------------------------------------ *)
(* Bare-park audit                                                     *)
(* ------------------------------------------------------------------ *)

(* A thread whose park sets [Tblocked] but registers no wait (its wait
   generation is unchanged) is invisible to wakers — the exact shape of
   the rwlock upgrader bug (BUG 14).  The scheduler calls this right
   after the park function runs. *)

let bare_parks_r : (int * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let note_bare_park self =
  let parks = Domain.DLS.get bare_parks_r and key = (self.pool.pid, self.tid) in
  if not (List.mem key !parks) then parks := key :: !parks

let bare_parks () = List.rev !(Domain.DLS.get bare_parks_r)

(* ------------------------------------------------------------------ *)
(* Hang diagnosis at event-queue drain                                 *)
(* ------------------------------------------------------------------ *)

type hung_thread = {
  ht_pid : int;
  ht_tid : int;
  ht_state : string;  (* "blocked" | "runnable" *)
  ht_on : string;  (* object description, or "" when unknown *)
  ht_holders : (int * int) list;
  ht_last_holder : string;
}

type sleeping_lwp = {
  hl_pid : int;
  hl_lid : int;
  hl_wchan : string;
  hl_indefinite : bool;
}

type hang_report = {
  hr_threads : hung_thread list;
  hr_lwps : sleeping_lwp list;
  hr_text : string;
}

let last_hang_r : hang_report option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let last_hang () = !(Domain.DLS.get last_hang_r)

let render_hang threads lwps =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "thrsan: event queue drained with threads still waiting:\n";
  List.iter
    (fun t ->
      Buffer.add_string b
        (Printf.sprintf "  thread %d/%d %s%s%s\n" t.ht_pid t.ht_tid t.ht_state
           (if t.ht_on = "" then "" else " on " ^ t.ht_on)
           (if t.ht_last_holder = "" then ""
            else Printf.sprintf " (last held by %s)" t.ht_last_holder)))
    threads;
  List.iter
    (fun l ->
      Buffer.add_string b
        (Printf.sprintf "  lwp %d/%d asleep in kernel on %S%s\n" l.hl_pid
           l.hl_lid l.hl_wchan
           (if l.hl_indefinite then " (indefinite)" else "")))
    lwps;
  Buffer.contents b

let hang_check (k : Ktypes.kernel) =
  let threads = ref [] and lwps = ref [] in
  List.iter
    (fun (p : Ktypes.proc) ->
      if p.Ktypes.pstate = Ktypes.Palive then begin
        List.iter
          (fun (l : Ktypes.lwp) ->
            match l.Ktypes.lstate with
            | Ktypes.Lsleeping ->
                let indef =
                  match l.Ktypes.sleep with
                  | Some s -> s.Ktypes.sl_indefinite
                  | None -> true
                in
                lwps :=
                  {
                    hl_pid = p.Ktypes.pid;
                    hl_lid = l.Ktypes.lid;
                    hl_wchan = l.Ktypes.wchan;
                    hl_indefinite = indef;
                  }
                  :: !lwps
            | _ -> ())
          p.Ktypes.lwps;
        (* the thread table the library published at boot *)
        match Current.published p.Ktypes.pid with
        | None -> ()
        | Some pool ->
            Hashtbl.iter
              (fun _ t ->
                match t.tstate with
                | Tblocked ->
                    let on, holders, last =
                      match t.san_waiting with
                      | Some o ->
                          ( Printf.sprintf "%s %s" o.so_kind (obj_name o),
                            List.map
                              (fun h -> (h.pool.pid, h.tid))
                              o.so_holders,
                            if o.so_last_tid < 0 then ""
                            else
                              Printf.sprintf "%d/%d" o.so_last_pid
                                o.so_last_tid )
                      | None -> ("", [], "")
                    in
                    threads :=
                      {
                        ht_pid = pool.pid;
                        ht_tid = t.tid;
                        ht_state = "blocked";
                        ht_on = on;
                        ht_holders = holders;
                        ht_last_holder = last;
                      }
                      :: !threads
                | Trunnable ->
                    (* runnable with the event queue drained: every LWP
                       of the process is asleep — starvation (the A2
                       ablation's shape) *)
                    threads :=
                      {
                        ht_pid = pool.pid;
                        ht_tid = t.tid;
                        ht_state = "runnable";
                        ht_on = "";
                        ht_holders = [];
                        ht_last_holder = "";
                      }
                      :: !threads
                | Trunning | Tstopped | Tzombie -> ())
              pool.threads
      end)
    k.Ktypes.procs;
  let threads = List.rev !threads and lwps = List.rev !lwps in
  let interesting =
    threads <> []
    || List.exists (fun l -> l.hl_indefinite && l.hl_wchan <> "lwp_park") lwps
  in
  if interesting then
    Some { hr_threads = threads; hr_lwps = lwps; hr_text = render_hang threads lwps }
  else None

let watch (k : Ktypes.kernel) =
  let m = k.Ktypes.machine in
  Sunos_sim.Eventq.on_drain m.Machine.eventq (fun () ->
      match hang_check k with
      | None -> ()
      | Some r ->
          Domain.DLS.get last_hang_r := Some r;
          Machine.trace m Sunos_sim.Tracebuf.Thrsan ~cpu:(-1) ~pid:(-1)
            ~lwp:(-1) ~name:r.hr_text ~name2:"" ~arg:(-1) ~arg2:(-1) ~arg3:(-1))

(* ------------------------------------------------------------------ *)
(* Housekeeping                                                        *)
(* ------------------------------------------------------------------ *)

(* This domain's tables start over, object ids and acquisition stamps
   included, so a scenario run after a reset renders the same reports on
   any domain. *)
let reset () =
  Domain.DLS.get next_obj_id := 0;
  Domain.DLS.get acq_seq := 0;
  Domain.DLS.get last_deadlock_r := None;
  Domain.DLS.get last_hang_r := None;
  Domain.DLS.get bare_parks_r := [];
  reset_order_graph ();
  (* drop cached shared objects: the exploration driver boots many
     machines in one process, and a stale object's holder list, or its
     id that a fresh object may reuse, would let a dead run leak into a
     fresh run's graphs *)
  Hashtbl.reset (Domain.DLS.get shared_objs)

let () =
  Printexc.register_printer (function
    | Deadlock r -> Some r.dl_text
    | Lock_order_violation (held, wanted) ->
        Some
          (Printf.sprintf
             "thrsan: taking %S while holding %S contradicts recorded order"
             wanted held)
    | _ -> None)
