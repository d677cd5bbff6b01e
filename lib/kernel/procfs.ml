open Ktypes

type lwp_info = {
  li_lwpid : int;
  li_state : string;
  li_class : string;
  li_prio : int;
  li_wchan : string;
  li_parked : bool;
  li_sleep_indefinite : bool;
  li_sleep_interruptible : bool;
  li_utime : Sunos_sim.Time.span;
  li_stime : Sunos_sim.Time.span;
  li_bound_cpu : int option;
}

type proc_info = {
  pi_pid : int;
  pi_name : string;
  pi_state : string;
  pi_parent : int option;
  pi_nlwps : int;
  pi_lwps : lwp_info list;
  pi_utime : Sunos_sim.Time.span;
  pi_stime : Sunos_sim.Time.span;
  pi_minflt : int;
  pi_majflt : int;
  pi_shed : int;
  pi_nfds : int;
  pi_nsocks : int;
  pi_nlisten : int;
}

let lwp_state_string l =
  match l.lstate with
  | Lrunning c -> Printf.sprintf "running(cpu%d)" c
  | Lrunnable -> "runnable"
  | Lsleeping -> "sleeping"
  | Lstopped -> "stopped"
  | Lzombie -> "zombie"

let class_string l =
  match l.cls with
  | Sc_timeshare _ -> "TS"
  | Sc_realtime _ -> "RT"
  | Sc_gang g -> Printf.sprintf "GANG%d" g

let lwp_info l =
  {
    li_lwpid = l.lid;
    li_state = lwp_state_string l;
    li_class = class_string l;
    li_prio = global_prio l;
    li_wchan = l.wchan;
    li_parked = l.parked;
    li_sleep_indefinite =
      (match l.sleep with Some s -> s.sl_indefinite | None -> false);
    li_sleep_interruptible =
      (match l.sleep with Some s -> s.sl_interruptible | None -> false);
    li_utime = Int64.of_int l.utime;
    li_stime = Int64.of_int l.stime;
    li_bound_cpu = l.bound_cpu;
  }

let proc_info p =
  let utime, stime = cpu_times p in
  {
    pi_pid = p.pid;
    pi_name = p.pname;
    pi_state =
      (match p.pstate with
      | Palive -> if p.stopped then "stopped" else "alive"
      | Pzombie -> "zombie"
      | Preaped -> "reaped");
    pi_parent = Option.map (fun pp -> pp.pid) p.parent;
    pi_nlwps = List.length (live_lwps p);
    pi_lwps = List.map lwp_info p.lwps;
    pi_utime = Int64.of_int utime;
    pi_stime = Int64.of_int stime;
    pi_minflt = p.minflt;
    pi_majflt = p.majflt;
    pi_shed = p.shed_count;
    pi_nfds = Hashtbl.length p.fdtab;
    pi_nsocks =
      Hashtbl.fold
        (fun _ o n -> match o with Fd_sock _ -> n + 1 | _ -> n)
        p.fdtab 0;
    pi_nlisten =
      Hashtbl.fold
        (fun _ o n -> match o with Fd_sock_listen _ -> n + 1 | _ -> n)
        p.fdtab 0;
  }

let snapshot k =
  k.procs |> List.map proc_info
  |> List.sort (fun a b -> compare a.pi_pid b.pi_pid)

let proc k pid =
  match Kernel_impl.find_proc k pid with
  | Some p -> Some (proc_info p)
  | None -> None

let pp_proc ppf pi =
  Format.fprintf ppf
    "pid %d (%s) %s nlwps=%d utime=%a stime=%a flt=%d/%d socks=%d/%d%s@."
    pi.pi_pid pi.pi_name pi.pi_state pi.pi_nlwps Sunos_sim.Time.pp pi.pi_utime
    Sunos_sim.Time.pp pi.pi_stime pi.pi_minflt pi.pi_majflt pi.pi_nsocks
    pi.pi_nlisten
    (* shed connections only appear under load shedding; keep the
       happy-path line format unchanged *)
    (if pi.pi_shed > 0 then Printf.sprintf " shed=%d" pi.pi_shed else "");
  List.iter
    (fun li ->
      Format.fprintf ppf "  lwp %d %-16s %-6s prio=%-3d %s%s@." li.li_lwpid
        li.li_state li.li_class li.li_prio
        (if li.li_wchan = "" then "" else "wchan=" ^ li.li_wchan)
        (match li.li_bound_cpu with
        | Some c -> Printf.sprintf " bound=cpu%d" c
        | None -> ""))
    pi.pi_lwps

let pp ppf k = List.iter (pp_proc ppf) (snapshot k)

(* --- shared-object wait channels -------------------------------------- *)

type wchan_info = {
  wc_seg_id : int;
  wc_seg_name : string;
  wc_offset : int;
  wc_waiters : (int * int) list; (* (pid, lwpid), sorted *)
}

let wait_channels k =
  Hashtbl.fold
    (fun (seg_id, offset) q acc ->
      let waiters =
        Queue.fold
          (fun ws w ->
            if futex_live w then (w.fw_lwp.proc.pid, w.fw_lwp.lid) :: ws
            else ws)
          [] q
      in
      if waiters = [] then acc
      else
        {
          wc_seg_id = seg_id;
          wc_seg_name =
            (match Hashtbl.find_opt k.futex_names seg_id with
            | Some n -> n
            | None -> "?");
          wc_offset = offset;
          wc_waiters = List.sort compare waiters;
        }
        :: acc)
    k.futex []
  |> List.sort (fun a b ->
         compare (a.wc_seg_id, a.wc_offset) (b.wc_seg_id, b.wc_offset))

let pp_wait_channels ppf k =
  List.iter
    (fun wc ->
      Format.fprintf ppf "wchan %s(seg%d)+%d:%s@." wc.wc_seg_name wc.wc_seg_id
        wc.wc_offset
        (String.concat ""
           (List.map
              (fun (pid, lid) -> Printf.sprintf " pid%d/lwp%d" pid lid)
              wc.wc_waiters)))
    (wait_channels k)

(* --- epoll objects ---------------------------------------------------- *)

type epoll_info = {
  ei_pid : int;
  ei_fd : int;
  ei_interest : int;  (* registered fds *)
  ei_ready : int;  (* current ready-queue depth *)
  ei_edges : int;  (* entries enqueued over the object's lifetime *)
  ei_coalesced : int;  (* edges absorbed by an already-queued entry *)
  ei_wakeups : int;  (* blocked epoll_wait callers woken *)
  ei_delivered : int;  (* entries handed to epoll_wait callers *)
}

let epolls k =
  List.concat_map
    (fun p ->
      Hashtbl.fold
        (fun fd o acc ->
          match o with
          | Fd_epoll ep ->
              {
                ei_pid = p.pid;
                ei_fd = fd;
                ei_interest = Epoll.interest_count ep;
                ei_ready = Epoll.ready_depth ep;
                ei_edges = Epoll.edges ep;
                ei_coalesced = Epoll.coalesced ep;
                ei_wakeups = Epoll.wakeups ep;
                ei_delivered = Epoll.delivered ep;
              }
              :: acc
          | _ -> acc)
        p.fdtab [])
    k.procs
  |> List.sort (fun a b -> compare (a.ei_pid, a.ei_fd) (b.ei_pid, b.ei_fd))

let pp_epoll ppf ei =
  Format.fprintf ppf
    "epoll pid%d/fd%d interest=%d ready=%d edges=%d coalesced=%d wakeups=%d \
     delivered=%d@."
    ei.ei_pid ei.ei_fd ei.ei_interest ei.ei_ready ei.ei_edges ei.ei_coalesced
    ei.ei_wakeups ei.ei_delivered

let pp_epolls ppf k = List.iter (pp_epoll ppf) (epolls k)
