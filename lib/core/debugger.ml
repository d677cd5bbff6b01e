open Ttypes
module Kernel = Sunos_kernel.Kernel
module Procfs = Sunos_kernel.Procfs

type thread_view = {
  dt_tid : int;
  dt_state : string;
  dt_bound_lwp : int option;
}

type snapshot = {
  d_pid : int;
  d_pname : string;
  d_lwps : Procfs.lwp_info list;
  d_threads : thread_view list;
}

(* Read the thread table the library published (Current.publish). *)
let thread_views pool =
  Hashtbl.fold
    (fun tid t acc ->
      {
        dt_tid = tid;
        dt_state = tstate_name t.tstate;
        dt_bound_lwp = (if t.bound then Some t.bound_lwp else None);
      }
      :: acc)
    pool.threads []
  |> List.sort (fun a b -> compare a.dt_tid b.dt_tid)

let with_proc k pid f =
  match Kernel.find_proc k pid with
  | None -> Error (Printf.sprintf "no such process: %d" pid)
  | Some proc -> Ok (f proc)

let attach k pid =
  with_proc k pid (fun proc -> Sunos_kernel.Signal_impl.stop_proc k proc)

let detach k pid =
  with_proc k pid (fun proc -> Sunos_kernel.Signal_impl.cont_proc k proc)

let snapshot k pid =
  match Procfs.proc k pid with
  | None -> Error (Printf.sprintf "no such process: %d" pid)
  | Some pi ->
      let threads =
        match Current.published pid with
        | Some pool -> thread_views pool
        | None -> []
      in
      Ok
        {
          d_pid = pid;
          d_pname = pi.Procfs.pi_name;
          d_lwps = pi.Procfs.pi_lwps;
          d_threads = threads;
        }

let pp_snapshot ppf s =
  Format.fprintf ppf "pid %d (%s)@." s.d_pid s.d_pname;
  Format.fprintf ppf "  kernel view (/proc): %d LWP(s)@."
    (List.length s.d_lwps);
  List.iter
    (fun (li : Procfs.lwp_info) ->
      Format.fprintf ppf "    lwp %d %s %s@." li.Procfs.li_lwpid
        li.Procfs.li_state li.Procfs.li_class)
    s.d_lwps;
  Format.fprintf ppf "  library view (thread table): %d thread(s)@."
    (List.length s.d_threads);
  List.iter
    (fun t ->
      Format.fprintf ppf "    thread %d %s%s@." t.dt_tid t.dt_state
        (match t.dt_bound_lwp with
        | Some l -> Printf.sprintf " (bound to lwp %d)" l
        | None -> ""))
    s.d_threads
