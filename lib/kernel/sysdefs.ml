type fd = int

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC

type disposition = Sig_default | Sig_ignore | Sig_handler of (Signo.t -> unit)

type which_timer = Timer_real | Timer_virtual | Timer_prof

type sched_class_req = Cls_timeshare | Cls_realtime of int | Cls_gang of int

type poll_fd = { pfd : fd; want_in : bool; want_out : bool }

(* epoll_ctl operations.  Add/Mod carry the interest mask plus the
   ONESHOT flag (deliver once, disarm until the next Mod re-arms). *)
type epoll_op =
  | Ep_add of { want_in : bool; want_out : bool; oneshot : bool }
  | Ep_mod of { want_in : bool; want_out : bool; oneshot : bool }
  | Ep_del

type rusage = {
  ru_utime : Sunos_sim.Time.span;
  ru_stime : Sunos_sim.Time.span;
  ru_nlwps : int;
  ru_minflt : int;
  ru_majflt : int;
}

type sysreq =
  | Sys_getpid
  | Sys_getlwpid
  | Sys_gettime
  | Sys_nanosleep of Sunos_sim.Time.span
  | Sys_exit of int
  | Sys_fork of { child_main : unit -> unit; all_lwps : bool }
  | Sys_exec of { name : string; main : unit -> unit }
  | Sys_waitpid of int option
  | Sys_open of string * open_flag list
  | Sys_close of fd
  | Sys_read of fd * int
  | Sys_read_nb of fd * int  (* non-blocking socket read *)
  | Sys_write of fd * string
  | Sys_lseek of fd * int
  | Sys_unlink of string
  | Sys_mmap of { fd : fd }
  | Sys_mmap_anon of { size : int; shared : bool }
  | Sys_munmap of Sunos_hw.Shared_memory.t
  | Sys_touch of Sunos_hw.Shared_memory.t * int
  | Sys_pipe
  | Sys_listen of { name : string; backlog : int }
  | Sys_connect of string
  | Sys_accept of fd * bool (* nonblock *)
  | Sys_note_shed  (* account one load-shed connection in /proc *)
  | Sys_poll of poll_fd list * Sunos_sim.Time.span option
  | Sys_epoll_create
  | Sys_epoll_ctl of fd * fd * epoll_op  (* epoll fd, target fd, op *)
  | Sys_epoll_wait of fd * int * Sunos_sim.Time.span option
      (* epoll fd, max events, timeout (None = indefinite) *)
  | Sys_kill of int * Signo.t
  | Sys_lwp_kill of int * Signo.t
  | Sys_sigaction of Signo.t * disposition
  | Sys_sigprocmask of Sigset.how * Sigset.t
  | Sys_sigaltstack of bool
  | Sys_sig_pickup
  | Sys_trap of Signo.t
  | Sys_lwp_create of { entry : unit -> unit; cls : sched_class_req option }
  | Sys_lwp_exit
  | Sys_lwp_park of Sunos_sim.Time.span option
  | Sys_lwp_unpark of int
  | Sys_kwait of {
      seg : Sunos_hw.Shared_memory.t;
      offset : int;
      timeout : Sunos_sim.Time.span option;
      expect : (unit -> bool) option;
    }
  | Sys_kwake of { seg : Sunos_hw.Shared_memory.t; offset : int; count : int }
  | Sys_setitimer of which_timer * Sunos_sim.Time.span option
  | Sys_priocntl of sched_class_req
  | Sys_processor_bind of int option
  | Sys_getrusage
  | Sys_setrlimit_cpu of Sunos_sim.Time.span option
  | Sys_set_resume_hook of { hook : unit -> unit; lib : Sunos_sim.Univ.t }
  | Sys_upcall_on_block of (unit -> unit)

type sysret =
  | R_ok
  | R_int of int
  | R_err of Errno.t
  | R_bytes of string
  | R_fds of fd * fd
  | R_poll of fd list
  | R_wait of int * int
  | R_time of Sunos_sim.Time.t
  | R_seg of Sunos_hw.Shared_memory.t
  | R_sigs of (Signo.t * disposition) list
  | R_disp of disposition
  | R_rusage of rusage

let sysreq_name = function
  | Sys_getpid -> "getpid"
  | Sys_getlwpid -> "getlwpid"
  | Sys_gettime -> "gettime"
  | Sys_nanosleep _ -> "nanosleep"
  | Sys_exit _ -> "exit"
  | Sys_fork { all_lwps = true; _ } -> "fork"
  | Sys_fork { all_lwps = false; _ } -> "fork1"
  | Sys_exec _ -> "exec"
  | Sys_waitpid _ -> "waitpid"
  | Sys_open _ -> "open"
  | Sys_close _ -> "close"
  | Sys_read _ -> "read"
  | Sys_read_nb _ -> "read_nb"
  | Sys_write _ -> "write"
  | Sys_lseek _ -> "lseek"
  | Sys_unlink _ -> "unlink"
  | Sys_mmap _ -> "mmap"
  | Sys_mmap_anon _ -> "mmap_anon"
  | Sys_munmap _ -> "munmap"
  | Sys_touch _ -> "touch"
  | Sys_pipe -> "pipe"
  | Sys_listen _ -> "listen"
  | Sys_connect _ -> "connect"
  | Sys_accept _ -> "accept"
  | Sys_note_shed -> "note_shed"
  | Sys_poll _ -> "poll"
  | Sys_epoll_create -> "epoll_create"
  | Sys_epoll_ctl _ -> "epoll_ctl"
  | Sys_epoll_wait _ -> "epoll_wait"
  | Sys_kill _ -> "kill"
  | Sys_lwp_kill _ -> "lwp_kill"
  | Sys_sigaction _ -> "sigaction"
  | Sys_sigprocmask _ -> "sigprocmask"
  | Sys_sigaltstack _ -> "sigaltstack"
  | Sys_sig_pickup -> "sig_pickup"
  | Sys_trap _ -> "trap"
  | Sys_lwp_create _ -> "lwp_create"
  | Sys_lwp_exit -> "lwp_exit"
  | Sys_lwp_park _ -> "lwp_park"
  | Sys_lwp_unpark _ -> "lwp_unpark"
  | Sys_kwait _ -> "kwait"
  | Sys_kwake _ -> "kwake"
  | Sys_setitimer _ -> "setitimer"
  | Sys_priocntl _ -> "priocntl"
  | Sys_processor_bind _ -> "processor_bind"
  | Sys_getrusage -> "getrusage"
  | Sys_setrlimit_cpu _ -> "setrlimit_cpu"
  | Sys_set_resume_hook _ -> "set_resume_hook"
  | Sys_upcall_on_block _ -> "upcall_on_block"

let pp_sysret ppf = function
  | R_ok -> Format.pp_print_string ppf "R_ok"
  | R_int n -> Format.fprintf ppf "R_int %d" n
  | R_err e -> Format.fprintf ppf "R_err %a" Errno.pp e
  | R_bytes s -> Format.fprintf ppf "R_bytes %S" s
  | R_fds (a, b) -> Format.fprintf ppf "R_fds (%d,%d)" a b
  | R_poll fds ->
      Format.fprintf ppf "R_poll [%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
           Format.pp_print_int)
        fds
  | R_wait (p, s) -> Format.fprintf ppf "R_wait (%d,%d)" p s
  | R_time t -> Format.fprintf ppf "R_time %a" Sunos_sim.Time.pp t
  | R_seg s -> Format.fprintf ppf "R_seg %s" (Sunos_hw.Shared_memory.name s)
  | R_sigs l -> Format.fprintf ppf "R_sigs (%d)" (List.length l)
  | R_disp _ -> Format.pp_print_string ppf "R_disp"
  | R_rusage _ -> Format.pp_print_string ppf "R_rusage"
