(* The system-call table.  [execute k lwp req] runs at the point where the
   trap-entry cost has been charged; it mutates kernel state and finishes
   by either completing the call (K.complete, which charges the per-call
   operation cost and the trap exit) or blocking the LWP (K.block plus a
   registered wakeup path). *)

open Ktypes
open Sysdefs
module K = Kernel_impl
module Tracebuf = Sunos_sim.Tracebuf
module Sig = Signal_impl
module Time = Sunos_sim.Time
module Shm = Sunos_hw.Shared_memory
module Cost = Sunos_hw.Cost_model
module Machine = Sunos_hw.Machine
module Disk = Sunos_hw.Devices.Disk

let copy_cost (c : Cost.t) bytes_ =
  Int64.mul c.Cost.copy_per_kb (Int64.of_int ((bytes_ + 1023) / 1024))

(* Chaos profile of the machine, for fault-rate lookups at the injection
   sites below.  [K.chaos_roll] never draws when chaos is off. *)
let chp k = K.Faultgen.profile (K.chaos k)

let lookup_fd proc fd = Hashtbl.find_opt proc.fdtab fd

let install_fd proc fdobj =
  let fd = proc.next_fd in
  proc.next_fd <- proc.next_fd + 1;
  Hashtbl.replace proc.fdtab fd fdobj;
  fd

(* --- readiness, shared by read/write/poll --------------------------- *)

let in_ready fdobj =
  match fdobj with
  | Fd_file _ -> true
  | Fd_pipe_r p -> Pipe.readable p
  | Fd_pipe_w _ -> false
  | Fd_sock ep -> Socket.readable ep
  | Fd_sock_listen l -> Socket.acceptable l
  | Fd_epoll ep -> Epoll.ready_depth ep > 0 || Epoll.closed ep

let out_ready fdobj =
  match fdobj with
  | Fd_file _ -> true
  | Fd_pipe_w p -> Pipe.writable p
  | Fd_pipe_r _ -> false
  | Fd_sock ep -> Socket.writable ep
  | Fd_sock_listen _ | Fd_epoll _ -> false

(* Apply [g source x] to the readiness source of each wanted direction
   of an fd: what fires when the level above may have turned true.
   Files are always ready and need none, and neither does a direction
   the fd does not have.  Poll's one-shot waiters and epoll's watches
   both find their sources here. *)
let iter_sources fdobj ~want_in ~want_out g x =
  (if want_in then
     match fdobj with
     | Fd_pipe_r p -> g (Pipe.read_readiness p) x
     | Fd_sock ep -> g (Socket.read_readiness ep) x
     | Fd_sock_listen l -> g (Socket.accept_readiness l) x
     | Fd_epoll ep -> g (Epoll.readiness ep) x
     | Fd_file _ | Fd_pipe_w _ -> ());
  if want_out then
    match fdobj with
    | Fd_pipe_w p -> g (Pipe.write_readiness p) x
    | Fd_sock ep -> g (Socket.write_readiness ep) x
    | Fd_file _ | Fd_pipe_r _ | Fd_sock_listen _ | Fd_epoll _ -> ()

(* --- attempts, and the one wait path ----------------------------------- *)

(* One try at a call that may have to wait: its result and the operation
   cost a call that did not sleep is charged, or nothing to take yet.
   The same attempt serves the no-wait path, the non-blocking variants
   and every re-check after a wakeup. *)
type attempt = Done of sysret * Time.span | Not_ready

(* Sleep on [wchan] until [attempt] is done.  [arm f] subscribes the
   one-shot [f] to every source whose firing may let the attempt
   succeed; each firing re-runs the attempt, then wakes the LWP with the
   result or arms again (another sleeper took what arrived).  The sleep
   is interruptible and indefinite, so it counts toward SIGWAITING.  A
   call that slept is charged no operation cost: the wakeup is its
   return. *)
let sleep_until k lwp ~wchan ~arm attempt =
  let sl = K.block k lwp ~wchan ~interruptible:true ~indefinite:true in
  let rec retry () =
    if sleep_live lwp sl then
      match attempt () with
      | Done (ret, _) -> K.wake k lwp ret
      | Not_ready -> arm retry
  in
  arm retry

(* --- file I/O -------------------------------------------------------- *)

(* A major fault: block the LWP (uninterruptibly, like the classic "D"
   state) until the disk delivers [pages] of [seg]; only this LWP waits.
   The pages become resident and the LWP wakes with [ret ()]. *)
let major_fault k lwp ~wchan seg pages ret =
  lwp.proc.majflt <- lwp.proc.majflt + List.length pages;
  let sl = K.block k lwp ~wchan ~interruptible:false ~indefinite:false in
  let spike =
    if K.chaos_roll k ~site:"fault-spike" (chp k).fault_spike then
      max 1 (chp k).spike_factor
    else 1
  in
  Disk.submit k.machine.Machine.disk
    ~bytes_:(List.length pages * 4096 * spike)
    ~on_complete:(fun () ->
      List.iter (fun p -> Shm.make_resident seg ~page:p) pages;
      if sleep_live lwp sl then K.wake k lwp (ret ()))

(* Pages of [file] covered by the range that are not yet in the "page
   cache" (segment residency). *)
let missing_pages file ~pos ~len =
  let seg = Fs.segment file in
  List.filter
    (fun p -> p < Shm.page_count seg && not (Shm.resident seg ~page:p))
    (Fs.pages_touched ~pos ~len)

let file_read k lwp file ~pos ~set_pos ~len =
  let c = K.cost k in
  let finish () =
    let data = Fs.read file ~pos ~len in
    set_pos (pos + String.length data);
    K.complete k lwp
      ~op_cost:(Int64.add c.Cost.fs_op (copy_cost c (String.length data)))
      (R_bytes data)
  in
  match missing_pages file ~pos ~len with
  | [] -> finish ()
  | missing ->
      major_fault k lwp ~wchan:"disk" (Fs.segment file) missing (fun () ->
          let data = Fs.read file ~pos ~len in
          set_pos (pos + String.length data);
          R_bytes data)

let file_write k lwp file ~pos ~set_pos data =
  let c = K.cost k in
  let n = Fs.write file ~pos data in
  set_pos (pos + n);
  (* write-allocate: pages become resident; write-behind hides the disk *)
  let seg = Fs.segment file in
  List.iter
    (fun p -> if p < Shm.page_count seg then Shm.make_resident seg ~page:p)
    (Fs.pages_touched ~pos ~len:n);
  K.complete k lwp ~op_cost:(Int64.add c.Cost.fs_op (copy_cost c n)) (R_int n)

(* --- pipe and socket attempts ----------------------------------------- *)

let pipe_read k p ~len =
  let data = Pipe.read p ~len in
  if data <> "" || Pipe.write_closed p then
    Done (R_bytes data, (K.cost k).Cost.pipe_op)
  else Not_ready

let pipe_write k lwp p data =
  if Pipe.read_closed p then begin
    Sig.post_lwp k lwp Signo.sigpipe;
    Done (R_err Errno.EPIPE, 0L)
  end
  else
    let n = Pipe.write p data in
    if n > 0 then Done (R_int n, (K.cost k).Cost.pipe_op) else Not_ready

let sock_read k ep ~len =
  let c = K.cost k in
  match Socket.read ep ~len with
  | `Data s ->
      Done (R_bytes s, Int64.add c.Cost.sock_op (copy_cost c (String.length s)))
  | `Eof -> Done (R_bytes "", c.Cost.sock_op)
  | `Reset -> Done (R_err Errno.ECONNRESET, 0L)
  | `Empty -> Not_ready

let sock_write k ep data =
  let c = K.cost k in
  match Socket.write ep data with
  | `Accepted n -> Done (R_int n, Int64.add c.Cost.sock_op (copy_cost c n))
  | `Reset -> Done (R_err Errno.ECONNRESET, 0L)
  | `Full -> Not_ready

(* A closed listener can never produce a connection, so it fails the
   call rather than leaving it not ready: EAGAIN would send a
   non-blocking acceptor into a poll/EAGAIN spin forever (another LWP
   may close the listening fd while we race toward it). *)
let sock_accept k lwp l =
  match Socket.accept l with
  | Some ep ->
      let fd = install_fd lwp.proc (Fd_sock ep) in
      K.trace_proc k Tracebuf.Accept lwp.proc ~name:(Socket.listener_name l)
        ~arg:fd;
      Done (R_int fd, (K.cost k).Cost.sock_accept)
  | None when Socket.listener_closed l -> Done (R_err Errno.ECONNABORTED, 0L)
  | None -> Not_ready

(* --- poll ------------------------------------------------------------- *)

let poll_ready proc fds =
  List.filter_map
    (fun { pfd; want_in; want_out } ->
      match lookup_fd proc pfd with
      | None -> Some pfd (* bad fds report as "ready" so callers notice *)
      | Some o ->
          if (want_in && in_ready o) || (want_out && out_ready o) then
            Some pfd
          else None)
    fds

let poll_attempt proc fds ~op_cost =
  match poll_ready proc fds with
  | [] -> Not_ready
  | ready -> Done (R_poll ready, op_cost)

(* Arm a one-shot [f] on every wanted direction of the fds still open. *)
let arm_poll proc fds f =
  List.iter
    (fun { pfd; want_in; want_out } ->
      match lookup_fd proc pfd with
      | Some o -> iter_sources o ~want_in ~want_out Readiness.wait f
      | None -> ())
    fds

(* --- epoll ------------------------------------------------------------ *)

(* Attach persistent watches on the sources matching the entry's
   interest mask, replacing any the entry held.  Returns false on
   objects that have no edge sources (plain files, other epolls) —
   epoll interest on those is refused rather than silently
   level-polled. *)
let epoll_attach ep (e : Epoll.entry) fdobj =
  List.iter Readiness.unwatch e.Epoll.e_watches;
  e.Epoll.e_watches <- [];
  match fdobj with
  | Fd_file _ | Fd_epoll _ -> false
  | Fd_pipe_r _ | Fd_pipe_w _ | Fd_sock _ | Fd_sock_listen _ ->
      iter_sources fdobj ~want_in:e.Epoll.e_want_in
        ~want_out:e.Epoll.e_want_out
        (fun r fire ->
          e.Epoll.e_watches <- Readiness.watch r fire :: e.Epoll.e_watches)
        (fun () -> Epoll.note_edge ep e);
      true

(* Drain up to [max] live entries off the ready queue.  This is the
   whole point of the design: cost is O(returned), never O(interest).
   Entries whose fd was closed without a ctl(DEL) are collected here
   (their watches died with the object; the interest record is garbage).
   Readiness may be stale by delivery — the edge-trigger contract makes
   that the consumer's problem (drain until EAGAIN). *)
let epoll_collect proc ep ~max =
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      match Epoll.pop ep with
      | None -> List.rev acc
      | Some e -> (
          match lookup_fd proc e.Epoll.e_fd with
          | None ->
              Epoll.kill_entry ep e;
              go acc n
          | Some _ ->
              Epoll.note_delivered ep e;
              go (e.Epoll.e_fd :: acc) (n - 1))
  in
  go [] max

let epoll_attempt k proc ep ~maxev =
  if Epoll.closed ep then Done (R_err Errno.EBADF, 0L)
  else
    match epoll_collect proc ep ~max:maxev with
    | [] -> Not_ready
    | fds ->
        let c = K.cost k in
        Done
          ( R_poll fds,
            Int64.add c.Cost.poll_fixed
              (Int64.mul c.Cost.poll_per_fd (Int64.of_int (List.length fds))) )

(* --- fork / exec ------------------------------------------------------ *)

let do_fork k lwp ~child_main ~all_lwps =
  let c = K.cost k in
  let proc = lwp.proc in
  let n_lwps = List.length proc.lwps in
  let child = K.make_proc k ~name:proc.pname ~parent:(Some proc) in
  (* The child shares open file descriptions (same fdobj records: shared
     offsets, as in UNIX) and keeps shared mappings shared. *)
  Hashtbl.iter (fun fd o -> Hashtbl.replace child.fdtab fd o) proc.fdtab;
  child.next_fd <- proc.next_fd;
  Array.blit proc.handlers 0 child.handlers 0 (Array.length proc.handlers);
  (* Shared mappings stay shared; private anonymous ones are snapshot-
     copied (the model's copy-on-write) so post-fork writes stop
     aliasing across the process boundary.  [resolve_seg] translates
     the parent handles a forked closure still holds. *)
  child.mappings <-
    List.map
      (fun seg -> if Shm.anon_private seg then Shm.clone seg else seg)
      proc.mappings;
  let clwp =
    K.make_lwp k child ~entry:child_main ~cls:(Sc_timeshare { ts_pri = 29 })
  in
  K.make_runnable k clwp;
  if all_lwps then
    (* fork() may cause interruptible syscalls of the other LWPs to
       return EINTR (the paper calls this out explicitly) *)
    List.iter
      (fun l -> if l != lwp then K.interrupt_sleep k l)
      proc.lwps;
  let lwp_cost = if all_lwps then n_lwps else 1 in
  let op_cost =
    Int64.add c.Cost.fork_base
      (Int64.mul c.Cost.fork_per_lwp (Int64.of_int lwp_cost))
  in
  K.complete k lwp ~op_cost (R_int child.pid)

let do_exec k lwp ~name ~main =
  let c = K.cost k in
  let proc = lwp.proc in
  (* destroy every other LWP; the caller becomes the single fresh LWP *)
  List.iter (fun l -> if l != lwp then K.destroy_lwp k l) proc.lwps;
  proc.lwps <- [ lwp ];
  Array.fill proc.handlers 0 (Array.length proc.handlers) Sig_default;
  proc.proc_sig_pending <- [];
  Queue.clear lwp.deliverable;
  lwp.lwp_sig_pending <- [];
  lwp.on_resume <- ignore;
  proc.lib <- None;
  proc.activations <- None;
  proc.pname <- name;
  K.trace_proc k Tracebuf.Exec proc ~name ~arg:(-1);
  let cpu = K.cpu_of k lwp in
  K.busy k cpu lwp 0 c.Cost.exec_cost (fun () ->
      lwp.pending <- P_start main;
      K.resume k cpu lwp)

(* --- waitpid ----------------------------------------------------------- *)

let do_waitpid k lwp pid_filter =
  let proc = lwp.proc in
  let matches child =
    match pid_filter with None -> true | Some p -> child.pid = p
  in
  let candidates = List.filter matches proc.children in
  if candidates = [] then K.complete k lwp (R_err Errno.ECHILD)
  else
    match List.find_opt (fun ch -> ch.pstate = Pzombie) candidates with
    | Some zombie ->
        zombie.pstate <- Preaped;
        proc.children <- List.filter (fun ch -> ch != zombie) proc.children;
        K.complete k lwp (R_wait (zombie.pid, zombie.exit_status))
    | None ->
        let sl =
          K.block k lwp ~wchan:"waitpid" ~interruptible:true ~indefinite:true
        in
        (* drop the waiters a signal took out of waitpid meanwhile *)
        proc.waitpid_waiters <-
          (lwp, sl)
          :: List.filter (fun (l, s) -> sleep_live l s) proc.waitpid_waiters

(* --- segment handle translation ---------------------------------------- *)

(* A forked child's closures still hold the parent's handles for private
   anonymous mappings that fork replaced with snapshot clones.  Kernel
   entry points that take a segment resolve such a stale handle to the
   calling process's own clone, the way an address means a different
   page through a different address space. *)
let resolve_seg proc seg =
  if List.memq seg proc.mappings then seg
  else
    let cloned s =
      match Shm.clone_of s with Some src -> src == seg | None -> false
    in
    match List.find_opt cloned proc.mappings with Some s -> s | None -> seg

(* --- arguments no call can act on ---------------------------------------- *)

(* The last instant the event queue can hold. *)
let end_of_time = Int64.of_int max_int

let past_end k span = Time.(span > Time.diff end_of_time (K.now k))
let bad_span k span = Time.(span < 0L) || past_end k span
let bad_timeout k = function Some t -> bad_span k t | None -> false
let bad_signo s = s < 1 || s > Signo.max_sig

(* A call the table cannot act on: a signal number outside 1..max_sig, a
   span below zero or past the end of simulated time (a poll's timeout
   may be negative: it returns at once), a negative file or mapping
   offset, a mapping of no size.  It completes with EINVAL instead of
   raising inside an event callback, which would end every process's
   run. *)
let invalid_args k = function
  | Sys_nanosleep span -> bad_span k span
  | Sys_lwp_park t | Sys_setitimer (_, t) | Sys_kwait { timeout = t; _ } ->
      bad_timeout k t
  | Sys_poll (_, Some t) | Sys_epoll_wait (_, _, Some t) -> past_end k t
  | Sys_kill (_, s) | Sys_lwp_kill (_, s) | Sys_sigaction (s, _) | Sys_trap s
    ->
      bad_signo s
  | Sys_lseek (_, offset) | Sys_touch (_, offset) -> offset < 0
  | Sys_mmap_anon { size; _ } -> size <= 0
  | _ -> false

(* --- the table --------------------------------------------------------- *)

let execute k lwp req =
  let c = K.cost k in
  let proc = lwp.proc in
  match req with
  | _ when invalid_args k req -> K.complete k lwp (R_err Errno.EINVAL)
  (* chaos: kill a forked process outright at a syscall boundary — the
     simulated analogue of a server child segfaulting or being OOM-killed
     mid-request.  Only forked children are eligible (the workload's root
     processes host the harness itself), and the exit/fork syscalls are
     exempt so every kill lands where the process still has work in
     flight.  Status 137 = SIGKILL. *)
  | _
    when proc.parent <> None
         && (match req with Sys_exit _ | Sys_fork _ -> false | _ -> true)
         && K.chaos_roll k ~site:"proc-kill" (chp k).proc_kill ->
      Machine.trace k.machine Tracebuf.Proc_kill ~cpu:(-1) ~pid:proc.pid
        ~lwp:(-1) ~name:proc.pname ~name2:(sysreq_name req) ~arg:(-1)
        ~arg2:(-1) ~arg3:(-1);
      K.proc_exit k proc ~status:137
  | Sys_getpid -> K.complete k lwp (R_int proc.pid)
  | Sys_getlwpid -> K.complete k lwp (R_int lwp.lid)
  | Sys_gettime -> K.complete k lwp (R_time (K.now k))
  | Sys_nanosleep span ->
      (* A user-specified duration can be arbitrarily long, so it counts
         as an "indefinite" wait for SIGWAITING purposes — otherwise a
         long sleep pins its LWP while runnable threads starve (the
         paper's "supposedly short term blocking may take a long time"
         remark). *)
      ignore
        (K.block k lwp ~wchan:"nanosleep" ~interruptible:true ~indefinite:true
          : sleep);
      if K.chaos_roll k ~site:"eintr-sleep" (chp k).eintr_sleep then
        (* Early EINTR, at least half the requested span in: the
           user-side retry loop re-sleeps the remainder, which at least
           halves every round, so the retry chain is O(log span) and
           always reaches the deadline — no Zeno schedules. *)
        let half = Int64.div span 2L in
        let frac =
          Time.min span
            (Int64.add half
               (K.Faultgen.draw_span (K.chaos k) ~max_span:(Time.max 1L half)))
        in
        K.set_sleep_timeout k lwp frac (R_err Errno.EINTR)
      else K.set_sleep_timeout k lwp span R_ok
  | Sys_exit status -> K.proc_exit k proc ~status
  | Sys_fork { child_main; all_lwps } -> do_fork k lwp ~child_main ~all_lwps
  | Sys_exec { name; main } -> do_exec k lwp ~name ~main
  | Sys_waitpid pid_filter -> do_waitpid k lwp pid_filter
  | Sys_open (path, flags) -> (
      let has f = List.mem f flags in
      match Fs.lookup k.fs path with
      | Some file ->
          let fd = install_fd proc (Fd_file { file; pos = 0 }) in
          K.complete k lwp ~op_cost:c.Cost.fs_op (R_int fd)
      | None ->
          if has O_CREAT then (
            match Fs.create_file k.fs ~path () with
            | Ok file ->
                let fd = install_fd proc (Fd_file { file; pos = 0 }) in
                K.complete k lwp ~op_cost:c.Cost.fs_op (R_int fd)
            | Error e -> K.complete k lwp (R_err e))
          else K.complete k lwp (R_err Errno.ENOENT))
  | Sys_close fd -> (
      match lookup_fd proc fd with
      | None -> K.complete k lwp (R_err Errno.EBADF)
      | Some o ->
          Hashtbl.remove proc.fdtab fd;
          K.close_fdobj o;
          K.complete k lwp ~op_cost:c.Cost.fs_op R_ok)
  | Sys_read (fd, len) -> (
      match lookup_fd proc fd with
      | None -> K.complete k lwp (R_err Errno.EBADF)
      | Some (Fd_file f) ->
          file_read k lwp f.file ~pos:f.pos ~set_pos:(fun p -> f.pos <- p)
            ~len
      | Some (Fd_pipe_r _ | Fd_sock _) when len <= 0 ->
          (* a zero count transfers nothing and never waits *)
          K.complete k lwp (if len < 0 then R_err Errno.EINVAL else R_bytes "")
      | Some (Fd_pipe_r p) -> (
          match pipe_read k p ~len with
          | Done (ret, op_cost) -> K.complete k lwp ~op_cost ret
          | Not_ready ->
              sleep_until k lwp ~wchan:"pipe_read"
                ~arm:(Readiness.wait (Pipe.read_readiness p))
                (fun () -> pipe_read k p ~len))
      | Some (Fd_pipe_w _) -> K.complete k lwp (R_err Errno.EBADF)
      | Some (Fd_sock ep) -> (
          match sock_read k ep ~len with
          | Done (ret, op_cost) -> K.complete k lwp ~op_cost ret
          | Not_ready ->
              sleep_until k lwp ~wchan:"sock_read"
                ~arm:(Readiness.wait (Socket.read_readiness ep))
                (fun () -> sock_read k ep ~len))
      | Some (Fd_sock_listen _) -> K.complete k lwp (R_err Errno.ENOTCONN)
      | Some (Fd_epoll _) -> K.complete k lwp (R_err Errno.EBADF))
  | Sys_read_nb (fd, len) -> (
      (* Non-blocking socket read with distinguishable outcomes: data,
         EOF (empty R_bytes), EAGAIN (not ready) and ECONNRESET are four
         different answers — callers must not have to guess which of
         "no data yet" and "no data ever" an empty result means. *)
      match lookup_fd proc fd with
      | None -> K.complete k lwp (R_err Errno.EBADF)
      | Some (Fd_sock ep) ->
          if K.chaos_roll k ~site:"eagain-sock" (chp k).eagain_sock then
            (* spurious not-ready; the data stays buffered for the next
               attempt *)
            K.complete k lwp (R_err Errno.EAGAIN)
          else (
            match sock_read k ep ~len with
            | Done (ret, op_cost) -> K.complete k lwp ~op_cost ret
            | Not_ready -> K.complete k lwp (R_err Errno.EAGAIN))
      | Some _ -> K.complete k lwp (R_err Errno.EINVAL))
  | Sys_note_shed ->
      proc.shed_count <- proc.shed_count + 1;
      K.trace_proc k Tracebuf.Shed proc ~name:"" ~arg:proc.shed_count;
      K.complete k lwp R_ok
  | Sys_write (fd, data) -> (
      match lookup_fd proc fd with
      | None -> K.complete k lwp (R_err Errno.EBADF)
      | Some (Fd_file f) ->
          file_write k lwp f.file ~pos:f.pos
            ~set_pos:(fun p -> f.pos <- p)
            data
      | Some (Fd_pipe_w _ | Fd_sock _) when data = "" ->
          K.complete k lwp (R_int 0)
      | Some (Fd_pipe_w p) -> (
          match pipe_write k lwp p data with
          | Done (ret, op_cost) -> K.complete k lwp ~op_cost ret
          | Not_ready ->
              sleep_until k lwp ~wchan:"pipe_write"
                ~arm:(Readiness.wait (Pipe.write_readiness p))
                (fun () -> pipe_write k lwp p data))
      | Some (Fd_pipe_r _) -> K.complete k lwp (R_err Errno.EBADF)
      | Some (Fd_sock ep) ->
          if K.chaos_roll k ~site:"conn-rst" (chp k).conn_rst then begin
            (* mid-stream RST: the connection dies under the writer *)
            Socket.abort ep;
            K.complete k lwp (R_err Errno.ECONNRESET)
          end
          else begin
            if K.chaos_roll k ~site:"peer-stall" (chp k).peer_stall then begin
              let us =
                K.Faultgen.draw_us (K.chaos k) ~lo:1
                  ~hi:(max 1 (chp k).stall_us)
              in
              Socket.stall ep ~until:(Time.add (K.now k) (Time.us us))
            end;
            match sock_write k ep data with
            | Done (ret, op_cost) -> K.complete k lwp ~op_cost ret
            | Not_ready ->
                sleep_until k lwp ~wchan:"sock_write"
                  ~arm:(Readiness.wait (Socket.write_readiness ep))
                  (fun () -> sock_write k ep data)
          end
      | Some (Fd_sock_listen _) -> K.complete k lwp (R_err Errno.ENOTCONN)
      | Some (Fd_epoll _) -> K.complete k lwp (R_err Errno.EBADF))
  | Sys_lseek (fd, pos) -> (
      match lookup_fd proc fd with
      | Some (Fd_file f) ->
          f.pos <- pos;
          K.complete k lwp R_ok
      | Some
          (Fd_pipe_r _ | Fd_pipe_w _ | Fd_sock _ | Fd_sock_listen _
          | Fd_epoll _)
      | None ->
          K.complete k lwp (R_err Errno.EINVAL))
  | Sys_unlink path -> (
      match Fs.unlink k.fs path with
      | Ok () -> K.complete k lwp ~op_cost:c.Cost.fs_op R_ok
      | Error e -> K.complete k lwp (R_err e))
  | Sys_mmap { fd } -> (
      match lookup_fd proc fd with
      | Some (Fd_file f) ->
          let seg = Fs.segment f.file in
          proc.mappings <- seg :: proc.mappings;
          K.complete k lwp ~op_cost:c.Cost.fs_op (R_seg seg)
      | Some
          (Fd_pipe_r _ | Fd_pipe_w _ | Fd_sock _ | Fd_sock_listen _
          | Fd_epoll _)
      | None ->
          K.complete k lwp (R_err Errno.EBADF))
  | Sys_mmap_anon { size; shared } ->
      (* MAP_SHARED anon segments are system-wide objects (fork children
         alias them); MAP_PRIVATE ones are snapshot-cloned at fork. *)
      let seg = Shm.create ~name:"[anon]" ~size in
      if not shared then Shm.mark_anon_private seg;
      proc.mappings <- seg :: proc.mappings;
      K.complete k lwp ~op_cost:c.Cost.fs_op (R_seg seg)
  | Sys_munmap seg ->
      let seg = resolve_seg proc seg in
      let removed = ref false in
      proc.mappings <-
        List.filter
          (fun s ->
            if (not !removed) && s == seg then begin
              removed := true;
              false
            end
            else true)
          proc.mappings;
      K.complete k lwp (if !removed then R_ok else R_err Errno.EINVAL)
  | Sys_touch (seg, offset) ->
      let seg = resolve_seg proc seg in
      let page = Shm.page_of_offset ~offset in
      if page >= Shm.page_count seg then K.complete k lwp (R_err Errno.EINVAL)
      else if Shm.resident seg ~page then K.complete k lwp R_ok
      else begin
        (* Is the segment file-backed?  Then the fault reads from disk
           and blocks only this LWP. *)
        let file_backed =
          match Fs.lookup k.fs (Shm.name seg) with
          | Some file -> Fs.segment file == seg
          | None -> false
        in
        if file_backed then
          major_fault k lwp ~wchan:"pagefault" seg [ page ] (fun () -> R_ok)
        else begin
          proc.minflt <- proc.minflt + 1;
          Shm.make_resident seg ~page;
          K.complete k lwp ~op_cost:c.Cost.pagefault_service R_ok
        end
      end
  | Sys_pipe ->
      let p = Pipe.create () in
      let rfd = install_fd proc (Fd_pipe_r p) in
      let wfd = install_fd proc (Fd_pipe_w p) in
      K.complete k lwp ~op_cost:c.Cost.pipe_op (R_fds (rfd, wfd))
  | Sys_listen { name; backlog } -> (
      match Socket.listen k.sockets ~name ~backlog () with
      | Error `Addr_in_use -> K.complete k lwp (R_err Errno.EADDRINUSE)
      | Ok l ->
          let fd = install_fd proc (Fd_sock_listen l) in
          Machine.trace k.machine Tracebuf.Listen ~cpu:(-1) ~pid:proc.pid
            ~lwp:(-1) ~name ~name2:"" ~arg:fd ~arg2:backlog ~arg3:(-1);
          K.complete k lwp ~op_cost:c.Cost.sock_listen (R_int fd))
  | Sys_connect name ->
      (* Pay the client-side protocol processing, then wait out the
         handshake round trip.  Admission is decided when the SYN
         arrives at the listener — a connect racing a listen within one
         RTT therefore succeeds, and a full backlog refuses it. *)
      let cpu = K.cpu_of k lwp in
      K.busy k cpu lwp 0 c.Cost.sock_connect (fun () ->
          let sl =
            K.block k lwp ~wchan:"connect" ~interruptible:false
              ~indefinite:false
          in
          Sunos_hw.Devices.Net.request_response k.machine.Machine.net
            ~bytes_:64 ~on_complete:(fun () ->
              if sleep_live lwp sl then (
                let refused () =
                  K.trace_proc k Tracebuf.Connect_refused proc ~name
                    ~arg:(-1);
                  K.wake k lwp (R_err Errno.ECONNREFUSED)
                in
                if K.chaos_roll k ~site:"conn-refuse" (chp k).conn_refuse
                then refused ()
                else if
                  (* modelled as a SYN-queue overflow drop: the
                     admission never happens, the client sees a
                     refusal — distinguishable from conn-refuse only
                     by its fault counter *)
                  K.chaos_roll k ~site:"backlog-drop" (chp k).backlog_drop
                then refused ()
                else
                match Socket.lookup k.sockets name with
                | None -> refused ()
                | Some l -> (
                    match Socket.try_admit l ~net:k.machine.Machine.net with
                    | None -> refused ()
                    | Some client_ep ->
                        let fd = install_fd proc (Fd_sock client_ep) in
                        K.trace_proc k Tracebuf.Connect proc ~name ~arg:fd;
                        K.wake k lwp (R_int fd)))))
  | Sys_accept (fd, nonblock) -> (
      match lookup_fd proc fd with
      | Some (Fd_sock_listen l) ->
          if nonblock && K.chaos_roll k ~site:"eagain-sock" (chp k).eagain_sock
          then
            (* spurious not-ready: the connection (if any) stays pending,
               so the caller's next poll round collects it *)
            K.complete k lwp (R_err Errno.EAGAIN)
          else (
            match sock_accept k lwp l with
            | Done (ret, op_cost) -> K.complete k lwp ~op_cost ret
            | Not_ready when nonblock -> K.complete k lwp (R_err Errno.EAGAIN)
            | Not_ready ->
                sleep_until k lwp ~wchan:"accept"
                  ~arm:(Readiness.wait (Socket.accept_readiness l))
                  (fun () -> sock_accept k lwp l))
      | Some _ -> K.complete k lwp (R_err Errno.EINVAL)
      | None -> K.complete k lwp (R_err Errno.EBADF))
  | Sys_poll (fds, timeout) -> (
      let op_cost =
        Int64.add c.Cost.poll_fixed
          (Int64.mul c.Cost.poll_per_fd (Int64.of_int (List.length fds)))
      in
      match (poll_attempt proc fds ~op_cost, timeout) with
      | Done (ret, op_cost), _ -> K.complete k lwp ~op_cost ret
      | Not_ready, Some t when Time.(t <= 0L) ->
          K.complete k lwp ~op_cost (R_poll [])
      | Not_ready, _ -> (
          sleep_until k lwp ~wchan:"poll" ~arm:(arm_poll proc fds) (fun () ->
              poll_attempt proc fds ~op_cost);
          match timeout with
          | Some t -> K.set_sleep_timeout k lwp t (R_poll [])
          | None -> ()))
  | Sys_epoll_create ->
      let ep = Epoll.create ~id:proc.next_fd in
      let fd = install_fd proc (Fd_epoll ep) in
      K.trace_proc k Tracebuf.Epoll_create proc ~name:"" ~arg:fd;
      K.complete k lwp ~op_cost:c.Cost.sock_op (R_int fd)
  | Sys_epoll_ctl (epfd, fd, op) -> (
      match lookup_fd proc epfd with
      | Some (Fd_epoll ep) when not (Epoll.closed ep) -> (
          match op with
          | Ep_add { want_in; want_out; oneshot } -> (
              match Epoll.find ep fd with
              | Some _ -> K.complete k lwp (R_err Errno.EEXIST)
              | None -> (
                  match lookup_fd proc fd with
                  | None -> K.complete k lwp (R_err Errno.EBADF)
                  | Some o ->
                      let e =
                        Epoll.register ep ~fd ~want_in ~want_out ~oneshot
                      in
                      if epoll_attach ep e o then begin
                        (* arm-time level check: interest added on an
                           already-ready object queues immediately —
                           the edge happened before we were listening *)
                        if
                          (want_in && in_ready o)
                          || (want_out && out_ready o)
                        then Epoll.note_edge ep e;
                        K.complete k lwp ~op_cost:c.Cost.sock_op R_ok
                      end
                      else begin
                        Epoll.kill_entry ep e;
                        K.complete k lwp (R_err Errno.EINVAL)
                      end))
          | Ep_mod { want_in; want_out; oneshot } -> (
              match Epoll.find ep fd with
              | None -> K.complete k lwp (R_err Errno.ENOENT)
              | Some e -> (
                  match lookup_fd proc fd with
                  | None ->
                      Epoll.kill_entry ep e;
                      K.complete k lwp (R_err Errno.EBADF)
                  | Some o ->
                      e.Epoll.e_want_in <- want_in;
                      e.Epoll.e_want_out <- want_out;
                      e.Epoll.e_oneshot <- oneshot;
                      e.Epoll.e_armed <- true;
                      ignore (epoll_attach ep e o : bool);
                      (* re-arm level check: an edge swallowed while the
                         entry was disarmed must resurface now, or a
                         ONESHOT consumer that drained to EAGAIN after
                         new data arrived would sleep forever *)
                      if
                        (want_in && in_ready o)
                        || (want_out && out_ready o)
                      then Epoll.note_edge ep e;
                      K.complete k lwp ~op_cost:c.Cost.sock_op R_ok))
          | Ep_del -> (
              match Epoll.find ep fd with
              | None -> K.complete k lwp (R_err Errno.ENOENT)
              | Some e ->
                  Epoll.kill_entry ep e;
                  K.complete k lwp ~op_cost:c.Cost.sock_op R_ok))
      | Some _ | None -> K.complete k lwp (R_err Errno.EBADF))
  | Sys_epoll_wait (epfd, maxev, timeout) -> (
      match lookup_fd proc epfd with
      | Some (Fd_epoll ep) -> (
          let maxev = max 1 maxev in
          match (epoll_attempt k proc ep ~maxev, timeout) with
          | Done (ret, op_cost), _ -> K.complete k lwp ~op_cost ret
          | Not_ready, Some t when Time.(t <= 0L) ->
              K.complete k lwp ~op_cost:c.Cost.poll_fixed (R_poll [])
          | Not_ready, _ -> (
              sleep_until k lwp ~wchan:"epoll"
                ~arm:(Readiness.wait (Epoll.readiness ep))
                (fun () -> epoll_attempt k proc ep ~maxev);
              match timeout with
              | Some t -> K.set_sleep_timeout k lwp t (R_poll [])
              | None -> ()))
      | Some _ | None -> K.complete k lwp (R_err Errno.EBADF))
  | Sys_kill (pid, signo) -> (
      match K.find_proc k pid with
      | Some target ->
          Sig.post_proc k target signo;
          K.complete k lwp ~op_cost:c.Cost.signal_post R_ok
      | None -> K.complete k lwp (R_err Errno.ESRCH))
  | Sys_lwp_kill (lid, signo) -> (
      match K.find_lwp proc lid with
      | Some target ->
          Sig.post_lwp k target signo;
          K.complete k lwp ~op_cost:c.Cost.signal_post R_ok
      | None -> K.complete k lwp (R_err Errno.ESRCH))
  | Sys_sigaction (signo, disp) ->
      if signo = Signo.sigkill || signo = Signo.sigstop then
        K.complete k lwp (R_err Errno.EINVAL)
      else begin
        let old = proc.handlers.(signo) in
        proc.handlers.(signo) <- disp;
        K.complete k lwp (R_disp old)
      end
  | Sys_sigprocmask (how, set) ->
      lwp.sigmask <- Sigset.apply how set ~old:lwp.sigmask;
      Sig.mask_changed k lwp;
      K.complete k lwp R_ok
  | Sys_sigaltstack _ -> K.complete k lwp R_ok
  | Sys_sig_pickup ->
      let sigs = Sig.pickup k lwp in
      let op_cost =
        Int64.mul c.Cost.signal_deliver (Int64.of_int (List.length sigs))
      in
      K.complete k lwp ~op_cost (R_sigs sigs)
  | Sys_trap signo -> (
      (* synchronous fault: handled only by the faulting thread *)
      match proc.handlers.(signo) with
      | Sig_handler _ as d ->
          K.complete k lwp ~op_cost:c.Cost.signal_deliver (R_sigs [ (signo, d) ])
      | Sig_ignore -> K.complete k lwp R_ok
      | Sig_default ->
          Sig.default_action k proc signo;
          K.complete k lwp R_ok (* no-op if the action killed us *))
  | Sys_lwp_create { entry; cls } ->
      if K.chaos_roll k ~site:"enomem-lwp" (chp k).enomem_lwp then
        (* transient kernel memory pressure: the caller is expected to
           back off and retry (see Pool.grow_pool) *)
        K.complete k lwp (R_err Errno.ENOMEM)
      else
        let cls =
          match cls with
          | None | Some Cls_timeshare -> Sc_timeshare { ts_pri = 29 }
          | Some (Cls_realtime p) -> Sc_realtime p
          | Some (Cls_gang g) -> Sc_gang g
        in
        let nlwp = K.spawn_lwp k proc ~entry ~cls in
        K.complete k lwp ~op_cost:c.Cost.lwp_create (R_int nlwp.lid)
  | Sys_lwp_exit ->
      (* charge the destruction before the LWP disappears *)
      let cpu = K.cpu_of k lwp in
      K.busy k cpu lwp 0 c.Cost.lwp_destroy (fun () ->
          K.lwp_exit_internal k lwp)
  | Sys_lwp_park timeout ->
      if lwp.park_token then begin
        lwp.park_token <- false;
        K.complete k lwp ~op_cost:c.Cost.sleep_enqueue R_ok
      end
      else begin
        (* pay for the sleep-queue insertion before giving up the CPU *)
        let cpu = K.cpu_of k lwp in
        K.busy k cpu lwp 0 c.Cost.sleep_enqueue (fun () ->
            (* an unpark may have landed during the enqueue interval: it
               saw parked=false and left a token.  Consume it instead of
               blocking, or the wakeup is lost for good — nothing ever
               re-examines the token once the LWP is asleep. *)
            if lwp.park_token then begin
              lwp.park_token <- false;
              K.complete k lwp R_ok
            end
            else if
              (* chaos: asynchronous LWP death, injected at the moment
                 the LWP would go idle — the paper's SIGWAITING story is
                 that the pool recovers by growing a replacement.  Only
                 with a sibling alive (killing the last LWP kills the
                 process: that is Sys_exit, not a recoverable fault),
                 and only after the token re-check so no wakeup is
                 owed to the dying LWP. *)
              other_live lwp
              && K.chaos_roll k ~site:"lwp-reap" (chp k).lwp_reap
            then begin
              K.trace_lwp k Tracebuf.Lwp_reap lwp ~name:"" ~arg:(-1);
              K.lwp_exit_internal k lwp
            end
            else begin
              ignore
                (K.block k lwp ~wchan:"lwp_park" ~interruptible:true
                   ~indefinite:(timeout = None)
                  : sleep);
              match timeout with
              | Some t ->
                  K.set_sleep_timeout k lwp t (R_err Errno.ETIMEDOUT)
              | None -> ()
            end)
      end
  | Sys_lwp_unpark lid -> (
      match K.find_lwp proc lid with
      | None -> K.complete k lwp (R_err Errno.ESRCH)
      | Some target ->
          if parked target then K.wake k target R_ok
          else target.park_token <- true;
          (* unpark = dequeue from the park sleep queue + generic wakeup *)
          K.complete k lwp
            ~op_cost:(Int64.add c.Cost.wakeup c.Cost.sleep_enqueue)
            R_ok)
  | Sys_kwait { seg; offset; timeout; expect } -> (
      (* futex compare: evaluated atomically here, before sleeping *)
      match expect with
      | Some p when not (p ()) ->
          K.complete k lwp ~op_cost:c.Cost.kwait_fixed R_ok
      | Some _ | None ->
          let seg = resolve_seg proc seg in
          let key = (Shm.id seg, offset) in
          let ch =
            match Hashtbl.find_opt k.futex key with
            | Some ch -> ch
            | None ->
                let ch =
                  { fc_name = Shm.name seg; fc_waiters = Queue.create () }
                in
                Hashtbl.replace k.futex key ch;
                ch
          in
          let sl =
            K.block k lwp ~wchan:"kwait" ~interruptible:true ~indefinite:true
          in
          Queue.add { fw_lwp = lwp; fw_sleep = sl } ch.fc_waiters;
          (match timeout with
          | Some t -> K.set_sleep_timeout k lwp t (R_err Errno.ETIMEDOUT)
          | None -> ()))
  | Sys_kwake { seg; offset; count } ->
      let seg = resolve_seg proc seg in
      let woken = K.futex_wake k ~seg_id:(Shm.id seg) ~offset ~count in
      (* a futex wake is a directed handoff straight onto the run queue:
         its cost is folded into the fixed part *)
      K.complete k lwp ~op_cost:c.Cost.kwake_fixed (R_int woken)
  | Sys_setitimer (which, span) -> (
      match which with
      | Timer_real ->
          (match proc.rtimer with
          | Some h -> Sunos_sim.Eventq.cancel h
          | None -> ());
          proc.rtimer <- None;
          (match span with
          | Some t ->
              (* chaos: clock jitter delivers the tick late (never
                 early — a timer that fires before its deadline would
                 violate itimer semantics, not just degrade them) *)
              let t =
                if K.chaos_roll k ~site:"timer-jitter" (chp k).timer_jitter
                then
                  Time.add t
                    (Time.us
                       (K.Faultgen.draw_us (K.chaos k) ~lo:1
                          ~hi:(max 1 (chp k).jitter_us)))
                else t
              in
              let h =
                Sunos_sim.Eventq.after k.machine.Machine.eventq t (fun () ->
                    proc.rtimer <- None;
                    Sig.post_proc k proc Signo.sigalrm)
              in
              proc.rtimer <- Some h
          | None -> ());
          K.complete k lwp R_ok
      | Timer_virtual ->
          lwp.vtimer_left <- span;
          K.complete k lwp R_ok
      | Timer_prof ->
          lwp.ptimer_left <- span;
          K.complete k lwp R_ok)
  | Sys_priocntl cls_req ->
      K.gang_remove k lwp;
      (lwp.cls <-
        (match cls_req with
        | Cls_timeshare -> Sc_timeshare { ts_pri = 29 }
        | Cls_realtime p -> Sc_realtime p
        | Cls_gang g -> Sc_gang g));
      K.gang_add k lwp;
      K.complete k lwp R_ok
  | Sys_processor_bind cpu_opt -> (
      match cpu_opt with
      | Some cid when cid < 0 || cid >= Array.length k.machine.Machine.cpus ->
          K.complete k lwp (R_err Errno.EINVAL)
      | _ ->
          lwp.bound_cpu <- cpu_opt;
          K.complete k lwp R_ok)
  | Sys_getrusage ->
      let utime, stime = cpu_times proc in
      K.complete k lwp
        (R_rusage
           {
             ru_utime = Int64.of_int utime;
             ru_stime = Int64.of_int stime;
             ru_nlwps = List.length proc.lwps;
             ru_minflt = proc.minflt;
             ru_majflt = proc.majflt;
           })
  | Sys_setrlimit_cpu span ->
      proc.cpu_limit <- span;
      K.complete k lwp R_ok
  | Sys_set_resume_hook { hook; lib } ->
      lwp.on_resume <- hook;
      proc.lib <- Some lib;
      K.complete k lwp R_ok
  | Sys_upcall_on_block entry ->
      proc.activations <- Some entry;
      K.complete k lwp R_ok

let install k = k.syscall_exec <- execute k
