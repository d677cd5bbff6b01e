module Time = Sunos_sim.Time
open Sysdefs

type _ Effect.t +=
  | Charge : Time.span -> bool Effect.t
  | Sys : sysreq -> sysret Effect.t

type step =
  | Step_done
  | Step_raised of exn * Printexc.raw_backtrace
  | Step_charge of Time.span * (bool, step) Effect.Deep.continuation
  | Step_sys of sysreq * (sysret, step) Effect.Deep.continuation

exception Process_killed

let run_fiber f =
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun () -> Step_done);
      exnc =
        (fun e ->
          let bt = Printexc.get_raw_backtrace () in
          Step_raised (e, bt));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Charge span ->
              Some
                (fun (k : (a, step) continuation) -> Step_charge (span, k))
          | Sys req ->
              Some (fun (k : (a, step) continuation) -> Step_sys (req, k))
          | _ -> None);
    }

(* ------------------------------------------------------------------ *)
(* Run-ahead accounting ledger                                         *)
(* ------------------------------------------------------------------ *)

(* When the kernel resumes a fiber it may [grant] a time budget bounded
   by the event queue's next pending event (no event — hence no
   simulated observer — can fire inside the window).  [charge] then
   accumulates spans here instead of performing an effect per call; the
   kernel collects the balance with [unsettled] at the next step and
   accounts it (see [Kernel_impl.step]).  Every grant also hands over
   the machine's cost model, which [cost] returns to user code.  One
   ledger per domain: only one fiber runs per domain at a time (the
   whole simulated machine is single-threaded), and domain-local state
   keeps the [-j N] bench runner's machines independent.  The amounts
   are int nanoseconds, so an update stores an immediate: no boxed
   int64, no write barrier. *)
type ledger = {
  mutable lg_active : bool;  (* a grant is open *)
  mutable lg_budget : int;  (* size of the open grant, ns *)
  mutable lg_acc : int;  (* coalesced-but-unsettled charge total, ns *)
  mutable lg_cost : Sunos_hw.Cost_model.t;  (* the granting machine's *)
}

let ledger_key =
  Domain.DLS.new_key (fun () ->
      { lg_active = false; lg_budget = 0; lg_acc = 0;
        lg_cost = Sunos_hw.Cost_model.default })

(* The cost model changes only when another machine runs in this
   domain: compare first, so the common grant stores no pointer. *)
let grant ~cost ~budget =
  let l = Domain.DLS.get ledger_key in
  if l.lg_cost != cost then l.lg_cost <- cost;
  if budget > 0 then begin
    l.lg_active <- true;
    l.lg_budget <- budget;
    l.lg_acc <- 0
  end
  else begin
    (* Zero budget: coalescing off for this window; charges perform
       effects directly, exactly as before run-ahead existed. *)
    l.lg_active <- false;
    l.lg_acc <- 0
  end

let cost () = (Domain.DLS.get ledger_key).lg_cost

let unsettled () =
  let l = Domain.DLS.get ledger_key in
  let acc = l.lg_acc in
  l.lg_active <- false;
  l.lg_acc <- 0;
  acc

(* ------------------------------------------------------------------ *)
(* Typed wrappers                                                      *)
(* ------------------------------------------------------------------ *)

let syscall req = Effect.perform (Sys req)

let fail call = function
  | R_err e -> raise (Errno.Unix_error (e, call))
  | r ->
      invalid_arg
        (Format.asprintf "unexpected sysret for %s: %a" call pp_sysret r)

(* Deliverable-signal pickup: the return-to-user-mode delivery point.
   Handlers run right here in the calling fiber, so they may themselves
   charge, block and make system calls.  Default/ignore dispositions were
   already resolved kernel-side; only real handlers reach us. *)
let rec checkpoint () =
  match syscall Sys_sig_pickup with
  | R_sigs [] -> ()
  | R_sigs sigs ->
      List.iter
        (fun (signo, disp) ->
          match disp with
          | Sig_handler h -> h signo
          | Sig_default | Sig_ignore -> ())
        sigs;
      checkpoint ()
  | r -> fail "sig_pickup" r

(* Coalescing fast path: while a grant is open and this span keeps the
   running total strictly under the budget, just add it to the ledger —
   no effect, no event, no allocation.  The span that would reach the
   budget closes the grant and is performed as the effect itself (the
   coalesced prefix stays in the ledger for the kernel to settle first),
   so the performing charge sees exactly the quantum/preemption/signal
   treatment it always did.  Zero spans never coalesce: under
   [Cost_model.free] every charge must still yield to same-time pending
   events, as it always has.  (A span beyond max_int ns reads negative
   as an int, so it performs too, and the event queue rejects it.) *)
let charge span =
  let l = Domain.DLS.get ledger_key in
  if l.lg_active && Time.(span > 0L) then begin
    let ns = Int64.to_int span in
    if ns > 0 && ns < l.lg_budget - l.lg_acc then l.lg_acc <- l.lg_acc + ns
    else begin
      l.lg_active <- false;
      if Effect.perform (Charge span) then checkpoint ()
    end
  end
  else if Effect.perform (Charge span) then checkpoint ()
let charge_us n = charge (Time.us n)

let getpid () =
  match syscall Sys_getpid with R_int p -> p | r -> fail "getpid" r

let getlwpid () =
  match syscall Sys_getlwpid with R_int l -> l | r -> fail "getlwpid" r

let gettime () =
  match syscall Sys_gettime with R_time t -> t | r -> fail "gettime" r

let exit code =
  ignore (syscall (Sys_exit code));
  (* The kernel never resumes an exiting LWP. *)
  assert false

let fork ~child_main =
  match syscall (Sys_fork { child_main; all_lwps = true }) with
  | R_int pid -> pid
  | r -> fail "fork" r

let fork1 ~child_main =
  match syscall (Sys_fork { child_main; all_lwps = false }) with
  | R_int pid -> pid
  | r -> fail "fork1" r

let exec ~name ~main =
  ignore (syscall (Sys_exec { name; main }));
  assert false

let rec waitpid ?pid () =
  match syscall (Sys_waitpid pid) with
  | R_wait (p, status) -> (p, status)
  | R_err Errno.EINTR ->
      checkpoint ();
      waitpid ?pid ()
  | r -> fail "waitpid" r

(* SA_RESTART-style sleep: signal handlers (including the library's
   internal SIGWAITING growth) run and the sleep resumes for the
   remaining time, so library-internal signals never truncate
   application sleeps. *)
let sleep span =
  let deadline = Time.add (gettime ()) span in
  let rec go () =
    let now = gettime () in
    if Time.(now < deadline) then
      match syscall (Sys_nanosleep (Time.diff deadline now)) with
      | R_ok -> ()
      | R_err Errno.EINTR ->
          checkpoint ();
          go ()
      | r -> fail "nanosleep" r
  in
  go ()

let open_file ?(flags = [ O_RDWR; O_CREAT ]) path =
  match syscall (Sys_open (path, flags)) with
  | R_int fd -> fd
  | r -> fail "open" r

let close fd =
  match syscall (Sys_close fd) with R_ok -> () | r -> fail "close" r

let rec read fd ~len =
  match syscall (Sys_read (fd, len)) with
  | R_bytes s -> s
  | R_err Errno.EINTR ->
      checkpoint ();
      read fd ~len
  | r -> fail "read" r

let rec write fd data =
  match syscall (Sys_write (fd, data)) with
  | R_int n -> n
  | R_err Errno.EINTR ->
      checkpoint ();
      write fd data
  | r -> fail "write" r

let lseek fd pos =
  match syscall (Sys_lseek (fd, pos)) with R_ok -> () | r -> fail "lseek" r

let unlink path =
  match syscall (Sys_unlink path) with R_ok -> () | r -> fail "unlink" r

let pipe () =
  match syscall Sys_pipe with R_fds (r, w) -> (r, w) | r -> fail "pipe" r

let listen ~name ~backlog =
  match syscall (Sys_listen { name; backlog }) with
  | R_int fd -> fd
  | r -> fail "listen" r

let rec connect name =
  match syscall (Sys_connect name) with
  | R_int fd -> fd
  | R_err Errno.EINTR ->
      checkpoint ();
      connect name
  | r -> fail "connect" r

let rec accept fd =
  match syscall (Sys_accept (fd, false)) with
  | R_int nfd -> nfd
  | R_err Errno.EINTR ->
      checkpoint ();
      accept fd
  | r -> fail "accept" r

(* Non-blocking results are a closed variant, not an option: "not ready
   now", "closed for good" and "torn down" demand different reactions
   (retry later / stop / error path), and an option collapses them. *)
let accept_nb fd =
  match syscall (Sys_accept (fd, true)) with
  | R_int nfd -> `Conn nfd
  | R_err Errno.EAGAIN -> `Again
  | R_err Errno.ECONNABORTED -> `Aborted
  | r -> fail "accept_nb" r

let try_read fd ~len =
  match syscall (Sys_read_nb (fd, len)) with
  | R_bytes "" -> `Eof
  | R_bytes s -> `Data s
  | R_err Errno.EAGAIN -> `Again
  | R_err Errno.ECONNRESET -> `Reset
  | r -> fail "try_read" r

let note_shed () =
  match syscall Sys_note_shed with R_ok -> () | r -> fail "note_shed" r

(* Stream helpers: a bounded-buffer write can accept a prefix and a read
   can return one, so framed protocols loop. *)
let rec write_all fd data =
  if String.length data > 0 then begin
    let n = write fd data in
    write_all fd (String.sub data n (String.length data - n))
  end

(* Read exactly [len] bytes; a short return means EOF truncated the
   frame (callers validate the length). *)
let rec read_exact fd ~len =
  if len = 0 then ""
  else
    let chunk = read fd ~len in
    if chunk = "" then ""
    else if String.length chunk >= len then chunk
    else chunk ^ read_exact fd ~len:(len - String.length chunk)

let rec poll ?timeout fds =
  match syscall (Sys_poll (fds, timeout)) with
  | R_poll ready -> ready
  | R_err Errno.EINTR ->
      checkpoint ();
      poll ?timeout fds
  | r -> fail "poll" r

let epoll_create () =
  match syscall Sys_epoll_create with
  | R_int fd -> fd
  | r -> fail "epoll_create" r

let epoll_add epfd fd ?(want_in = false) ?(want_out = false)
    ?(oneshot = false) () =
  match syscall (Sys_epoll_ctl (epfd, fd, Ep_add { want_in; want_out; oneshot }))
  with
  | R_ok -> ()
  | r -> fail "epoll_add" r

let epoll_mod epfd fd ?(want_in = false) ?(want_out = false)
    ?(oneshot = false) () =
  match syscall (Sys_epoll_ctl (epfd, fd, Ep_mod { want_in; want_out; oneshot }))
  with
  | R_ok -> ()
  | r -> fail "epoll_mod" r

let epoll_del epfd fd =
  match syscall (Sys_epoll_ctl (epfd, fd, Ep_del)) with
  | R_ok -> ()
  | r -> fail "epoll_del" r

let rec epoll_wait ?timeout epfd ~max_events =
  match syscall (Sys_epoll_wait (epfd, max_events, timeout)) with
  | R_poll ready -> ready
  | R_err Errno.EINTR ->
      checkpoint ();
      epoll_wait ?timeout epfd ~max_events
  | r -> fail "epoll_wait" r

let mmap fd =
  match syscall (Sys_mmap { fd }) with R_seg s -> s | r -> fail "mmap" r

let mmap_anon ~size ~shared =
  match syscall (Sys_mmap_anon { size; shared }) with
  | R_seg s -> s
  | r -> fail "mmap_anon" r

let munmap seg =
  match syscall (Sys_munmap seg) with R_ok -> () | r -> fail "munmap" r

let touch seg ~offset =
  match syscall (Sys_touch (seg, offset)) with
  | R_ok -> ()
  | r -> fail "touch" r

let kill ~pid signo =
  match syscall (Sys_kill (pid, signo)) with R_ok -> () | r -> fail "kill" r

let lwp_kill ~lwpid signo =
  match syscall (Sys_lwp_kill (lwpid, signo)) with
  | R_ok -> ()
  | r -> fail "lwp_kill" r

let sigaction signo disp =
  match syscall (Sys_sigaction (signo, disp)) with
  | R_disp old -> old
  | r -> fail "sigaction" r

let sigprocmask how set =
  match syscall (Sys_sigprocmask (how, set)) with
  | R_ok -> checkpoint () (* unblocking may make pended signals deliverable *)
  | r -> fail "sigprocmask" r

let trap signo =
  match syscall (Sys_trap signo) with
  | R_sigs sigs ->
      List.iter
        (fun (s, disp) ->
          match disp with
          | Sig_handler h -> h s
          | Sig_default | Sig_ignore -> ())
        sigs
  | R_ok -> ()
  | r -> fail "trap" r

let lwp_create ?cls ~entry () =
  match syscall (Sys_lwp_create { entry; cls }) with
  | R_int lid -> lid
  | r -> fail "lwp_create" r

let lwp_exit () =
  ignore (syscall Sys_lwp_exit);
  assert false

let lwp_park ?timeout () =
  match syscall (Sys_lwp_park timeout) with
  | R_ok -> `Parked
  | R_err Errno.ETIMEDOUT -> `Timeout
  | R_err Errno.EINTR ->
      checkpoint ();
      `Parked (* spurious return; parkers re-check their predicate *)
  | r -> fail "lwp_park" r

let lwp_unpark lid =
  match syscall (Sys_lwp_unpark lid) with
  | R_ok -> ()
  | r -> fail "lwp_unpark" r

let kwait ~seg ~offset ?timeout ?expect () =
  match syscall (Sys_kwait { seg; offset; timeout; expect }) with
  | R_ok -> `Woken
  | R_err Errno.ETIMEDOUT -> `Timeout
  | R_err Errno.EINTR ->
      checkpoint ();
      `Woken (* spurious; callers re-check *)
  | r -> fail "kwait" r

let kwake ~seg ~offset ~count =
  match syscall (Sys_kwake { seg; offset; count }) with
  | R_int n -> n
  | r -> fail "kwake" r

let setitimer which span =
  match syscall (Sys_setitimer (which, span)) with
  | R_ok -> ()
  | r -> fail "setitimer" r

let priocntl cls =
  match syscall (Sys_priocntl cls) with R_ok -> () | r -> fail "priocntl" r

let processor_bind cpu =
  match syscall (Sys_processor_bind cpu) with
  | R_ok -> ()
  | r -> fail "processor_bind" r

let getrusage () =
  match syscall Sys_getrusage with
  | R_rusage ru -> ru
  | r -> fail "getrusage" r

let setrlimit_cpu span =
  match syscall (Sys_setrlimit_cpu span) with
  | R_ok -> ()
  | r -> fail "setrlimit_cpu" r

let set_resume_hook ~lib hook =
  match syscall (Sys_set_resume_hook { hook; lib }) with
  | R_ok -> ()
  | r -> fail "set_resume_hook" r

let upcall_on_block entry =
  match syscall (Sys_upcall_on_block entry) with
  | R_ok -> ()
  | r -> fail "upcall_on_block" r
