(* Integration tests of the kernel substrate: the fiber machinery,
   dispatcher, blocking syscalls, signals, fork/exec, faults, timers. *)

module Time = Sunos_sim.Time
module Eventq = Sunos_sim.Eventq
module Machine = Sunos_hw.Machine
module Cost = Sunos_hw.Cost_model
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Sysdefs = Sunos_kernel.Sysdefs
module Signo = Sunos_kernel.Signo
module Sigset = Sunos_kernel.Sigset
module Procfs = Sunos_kernel.Procfs
module Ktypes = Sunos_kernel.Ktypes

let span = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal
let _ = span

(* ------------------------------------------------------------------ *)

let test_spawn_run_exit () =
  let k = Kernel.boot () in
  let ran = ref false in
  let pid =
    Kernel.spawn k ~name:"hello" ~main:(fun () ->
        Uctx.charge_us 100;
        ran := true;
        Uctx.exit 7)
  in
  Kernel.run k;
  Alcotest.(check bool) "main ran" true !ran;
  Alcotest.(check (option int)) "exit status" (Some 7) (Kernel.exit_status k pid);
  Alcotest.(check bool) "time advanced" true Time.(Kernel.now k > 0L)

let test_main_return_is_exit0 () =
  let k = Kernel.boot () in
  let pid = Kernel.spawn k ~name:"ret" ~main:(fun () -> Uctx.charge_us 10) in
  Kernel.run k;
  Alcotest.(check (option int)) "status 0" (Some 0) (Kernel.exit_status k pid)

let test_getpid_getlwpid () =
  let k = Kernel.boot () in
  let seen = ref (0, 0) in
  let pid =
    Kernel.spawn k ~name:"id" ~main:(fun () ->
        seen := (Uctx.getpid (), Uctx.getlwpid ()))
  in
  Kernel.run k;
  Alcotest.(check int) "pid matches" pid (fst !seen);
  Alcotest.(check int) "first lwp id" 1 (snd !seen)

let test_charge_advances_time () =
  let k = Kernel.boot () in
  let t = ref Time.zero in
  ignore
    (Kernel.spawn k ~name:"t" ~main:(fun () ->
         Uctx.charge (Time.ms 5);
         t := Uctx.gettime ()));
  Kernel.run k;
  Alcotest.(check bool) "at least 5ms" true Time.(!t >= Time.ms 5)

let test_uniprocessor_interleaves () =
  (* two CPU hogs on one CPU: both make progress via quantum preemption *)
  let k = Kernel.boot ~cpus:1 () in
  let log = ref [] in
  let hog tag () =
    for _ = 1 to 5 do
      Uctx.charge (Time.ms 60);
      log := tag :: !log
    done
  in
  ignore (Kernel.spawn k ~name:"a" ~main:(hog "a"));
  ignore (Kernel.spawn k ~name:"b" ~main:(hog "b"));
  Kernel.run k;
  let l = List.rev !log in
  Alcotest.(check int) "all slices" 10 (List.length l);
  (* the interleaving must not be a-a-a-a-a then b-b-b-b-b *)
  let first_five = List.filteri (fun i _ -> i < 5) l in
  Alcotest.(check bool) "interleaved" true
    (List.exists (fun x -> x = "b") first_five);
  Alcotest.(check bool) "preemptions happened" true
    (Kernel.preemption_count k > 0)

let test_multiprocessor_parallelism () =
  (* same work on 1 vs 2 CPUs: 2 CPUs should be nearly twice as fast *)
  let work k =
    ignore (Kernel.spawn k ~name:"a" ~main:(fun () -> Uctx.charge (Time.ms 500)));
    ignore (Kernel.spawn k ~name:"b" ~main:(fun () -> Uctx.charge (Time.ms 500)));
    Kernel.run k;
    Kernel.now k
  in
  let t1 = work (Kernel.boot ~cpus:1 ()) in
  let t2 = work (Kernel.boot ~cpus:2 ()) in
  Alcotest.(check bool) "2 cpus meaningfully faster" true
    (Time.to_ms t2 < Time.to_ms t1 *. 0.7)

let test_nanosleep () =
  let k = Kernel.boot () in
  let woke = ref Time.zero in
  ignore
    (Kernel.spawn k ~name:"sleeper" ~main:(fun () ->
         Uctx.sleep (Time.ms 50);
         woke := Uctx.gettime ()));
  Kernel.run k;
  Alcotest.(check bool) "slept >= 50ms" true Time.(!woke >= Time.ms 50);
  Alcotest.(check bool) "but not 2x" true (Time.to_ms !woke < 100.)

(* ------------------------- LWPs ------------------------- *)

let test_lwp_create_and_shared_memory () =
  let k = Kernel.boot ~cpus:2 () in
  let r = ref 0 in
  ignore
    (Kernel.spawn k ~name:"multi" ~main:(fun () ->
         let _lid =
           Uctx.lwp_create
             ~entry:(fun () ->
               Uctx.charge_us 10;
               r := !r + 41)
             ()
         in
         Uctx.charge_us 200;
         (* both LWPs share the address space: the ref is visible *)
         r := !r + 1));
  Kernel.run k;
  Alcotest.(check int) "both updates" 42 !r;
  Alcotest.(check bool) "lwp_create counted" true (Kernel.lwp_create_count k >= 2)

let test_lwp_blocking_syscall_does_not_block_process () =
  (* one LWP sleeps on a pipe read; the other keeps computing *)
  let k = Kernel.boot ~cpus:1 () in
  let progressed = ref false and got = ref "" in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let rfd, wfd = Uctx.pipe () in
         ignore
           (Uctx.lwp_create
              ~entry:(fun () -> got := Uctx.read rfd ~len:100)
              ());
         Uctx.charge (Time.ms 2);
         progressed := true;
         ignore (Uctx.write wfd "ping")));
  Kernel.run k;
  Alcotest.(check bool) "other LWP progressed" true !progressed;
  Alcotest.(check string) "reader woke with data" "ping" !got

let test_lwp_park_unpark () =
  let k = Kernel.boot ~cpus:2 () in
  let woke = ref false in
  ignore
    (Kernel.spawn k ~name:"park" ~main:(fun () ->
         let parker = ref 0 in
         let lid =
           Uctx.lwp_create
             ~entry:(fun () ->
               parker := Uctx.getlwpid ();
               (match Uctx.lwp_park () with `Parked | `Timeout -> ());
               woke := true)
             ()
         in
         Uctx.charge (Time.ms 1);
         Uctx.lwp_unpark lid));
  Kernel.run k;
  Alcotest.(check bool) "parked LWP woken" true !woke

let test_lwp_unpark_token_before_park () =
  let k = Kernel.boot ~cpus:1 () in
  let result = ref `Timeout in
  ignore
    (Kernel.spawn k ~name:"token" ~main:(fun () ->
         let lid = Uctx.getlwpid () in
         Uctx.lwp_unpark lid;
         (* token pending: park returns immediately *)
         result := Uctx.lwp_park ~timeout:(Time.ms 1) ()));
  Kernel.run k;
  Alcotest.(check bool) "immediate park" true (!result = `Parked)

let test_lwp_park_timeout () =
  let k = Kernel.boot () in
  let result = ref `Parked in
  ignore
    (Kernel.spawn k ~name:"pt" ~main:(fun () ->
         result := Uctx.lwp_park ~timeout:(Time.ms 5) ()));
  Kernel.run k;
  Alcotest.(check bool) "timed out" true (!result = `Timeout)

(* ------------------------- fork / exec / wait ------------------------- *)

let test_fork1_and_waitpid () =
  let k = Kernel.boot () in
  let child_ran = ref false and reaped = ref (0, 0) in
  ignore
    (Kernel.spawn k ~name:"parent" ~main:(fun () ->
         let cpid =
           Uctx.fork1 ~child_main:(fun () ->
               child_ran := true;
               Uctx.exit 3)
         in
         let pid, status = Uctx.waitpid () in
         Alcotest.(check int) "waited right child" cpid pid;
         reaped := (pid, status)));
  Kernel.run k;
  Alcotest.(check bool) "child ran" true !child_ran;
  Alcotest.(check int) "status" 3 (snd !reaped)

let test_fork_costs_more_than_fork1 () =
  (* a process with several LWPs: fork() duplicates them (cost-wise),
     fork1() doesn't *)
  let measure use_fork =
    let k = Kernel.boot () in
    let elapsed = ref 0L in
    ignore
      (Kernel.spawn k ~name:"forker" ~main:(fun () ->
           for _ = 1 to 4 do
             ignore
               (Uctx.lwp_create
                  ~entry:(fun () ->
                    match Uctx.lwp_park () with `Parked | `Timeout -> ())
                  ())
           done;
           Uctx.charge_us 10;
           let t0 = Uctx.gettime () in
           let f = if use_fork then Uctx.fork else Uctx.fork1 in
           ignore (f ~child_main:(fun () -> Uctx.exit 0));
           elapsed := Time.diff (Uctx.gettime ()) t0;
           Uctx.exit 0));
    Kernel.run k;
    !elapsed
  in
  let t_fork = measure true and t_fork1 = measure false in
  Alcotest.(check bool) "fork > 2x fork1" true
    (Int64.to_float t_fork > 2. *. Int64.to_float t_fork1)

let test_fork_interrupts_other_lwps () =
  let k = Kernel.boot ~cpus:2 () in
  let interrupted = ref false in
  ignore
    (Kernel.spawn k ~name:"f" ~main:(fun () ->
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                (* raw syscall so we can observe EINTR directly *)
                match Uctx.syscall (Sysdefs.Sys_nanosleep (Time.s 10)) with
                | Sysdefs.R_err Sunos_kernel.Errno.EINTR -> interrupted := true
                | _ -> ())
              ());
         Uctx.charge (Time.ms 1);
         ignore (Uctx.fork ~child_main:(fun () -> Uctx.exit 0));
         ignore (Uctx.waitpid ())));
  Kernel.run k;
  Alcotest.(check bool) "sibling EINTR'd by fork" true !interrupted

let test_exec_replaces_process () =
  let k = Kernel.boot ~cpus:2 () in
  let new_ran = ref false and after_exec = ref false in
  let pid =
    Kernel.spawn k ~name:"old" ~main:(fun () ->
        ignore
          (Uctx.lwp_create
             ~entry:(fun () ->
               match Uctx.lwp_park () with `Parked | `Timeout -> ())
             ());
        Uctx.charge_us 50;
        ignore
          (Uctx.exec ~name:"new" ~main:(fun () ->
               new_ran := true;
               Uctx.exit 11));
        after_exec := true)
  in
  Kernel.run k;
  Alcotest.(check bool) "new image ran" true !new_ran;
  Alcotest.(check bool) "old image gone" false !after_exec;
  Alcotest.(check (option int)) "status from new image" (Some 11)
    (Kernel.exit_status k pid);
  match Kernel.find_proc k pid with
  | Some p -> Alcotest.(check string) "renamed" "new" p.Ktypes.pname
  | None -> Alcotest.fail "proc disappeared"

let test_waitpid_blocks_until_child_exits () =
  let k = Kernel.boot ~cpus:1 () in
  let order = ref [] in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         ignore
           (Uctx.fork1 ~child_main:(fun () ->
                Uctx.charge (Time.ms 10);
                order := "child_done" :: !order;
                Uctx.exit 0));
         ignore (Uctx.waitpid ());
         order := "parent_reaped" :: !order));
  Kernel.run k;
  Alcotest.(check (list string)) "child first" [ "child_done"; "parent_reaped" ]
    (List.rev !order)

let test_waitpid_no_children () =
  let k = Kernel.boot () in
  let got_echild = ref false in
  ignore
    (Kernel.spawn k ~name:"nokids" ~main:(fun () ->
         match Uctx.syscall (Sysdefs.Sys_waitpid None) with
         | Sysdefs.R_err Sunos_kernel.Errno.ECHILD -> got_echild := true
         | _ -> ()));
  Kernel.run k;
  Alcotest.(check bool) "ECHILD" true !got_echild

(* ------------------------- files / pipes / poll ------------------------- *)

let test_file_roundtrip () =
  let k = Kernel.boot () in
  let data = ref "" in
  ignore
    (Kernel.spawn k ~name:"io" ~main:(fun () ->
         let fd = Uctx.open_file "/tmp/x" in
         ignore (Uctx.write fd "hello world");
         Uctx.lseek fd 0;
         data := Uctx.read fd ~len:5));
  Kernel.run k;
  Alcotest.(check string) "read back" "hello" !data

let test_file_shared_offset_after_fork () =
  let k = Kernel.boot () in
  let parent_read = ref "" in
  ignore
    (Kernel.spawn k ~name:"off" ~main:(fun () ->
         let fd = Uctx.open_file "/f" in
         ignore (Uctx.write fd "abcdef");
         Uctx.lseek fd 0;
         ignore
           (Uctx.fork1 ~child_main:(fun () ->
                (* child read moves the shared offset *)
                ignore (Uctx.read fd ~len:3);
                Uctx.exit 0));
         ignore (Uctx.waitpid ());
         parent_read := Uctx.read fd ~len:3));
  Kernel.run k;
  Alcotest.(check string) "offset shared with child" "def" !parent_read

let test_cold_read_blocks_only_one_lwp () =
  let k = Kernel.boot ~cpus:1 () in
  (* Pre-create a file and evict its pages so the read goes to "disk". *)
  (match Sunos_kernel.Fs.create_file (Kernel.fs k) ~path:"/big" () with
  | Ok f ->
      ignore (Sunos_kernel.Fs.write f ~pos:0 (String.make 8192 'x'));
      Sunos_hw.Shared_memory.evict_all (Sunos_kernel.Fs.segment f)
  | Error _ -> Alcotest.fail "setup");
  let reader_done = ref Time.zero and computer_done = ref Time.zero in
  ignore
    (Kernel.spawn k ~name:"fault" ~main:(fun () ->
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                let fd = Uctx.open_file "/big" in
                ignore (Uctx.read fd ~len:4096);
                reader_done := Uctx.gettime ())
              ());
         Uctx.charge (Time.ms 3);
         computer_done := Uctx.gettime ()));
  Kernel.run k;
  (* disk access is ~22ms; the computing LWP must finish way earlier *)
  Alcotest.(check bool) "reader hit the disk" true
    Time.(!reader_done >= Time.ms 20);
  Alcotest.(check bool) "computer not blocked by fault" true
    (Time.to_ms !computer_done < 10.)

let test_pipe_blocking_write_when_full () =
  let k = Kernel.boot ~cpus:1 () in
  let wrote_all = ref false in
  ignore
    (Kernel.spawn k ~name:"pipe" ~main:(fun () ->
         let rfd, wfd = Uctx.pipe () in
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                (* fill beyond capacity: must block until drained *)
                let big = String.make 6000 'y' in
                let n1 = Uctx.write wfd big in
                let n2 =
                  if n1 < 6000 then
                    Uctx.write wfd (String.sub big 0 (6000 - n1))
                  else 0
                in
                if n1 + n2 > 5120 then wrote_all := true)
              ());
         Uctx.charge (Time.ms 1);
         (* drain *)
         let rec drain acc =
           if acc >= 6000 then ()
           else
             let s = Uctx.read rfd ~len:4096 in
             if s = "" then () else drain (acc + String.length s)
         in
         drain 0));
  Kernel.run k;
  Alcotest.(check bool) "writer completed past capacity" true !wrote_all

let test_write_closed_pipe_epipe_sigpipe () =
  let k = Kernel.boot () in
  let got_epipe = ref false in
  let pid =
    Kernel.spawn k ~name:"epipe" ~main:(fun () ->
        (* SIGPIPE default would kill us; ignore it to observe EPIPE *)
        ignore (Uctx.sigaction Signo.sigpipe Sysdefs.Sig_ignore);
        let rfd, wfd = Uctx.pipe () in
        Uctx.close rfd;
        (match Uctx.syscall (Sysdefs.Sys_write (wfd, "x")) with
        | Sysdefs.R_err Sunos_kernel.Errno.EPIPE -> got_epipe := true
        | _ -> ());
        Uctx.exit 0)
  in
  Kernel.run k;
  Alcotest.(check bool) "EPIPE" true !got_epipe;
  Alcotest.(check (option int)) "survived (ignored SIGPIPE)" (Some 0)
    (Kernel.exit_status k pid)

let test_sigpipe_default_kills () =
  let k = Kernel.boot () in
  let pid =
    Kernel.spawn k ~name:"die" ~main:(fun () ->
        let rfd, wfd = Uctx.pipe () in
        Uctx.close rfd;
        ignore (Uctx.syscall (Sysdefs.Sys_write (wfd, "x")));
        Uctx.exit 0)
  in
  Kernel.run k;
  Alcotest.(check (option int)) "killed by SIGPIPE"
    (Some (128 + Signo.sigpipe))
    (Kernel.exit_status k pid)

let test_poll_timeout () =
  let k = Kernel.boot () in
  let elapsed = ref 0L in
  ignore
    (Kernel.spawn k ~name:"poll" ~main:(fun () ->
         let rfd, _wfd = Uctx.pipe () in
         let t0 = Uctx.gettime () in
         let ready =
           Uctx.poll ~timeout:(Time.ms 25)
             [ { Sysdefs.pfd = rfd; want_in = true; want_out = false } ]
         in
         Alcotest.(check (list int)) "nothing ready" [] ready;
         elapsed := Time.diff (Uctx.gettime ()) t0));
  Kernel.run k;
  Alcotest.(check bool) "waited the timeout" true Time.(!elapsed >= Time.ms 25)

let test_poll_wakes_on_data () =
  let k = Kernel.boot ~cpus:1 () in
  let ready_fds = ref [] in
  ignore
    (Kernel.spawn k ~name:"pollw" ~main:(fun () ->
         let rfd, wfd = Uctx.pipe () in
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                Uctx.sleep (Time.ms 5);
                ignore (Uctx.write wfd "x"))
              ());
         ready_fds :=
           Uctx.poll [ { Sysdefs.pfd = rfd; want_in = true; want_out = false } ]));
  Kernel.run k;
  Alcotest.(check int) "pipe fd became ready" 1 (List.length !ready_fds)

(* ------------------------- signals ------------------------- *)

let test_kill_default_terminates () =
  let k = Kernel.boot ~cpus:2 () in
  let victim = ref 0 in
  let vpid =
    Kernel.spawn k ~name:"victim" ~main:(fun () ->
        victim := Uctx.getpid ();
        Uctx.sleep (Time.s 100))
  in
  ignore
    (Kernel.spawn k ~name:"killer" ~main:(fun () ->
         Uctx.sleep (Time.ms 10);
         Uctx.kill ~pid:vpid Signo.sigterm));
  Kernel.run k;
  Alcotest.(check (option int)) "SIGTERM default kill"
    (Some (128 + Signo.sigterm))
    (Kernel.exit_status k vpid)

let test_handler_runs_and_interrupts_sleep () =
  let k = Kernel.boot ~cpus:2 () in
  let handled = ref false and handled_at = ref Time.zero in
  let woke = ref Time.zero in
  let vpid =
    Kernel.spawn k ~name:"h" ~main:(fun () ->
        ignore
          (Uctx.sigaction Signo.sigusr1
             (Sysdefs.Sig_handler
                (fun _ ->
                  handled := true;
                  handled_at := Uctx.gettime ())));
        (* Uctx.sleep restarts after the handler (SA_RESTART style): the
           handler runs promptly but the sleep completes its full span *)
        Uctx.sleep (Time.s 2);
        woke := Uctx.gettime ())
  in
  ignore
    (Kernel.spawn k ~name:"sender" ~main:(fun () ->
         Uctx.sleep (Time.ms 10);
         Uctx.kill ~pid:vpid Signo.sigusr1));
  Kernel.run k;
  Alcotest.(check bool) "handler ran" true !handled;
  Alcotest.(check bool) "handler ran promptly, mid-sleep" true
    (Time.to_ms !handled_at < 100.);
  Alcotest.(check bool) "sleep then completed its span" true
    (Time.to_s !woke >= 2.)

let test_masked_signal_pends_until_unmask () =
  let k = Kernel.boot ~cpus:2 () in
  let handled_at = ref Time.zero in
  let vpid =
    Kernel.spawn k ~name:"mask" ~main:(fun () ->
        ignore
          (Uctx.sigaction Signo.sigusr1
             (Sysdefs.Sig_handler (fun _ -> handled_at := Uctx.gettime ())));
        Uctx.sigprocmask Sigset.Sig_block (Sigset.of_list [ Signo.sigusr1 ]);
        Uctx.sleep (Time.ms 50);
        (* still masked here; unmask should deliver the pended signal *)
        Uctx.sigprocmask Sigset.Sig_unblock (Sigset.of_list [ Signo.sigusr1 ]))
  in
  ignore
    (Kernel.spawn k ~name:"sender" ~main:(fun () ->
         Uctx.sleep (Time.ms 5);
         Uctx.kill ~pid:vpid Signo.sigusr1));
  Kernel.run k;
  Alcotest.(check bool) "handled only after unmask" true
    Time.(!handled_at >= Time.ms 50)

let test_trap_default_kills_whole_process () =
  let k = Kernel.boot ~cpus:2 () in
  let other_survived = ref false in
  let pid =
    Kernel.spawn k ~name:"segv" ~main:(fun () ->
        ignore
          (Uctx.lwp_create
             ~entry:(fun () ->
               Uctx.sleep (Time.s 1);
               other_survived := true)
             ());
        Uctx.charge_us 10;
        Uctx.trap Signo.sigsegv;
        (* unreachable *)
        other_survived := true)
  in
  Kernel.run k;
  Alcotest.(check (option int)) "SIGSEGV core-kill"
    (Some (128 + Signo.sigsegv))
    (Kernel.exit_status k pid);
  Alcotest.(check bool) "all LWPs destroyed" false !other_survived

let test_trap_handler_runs_synchronously () =
  let k = Kernel.boot () in
  let order = ref [] in
  ignore
    (Kernel.spawn k ~name:"fpe" ~main:(fun () ->
         ignore
           (Uctx.sigaction Signo.sigfpe
              (Sysdefs.Sig_handler (fun _ -> order := "handler" :: !order)));
         order := "before" :: !order;
         Uctx.trap Signo.sigfpe;
         order := "after" :: !order));
  Kernel.run k;
  Alcotest.(check (list string)) "synchronous" [ "before"; "handler"; "after" ]
    (List.rev !order)

let test_sigwaiting_posted_when_all_lwps_block () =
  let k = Kernel.boot () in
  ignore
    (Kernel.spawn k ~name:"w" ~main:(fun () ->
         let rfd, _wfd = Uctx.pipe () in
         (* single LWP blocks indefinitely on a pipe that never fills *)
         ignore
           (Uctx.poll [ { Sysdefs.pfd = rfd; want_in = true; want_out = false } ])));
  Kernel.run k;
  Alcotest.(check bool) "SIGWAITING fired" true (Kernel.sigwaiting_count k >= 1)

let test_sigwaiting_handler_can_create_lwp () =
  (* The deadlock-avoidance pattern: a SIGWAITING handler creates a new
     LWP which then unblocks the stuck one. *)
  let k = Kernel.boot ~cpus:2 () in
  let unblocked = ref false in
  ignore
    (Kernel.spawn k ~name:"grow" ~main:(fun () ->
         let rfd, wfd = Uctx.pipe () in
         ignore
           (Uctx.sigaction Signo.sigwaiting
              (Sysdefs.Sig_handler
                 (fun _ ->
                   ignore
                     (Uctx.lwp_create
                        ~entry:(fun () -> ignore (Uctx.write wfd "go"))
                        ()))));
         let data = Uctx.read rfd ~len:10 in
         if data = "go" then unblocked := true));
  Kernel.run k;
  Alcotest.(check bool) "handler grew the pool and unblocked" true !unblocked

let test_stop_continue () =
  let k = Kernel.boot ~cpus:2 () in
  let progress = ref 0 in
  let vpid =
    Kernel.spawn k ~name:"stoppee" ~main:(fun () ->
        for _ = 1 to 100 do
          Uctx.charge (Time.ms 1);
          incr progress
        done)
  in
  ignore
    (Kernel.spawn k ~name:"stopper" ~main:(fun () ->
         Uctx.sleep (Time.ms 5);
         Uctx.kill ~pid:vpid Signo.sigstop;
         Uctx.sleep (Time.ms 50);
         let frozen = !progress in
         Uctx.sleep (Time.ms 50);
         Alcotest.(check int) "no progress while stopped" frozen !progress;
         Uctx.kill ~pid:vpid Signo.sigcont));
  Kernel.run k;
  Alcotest.(check int) "finished after continue" 100 !progress

let test_lwp_directed_signal () =
  let k = Kernel.boot ~cpus:2 () in
  let handled_by = ref 0 in
  ignore
    (Kernel.spawn k ~name:"ldir" ~main:(fun () ->
         ignore
           (Uctx.sigaction Signo.sigusr2
              (Sysdefs.Sig_handler (fun _ -> handled_by := Uctx.getlwpid ())));
         let target =
           Uctx.lwp_create ~entry:(fun () -> Uctx.sleep (Time.ms 50)) ()
         in
         Uctx.charge_us 100;
         Uctx.lwp_kill ~lwpid:target Signo.sigusr2;
         Uctx.sleep (Time.ms 100)));
  Kernel.run k;
  Alcotest.(check int) "handled by the targeted LWP" 2 !handled_by

(* ------------------------- timers, rusage, sched ------------------------- *)

let test_real_timer_sigalrm () =
  let k = Kernel.boot () in
  let fired_at = ref Time.zero in
  ignore
    (Kernel.spawn k ~name:"alrm" ~main:(fun () ->
         ignore
           (Uctx.sigaction Signo.sigalrm
              (Sysdefs.Sig_handler (fun _ -> fired_at := Uctx.gettime ())));
         Uctx.setitimer Sysdefs.Timer_real (Some (Time.ms 30));
         Uctx.sleep (Time.ms 200)));
  Kernel.run k;
  Alcotest.(check bool) "fired around 30ms" true
    (Time.to_ms !fired_at >= 30. && Time.to_ms !fired_at < 100.)

let test_virtual_timer_counts_user_time_only () =
  let k = Kernel.boot () in
  let fired = ref false in
  ignore
    (Kernel.spawn k ~name:"vt" ~main:(fun () ->
         ignore
           (Uctx.sigaction Signo.sigvtalrm
              (Sysdefs.Sig_handler (fun _ -> fired := true)));
         Uctx.setitimer Sysdefs.Timer_virtual (Some (Time.ms 10));
         (* sleeping consumes no user CPU: timer must NOT fire *)
         Uctx.sleep (Time.ms 100);
         Alcotest.(check bool) "not fired while sleeping" false !fired;
         (* now burn user CPU *)
         Uctx.charge (Time.ms 20)));
  Kernel.run k;
  Alcotest.(check bool) "fired on user time" true !fired

let test_getrusage () =
  let k = Kernel.boot () in
  let ru = ref None in
  ignore
    (Kernel.spawn k ~name:"ru" ~main:(fun () ->
         Uctx.charge (Time.ms 7);
         ru := Some (Uctx.getrusage ())));
  Kernel.run k;
  match !ru with
  | Some r ->
      Alcotest.(check bool) "utime >= 7ms" true
        Time.(r.Sysdefs.ru_utime >= Time.ms 7);
      Alcotest.(check bool) "stime > 0 (syscalls)" true
        Time.(r.Sysdefs.ru_stime > 0L);
      Alcotest.(check int) "one lwp" 1 r.Sysdefs.ru_nlwps
  | None -> Alcotest.fail "no rusage"

let test_rlimit_cpu_sigxcpu () =
  let k = Kernel.boot () in
  let got = ref false in
  ignore
    (Kernel.spawn k ~name:"lim" ~main:(fun () ->
         ignore
           (Uctx.sigaction Signo.sigxcpu
              (Sysdefs.Sig_handler (fun _ -> got := true)));
         Uctx.setrlimit_cpu (Some (Time.ms 5));
         Uctx.charge (Time.ms 20)));
  Kernel.run k;
  Alcotest.(check bool) "SIGXCPU delivered" true !got

let test_realtime_preempts_timeshare () =
  let k = Kernel.boot ~cpus:1 () in
  let finish_rt = ref Time.zero and finish_ts = ref Time.zero in
  ignore
    (Kernel.spawn k ~name:"ts" ~main:(fun () ->
         Uctx.charge (Time.ms 200);
         finish_ts := Uctx.gettime ()));
  ignore
    (Kernel.spawn k ~name:"rt" ~main:(fun () ->
         Uctx.priocntl (Sysdefs.Cls_realtime 10);
         Uctx.sleep (Time.ms 10);
         (* on wake, RT must preempt the TS hog at its next boundary *)
         Uctx.charge (Time.ms 50);
         finish_rt := Uctx.gettime ()));
  Kernel.run k;
  Alcotest.(check bool) "RT finished before TS hog" true
    Time.(!finish_rt < !finish_ts)

let test_processor_bind () =
  let k = Kernel.boot ~cpus:2 () in
  ignore
    (Kernel.spawn k ~name:"bind" ~main:(fun () ->
         Uctx.processor_bind (Some 1);
         Uctx.charge (Time.ms 5)));
  Kernel.run k;
  (* bound LWP must have run on cpu1 only: cpu1 accumulated busy time *)
  let m = Kernel.machine k in
  let busy1 =
    Sunos_hw.Cpu.busy_time m.Sunos_hw.Machine.cpus.(1) ~now:(Kernel.now k)
  in
  Alcotest.(check bool) "cpu1 did the work" true Time.(busy1 >= Time.ms 5)

let test_processor_bind_invalid () =
  let k = Kernel.boot ~cpus:1 () in
  let got = ref false in
  ignore
    (Kernel.spawn k ~name:"bad" ~main:(fun () ->
         match Uctx.syscall (Sysdefs.Sys_processor_bind (Some 7)) with
         | Sysdefs.R_err Sunos_kernel.Errno.EINVAL -> got := true
         | _ -> ()));
  Kernel.run k;
  Alcotest.(check bool) "EINVAL" true !got

(* ------------------------- bound dispatch ------------------------- *)

module Tracebuf = Sunos_sim.Tracebuf
module Schedctl = Sunos_sim.Schedctl
module Explore = Sunos_sim.Explore

let dispatches k =
  List.filter_map
    (fun r ->
      if r.Tracebuf.kind = Tracebuf.Dispatch then
        Some (r.Tracebuf.time, r.Tracebuf.cpu, r.Tracebuf.pid)
      else None)
    (Kernel.trace_records k)

(* Two real-time hogs, bound to CPU 0 and CPU 1, nap 500 us and then
   hold their CPUs for 8 and 10 ms.  During the nap three timeshare
   LWPs run and go to sleep: B binds itself to CPU 1 and sleeps 1 ms,
   U1 sleeps 2 ms and U2 3 ms.  They wake in that order while the hogs
   hold the CPUs, so all three wait at one priority (29 plus the wakeup
   boost) with B at the front.  Each then computes 1 ms.  Returns the
   kernel and the pids of B, U1 and U2. *)
let bound_order_run () =
  let k = Kernel.boot ~cpus:2 () in
  let hog cpu ms () =
    Uctx.priocntl (Sysdefs.Cls_realtime 10);
    Uctx.processor_bind (Some cpu);
    Uctx.sleep (Time.us 500);
    Uctx.charge (Time.ms ms)
  in
  let sleeper ?bind ms () =
    Option.iter (fun c -> Uctx.processor_bind (Some c)) bind;
    Uctx.sleep (Time.ms ms);
    Uctx.charge (Time.ms 1)
  in
  ignore (Kernel.spawn k ~name:"hog0" ~main:(hog 0 8));
  ignore (Kernel.spawn k ~name:"hog1" ~main:(hog 1 10));
  let b = Kernel.spawn k ~name:"B" ~main:(sleeper ~bind:1 1) in
  let u1 = Kernel.spawn k ~name:"U1" ~main:(sleeper 2) in
  let u2 = Kernel.spawn k ~name:"U2" ~main:(sleeper 3) in
  Kernel.run ~max_events:10_000 k;
  (k, b, u1, u2)

(* CPU 0 frees first and must pass over B, which only CPU 1 may run,
   to take U1 and then U2 in wakeup order; B waits for CPU 1. *)
let test_bound_dispatch_order () =
  let k, b, u1, u2 = bound_order_run () in
  let after_wakeups =
    List.filter_map
      (fun (t, cpu, pid) ->
        if Time.(t >= Time.ms 4) && List.mem pid [ b; u1; u2 ] then
          Some (cpu, pid)
        else None)
      (dispatches k)
  in
  Alcotest.(check (list (pair int int)))
    "cpu0 <- U1, cpu0 <- U2, cpu1 <- B"
    [ (0, u1); (0, u2); (1, b) ]
    after_wakeups

(* B, bound to CPU 1, waits behind a real-time hog that switched class
   after its dispatch and so keeps its 100 ms timeshare quantum.  When
   that quantum expires B is runnable for CPU 1: one preemption (the
   hog, still the best, is dispatched again).  The timeshare hog on
   CPU 0 reaches its own quantum expiry meanwhile, and B must not count
   as runnable there. *)
let test_bound_runnable_probe () =
  let k = Kernel.boot ~cpus:2 () in
  ignore
    (Kernel.spawn k ~name:"A" ~main:(fun () ->
         Uctx.processor_bind (Some 0);
         Uctx.charge (Time.ms 250)));
  ignore
    (Kernel.spawn k ~name:"B" ~main:(fun () ->
         Uctx.processor_bind (Some 1);
         Uctx.sleep (Time.ms 1);
         Uctx.charge (Time.ms 1)));
  ignore
    (Kernel.spawn k ~name:"H" ~main:(fun () ->
         Uctx.priocntl (Sysdefs.Cls_realtime 10);
         Uctx.processor_bind (Some 1);
         Uctx.charge (Time.ms 150)));
  Kernel.run ~max_events:10_000 k;
  let preempted_cpus =
    List.filter_map
      (fun r ->
        if r.Tracebuf.kind = Tracebuf.Preempt then Some r.Tracebuf.cpu
        else None)
      (Kernel.trace_records k)
  in
  Alcotest.(check (list int)) "one preemption, on cpu1" [ 1 ] preempted_cpus;
  Alcotest.(check int) "preemption count" 1 (Kernel.preemption_count k)

(* Under a schedule driver the pick at the wakeup priority enumerates
   only the LWPs CPU 0 may run: U1 and U2, not B.  The explored tree
   (that decision and the two made at priority 29 when the hogs nap) is
   pinned, and in every schedule B last runs on CPU 1. *)
let test_bound_dispatch_driven () =
  Schedctl.begin_run ~vector:[||];
  ignore (bound_order_run ());
  let log, _ = Schedctl.end_run () in
  Alcotest.(check (list int)) "one decision at priority 41, over U1 and U2"
    [ 2 ]
    (List.filter_map
       (fun d ->
         if d.Schedctl.d_site = "dispatch" && d.Schedctl.d_obj = 41 then
           Some d.Schedctl.d_arity
         else None)
       log);
  let st =
    Explore.explore (fun () ->
        let k, b, _, _ = bound_order_run () in
        match
          List.rev
            (List.filter_map
               (fun (_, cpu, pid) -> if pid = b then Some cpu else None)
               (dispatches k))
        with
        | 1 :: _ -> Explore.Pass
        | _ -> Explore.Fail "B did not end on cpu1")
  in
  Alcotest.(check int) "no failing schedule" 0
    (List.length st.Explore.failures);
  Alcotest.(check int) "schedules explored" 12 st.Explore.explored

(* ------------------------- kwait/kwake, mmap ------------------------- *)

let test_kwait_kwake_cross_process () =
  let k = Kernel.boot ~cpus:2 () in
  (* Both processes map the same file; one sleeps on an offset, the other
     wakes it through the mapped segment (Figure 1's mechanism). *)
  (match Sunos_kernel.Fs.create_file (Kernel.fs k) ~path:"/shared" () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "setup");
  let woken = ref false in
  ignore
    (Kernel.spawn k ~name:"waiter" ~main:(fun () ->
         let fd = Uctx.open_file "/shared" in
         let seg = Uctx.mmap fd in
         (match Uctx.kwait ~seg ~offset:64 () with
         | `Woken -> woken := true
         | `Timeout -> ())));
  ignore
    (Kernel.spawn k ~name:"waker" ~main:(fun () ->
         Uctx.sleep (Time.ms 20);
         let fd = Uctx.open_file "/shared" in
         let seg = Uctx.mmap fd in
         let n = Uctx.kwake ~seg ~offset:64 ~count:1 in
         Alcotest.(check int) "woke one" 1 n));
  Kernel.run k;
  Alcotest.(check bool) "cross-process wake" true !woken

let test_kwait_timeout () =
  let k = Kernel.boot () in
  let timed_out = ref false in
  ignore
    (Kernel.spawn k ~name:"kt" ~main:(fun () ->
         let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
         match Uctx.kwait ~seg ~offset:0 ~timeout:(Time.ms 5) () with
         | `Timeout -> timed_out := true
         | `Woken -> ()));
  Kernel.run k;
  Alcotest.(check bool) "timed out" true !timed_out

let test_touch_minor_and_major_fault () =
  let k = Kernel.boot () in
  (match Sunos_kernel.Fs.create_file (Kernel.fs k) ~path:"/m" () with
  | Ok f -> ignore (Sunos_kernel.Fs.write f ~pos:0 (String.make 4096 'z'))
  | Error _ -> Alcotest.fail "setup");
  let pid =
    Kernel.spawn k ~name:"faulter" ~main:(fun () ->
        let anon = Uctx.mmap_anon ~size:8192 ~shared:false in
        Uctx.touch anon ~offset:0;
        (* second touch: resident, no fault *)
        Uctx.touch anon ~offset:0;
        let fd = Uctx.open_file "/m" in
        let seg = Uctx.mmap fd in
        Sunos_hw.Shared_memory.evict_all seg;
        Uctx.touch seg ~offset:0)
  in
  Kernel.run k;
  match Kernel.find_proc k pid with
  | Some p ->
      Alcotest.(check int) "one minor fault" 1 p.Ktypes.minflt;
      Alcotest.(check int) "one major fault" 1 p.Ktypes.majflt
  | None -> Alcotest.fail "proc gone"

(* ------------------------- external events ------------------------- *)

(* Request/reply with a peer outside the machine: event callbacks stand
   in for the network, writing the request into the server's pipe at
   5 ms and reading the reply back from its other pipe at 10 ms.  The
   server's read must block until the request lands. *)
let test_pipe_request_reply_from_events () =
  let k = Kernel.boot () in
  let req_w = ref (-1) and reply_r = ref (-1) and woke = ref Time.zero in
  let pid =
    Kernel.spawn k ~name:"server" ~main:(fun () ->
        let r, w = Uctx.pipe () in
        let r', w' = Uctx.pipe () in
        req_w := w;
        reply_r := r';
        let req = Uctx.read r ~len:64 in
        woke := Uctx.gettime ();
        ignore (Uctx.write w' ("pong:" ^ req));
        (* keep the pipes open until the peer has read the reply *)
        Uctx.sleep (Time.ms 20))
  in
  let pipe_end fd =
    match Kernel.find_proc k pid with
    | None -> Alcotest.fail "server gone"
    | Some p -> (
        match Hashtbl.find_opt p.Ktypes.fdtab fd with
        | Some (Ktypes.Fd_pipe_r pp | Ktypes.Fd_pipe_w pp) -> pp
        | _ -> Alcotest.fail "not a pipe")
  in
  let eventq = (Kernel.machine k).Sunos_hw.Machine.eventq in
  let reply = ref "" in
  ignore
    (Sunos_sim.Eventq.at eventq (Time.ms 5) (fun () ->
         ignore (Sunos_kernel.Pipe.write (pipe_end !req_w) "ping")));
  ignore
    (Sunos_sim.Eventq.at eventq (Time.ms 10) (fun () ->
         reply := Sunos_kernel.Pipe.read (pipe_end !reply_r) ~len:64));
  Kernel.run k;
  Alcotest.(check bool) "read blocked until the request" true
    Time.(!woke >= Time.ms 5);
  Alcotest.(check string) "served" "pong:ping" !reply

(* [shutdown] releases nothing: before a run, after it, and twice over,
   it leaves the kernel able to spawn and run more processes. *)
let test_shutdown_is_noop () =
  let k = Kernel.boot () in
  Kernel.shutdown k;
  let a = Kernel.spawn k ~name:"a" ~main:(fun () -> Uctx.charge_us 50) in
  Kernel.run k;
  Kernel.shutdown k;
  Kernel.shutdown k;
  let b = Kernel.spawn k ~name:"b" ~main:(fun () -> Uctx.exit 3) in
  Kernel.run k;
  Alcotest.(check (option int)) "ran before" (Some 0) (Kernel.exit_status k a);
  Alcotest.(check (option int)) "ran after" (Some 3) (Kernel.exit_status k b)

(* A boot allocates no trace slot and no run-queue level up front: the
   ring grows as records arrive, a level's FIFO is made at its first
   push, and one run queue serves every CPU, so a boot is cheap enough
   to pay once per explored schedule.  A preallocated 64K-slot ring
   costs about 70k words here, a FIFO made up front for each of the 160
   levels about 640, and a second 160-level queue per CPU about 175
   words per CPU (1,215 words in all at 4 CPUs).  On OCaml 5.1,
   [Gc.counters] and [Gc.quick_stat] miss the minor heap not yet
   collected, so minor words come from [Gc.minor_words]; Gc.counters'
   major count sees a direct major allocation (such as the ring) at
   once, and promoted words are counted in both. *)
let test_boot_allocation () =
  ignore (Kernel.boot ~cpus:4 ());
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  ignore (Sys.opaque_identity (Kernel.boot ~cpus:4 ()));
  let used = words () -. w0 in
  if used >= 1024. then
    Alcotest.failf "Kernel.boot ~cpus:4 allocated %.0f words (bound 1024)" used

(* A system call's busy intervals (trap entry, the call's completion,
   the return to user mode) allocate nothing: each CPU's busy record
   takes immediates, its queue entry is three ints, and the clock it
   moves is an int.  So one getpid round trip on a 1-CPU boot allocates
   22 words, read as (3,000 calls - 1,000 calls) / 2,000 with
   [Gc.minor_words] as the boot gate reads its words: the effect, its
   continuation and the handler's closure, and the request's records
   ([Step_sys], [P_syswait], the result and [P_sysret]).  The bound
   sits just above, so that a closure or a boxed time on the busy path
   fails it: boxing the clock at each of the trap's and the return's
   ends makes 28. *)
let test_getpid_allocation () =
  let words n =
    let w0 = Gc.minor_words () in
    let k = Kernel.boot () in
    ignore
      (Kernel.spawn k ~name:"getpid" ~main:(fun () ->
           for _ = 1 to n do
             ignore (Sys.opaque_identity (Uctx.getpid ()))
           done));
    Kernel.run k;
    Gc.minor_words () -. w0
  in
  ignore (words 1000);
  let per_call = (words 3000 -. words 1000) /. 2000. in
  if per_call >= 24. then
    Alcotest.failf "a getpid round trip allocated %.1f words (bound 24)"
      per_call

(* Words per event over whole runs, untraced and without chaos: the
   four golden configurations and the dispatch storm (test/golden.ml).
   The runs are deterministic, so each figure is exact on one build:
   net 29.8, net-epoll 25.8, db 20.3, kv 29.5 and the storm 20.5 words
   per event, read with [Gc.minor_words] as the boot gate reads its
   words.  Each bound sits 8-9% above its figure, so that three more
   words on every event fail any of them.  A clock boxed each time it
   moves adds about 2 words per event (net 31.9, net-epoll 27.8, db
   22.2, kv 31.5, the storm 22.0) and fails the db bound, as it fails
   the getpid gate.  Each run must also finish within 0.05 s of
   processor time ([Sys.time]); on a 2-core host they take 0.4-4 ms. *)
let test_words_per_event () =
  let chaos = Sunos_sim.Faultgen.off and trace = false in
  let runs =
    [
      ("net", 32.4, fun d -> ignore (Golden.server ~chaos ~trace Golden.net d));
      ( "net-epoll", 28.,
        fun d -> ignore (Golden.server ~chaos ~trace Golden.net_epoll d) );
      ("db", 22., fun d -> ignore (Golden.database ~chaos ~trace Golden.db d));
      ( "kv", 32.,
        fun d -> ignore (Golden.kv_store ~chaos ~trace (Golden.kv ~procs:2) d) );
      ("storm", 22.2, fun d -> Golden.storm ~chaos ~trace d);
    ]
  in
  let over =
    List.filter_map
      (fun (name, bound, run) ->
        let events = ref 0 in
        let t0 = Sys.time () in
        let w0 = Gc.minor_words () in
        run (fun k ->
            events := Eventq.events_fired (Kernel.machine k).Machine.eventq);
        let per_event = (Gc.minor_words () -. w0) /. float_of_int !events in
        let cpu = Sys.time () -. t0 in
        if per_event >= bound || cpu >= 0.05 then
          Some
            (Printf.sprintf
               "%s: %.1f words per event (bound %.1f) in %.3f s (bound 0.05)"
               name per_event bound cpu)
        else None)
      runs
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* ------------------------- procfs ------------------------- *)

let test_procfs_snapshot () =
  let k = Kernel.boot ~cpus:2 () in
  ignore
    (Kernel.spawn k ~name:"watched" ~main:(fun () ->
         ignore (Uctx.lwp_create ~entry:(fun () -> Uctx.sleep (Time.ms 20)) ());
         Uctx.charge (Time.ms 5);
         (* snapshot while alive *)
         ()));
  Kernel.run ~until:(Time.ms 2) k;
  let snap = Procfs.snapshot k in
  Alcotest.(check int) "one proc" 1 (List.length snap);
  let pi = List.hd snap in
  Alcotest.(check string) "name" "watched" pi.Procfs.pi_name;
  Alcotest.(check bool) "lwps visible" true (pi.Procfs.pi_nlwps >= 1);
  Kernel.run k;
  let pi = List.hd (Procfs.snapshot k) in
  Alcotest.(check string) "zombie at end" "reaped" pi.Procfs.pi_state

let () =
  Alcotest.run "sunos_kernel"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "spawn/run/exit" `Quick test_spawn_run_exit;
          Alcotest.test_case "return is exit 0" `Quick test_main_return_is_exit0;
          Alcotest.test_case "getpid/getlwpid" `Quick test_getpid_getlwpid;
          Alcotest.test_case "charge advances time" `Quick
            test_charge_advances_time;
          Alcotest.test_case "shutdown is a no-op" `Quick test_shutdown_is_noop;
          Alcotest.test_case "boot allocates under 1024 words" `Quick
            test_boot_allocation;
          Alcotest.test_case "getpid allocates under 24 words" `Quick
            test_getpid_allocation;
          Alcotest.test_case "words per event and processor time" `Quick
            test_words_per_event;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "uniprocessor interleaves" `Quick
            test_uniprocessor_interleaves;
          Alcotest.test_case "multiprocessor parallelism" `Quick
            test_multiprocessor_parallelism;
          Alcotest.test_case "nanosleep" `Quick test_nanosleep;
          Alcotest.test_case "RT preempts TS" `Quick
            test_realtime_preempts_timeshare;
          Alcotest.test_case "processor_bind" `Quick test_processor_bind;
          Alcotest.test_case "processor_bind invalid" `Quick
            test_processor_bind_invalid;
        ] );
      ( "bound dispatch",
        [
          Alcotest.test_case "order" `Quick test_bound_dispatch_order;
          Alcotest.test_case "runnable probe" `Quick test_bound_runnable_probe;
          Alcotest.test_case "driven" `Quick test_bound_dispatch_driven;
        ] );
      ( "lwp",
        [
          Alcotest.test_case "create + shared memory" `Quick
            test_lwp_create_and_shared_memory;
          Alcotest.test_case "blocking syscall blocks one LWP" `Quick
            test_lwp_blocking_syscall_does_not_block_process;
          Alcotest.test_case "park/unpark" `Quick test_lwp_park_unpark;
          Alcotest.test_case "unpark token" `Quick
            test_lwp_unpark_token_before_park;
          Alcotest.test_case "park timeout" `Quick test_lwp_park_timeout;
        ] );
      ( "fork_exec_wait",
        [
          Alcotest.test_case "fork1 + waitpid" `Quick test_fork1_and_waitpid;
          Alcotest.test_case "fork dearer than fork1" `Quick
            test_fork_costs_more_than_fork1;
          Alcotest.test_case "fork EINTRs siblings" `Quick
            test_fork_interrupts_other_lwps;
          Alcotest.test_case "exec replaces" `Quick test_exec_replaces_process;
          Alcotest.test_case "waitpid blocks" `Quick
            test_waitpid_blocks_until_child_exits;
          Alcotest.test_case "waitpid ECHILD" `Quick test_waitpid_no_children;
        ] );
      ( "io",
        [
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "shared offset" `Quick
            test_file_shared_offset_after_fork;
          Alcotest.test_case "cold read blocks one LWP" `Quick
            test_cold_read_blocks_only_one_lwp;
          Alcotest.test_case "pipe full blocks writer" `Quick
            test_pipe_blocking_write_when_full;
          Alcotest.test_case "EPIPE when ignored" `Quick
            test_write_closed_pipe_epipe_sigpipe;
          Alcotest.test_case "SIGPIPE default kills" `Quick
            test_sigpipe_default_kills;
          Alcotest.test_case "poll timeout" `Quick test_poll_timeout;
          Alcotest.test_case "poll wakes on data" `Quick test_poll_wakes_on_data;
          Alcotest.test_case "pipe request/reply from events" `Quick
            test_pipe_request_reply_from_events;
        ] );
      ( "signals",
        [
          Alcotest.test_case "default kill" `Quick test_kill_default_terminates;
          Alcotest.test_case "handler + EINTR" `Quick
            test_handler_runs_and_interrupts_sleep;
          Alcotest.test_case "mask pends" `Quick
            test_masked_signal_pends_until_unmask;
          Alcotest.test_case "trap default kills all" `Quick
            test_trap_default_kills_whole_process;
          Alcotest.test_case "trap handler synchronous" `Quick
            test_trap_handler_runs_synchronously;
          Alcotest.test_case "SIGWAITING posted" `Quick
            test_sigwaiting_posted_when_all_lwps_block;
          Alcotest.test_case "SIGWAITING grows pool" `Quick
            test_sigwaiting_handler_can_create_lwp;
          Alcotest.test_case "stop/continue" `Quick test_stop_continue;
          Alcotest.test_case "lwp-directed" `Quick test_lwp_directed_signal;
        ] );
      ( "timers_rusage",
        [
          Alcotest.test_case "real timer" `Quick test_real_timer_sigalrm;
          Alcotest.test_case "virtual timer" `Quick
            test_virtual_timer_counts_user_time_only;
          Alcotest.test_case "getrusage" `Quick test_getrusage;
          Alcotest.test_case "rlimit cpu" `Quick test_rlimit_cpu_sigxcpu;
        ] );
      ( "memory",
        [
          Alcotest.test_case "kwait/kwake cross-process" `Quick
            test_kwait_kwake_cross_process;
          Alcotest.test_case "kwait timeout" `Quick test_kwait_timeout;
          Alcotest.test_case "touch faults" `Quick
            test_touch_minor_and_major_fault;
        ] );
      ( "procfs",
        [ Alcotest.test_case "snapshot" `Quick test_procfs_snapshot ] );
    ]
