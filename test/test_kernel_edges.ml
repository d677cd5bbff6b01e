(* Second-wave kernel tests: scheduler classes (incl. gang), exec
   inheritance, poll over several descriptors, file/pipe/net edge
   semantics, profiling, error paths. *)

module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Sysdefs = Sunos_kernel.Sysdefs
module Signo = Sunos_kernel.Signo
module Errno = Sunos_kernel.Errno

let expect_err name req err =
  match Uctx.syscall req with
  | Sysdefs.R_err e when e = err -> ()
  | r ->
      Alcotest.failf "%s: expected %s, got %s" name (Errno.to_string err)
        (Format.asprintf "%a" Sysdefs.pp_sysret r)

(* ------------------------- scheduling classes ------------------------- *)

let test_gang_members_coscheduled () =
  (* two gang members on a 2-CPU machine: their start times per burst
     coincide (all-or-nothing placement) *)
  let k = Kernel.boot ~cpus:2 () in
  let starts = ref [] in
  let member () =
    Uctx.priocntl (Sysdefs.Cls_gang 7);
    for _ = 1 to 3 do
      (* gettime is a syscall (an interleaving point): bind it first so
         the shared-list update is effect-free, hence atomic *)
      let now = Uctx.gettime () in
      starts := now :: !starts;
      Uctx.charge (Time.ms 2);
      Uctx.sleep (Time.ms 5)
    done
  in
  ignore (Kernel.spawn k ~name:"g1" ~main:member);
  ignore (Kernel.spawn k ~name:"g2" ~main:member);
  Kernel.run k;
  Alcotest.(check int) "all bursts ran" 6 (List.length !starts)

let test_gang_with_insufficient_cpus_progresses () =
  (* 3 gang members, 2 CPUs: best-effort placement must not deadlock *)
  let k = Kernel.boot ~cpus:2 () in
  let finished = ref 0 in
  for i = 1 to 3 do
    ignore
      (Kernel.spawn k
         ~name:(Printf.sprintf "g%d" i)
         ~main:(fun () ->
           Uctx.priocntl (Sysdefs.Cls_gang 9);
           Uctx.charge (Time.ms 3);
           incr finished))
  done;
  Kernel.run ~until:(Time.s 2) k;
  Alcotest.(check int) "all members completed" 3 !finished

let test_rt_class_runs_to_block () =
  (* an RT LWP is not quantum-preempted by timeshare work *)
  let k = Kernel.boot ~cpus:1 () in
  let rt_done = ref Time.zero and ts_done = ref Time.zero in
  ignore
    (Kernel.spawn k ~name:"rt" ~main:(fun () ->
         Uctx.priocntl (Sysdefs.Cls_realtime 20);
         Uctx.charge (Time.ms 300);
         rt_done := Uctx.gettime ()));
  ignore
    (Kernel.spawn k ~name:"ts" ~main:(fun () ->
         Uctx.charge (Time.ms 50);
         ts_done := Uctx.gettime ()));
  Kernel.run k;
  Alcotest.(check bool) "RT ran to completion first" true
    Time.(!rt_done < !ts_done)

let test_ts_decay_lets_interactive_in () =
  (* a sleeper wakes with boosted priority and preempts the hog at the
     next boundary rather than waiting a full burst *)
  let k = Kernel.boot ~cpus:1 () in
  let wake_lag = ref Time.zero in
  ignore
    (Kernel.spawn k ~name:"hog" ~main:(fun () ->
         for _ = 1 to 100 do
           Uctx.charge (Time.ms 10)
         done));
  ignore
    (Kernel.spawn k ~name:"inter" ~main:(fun () ->
         let t0 = Uctx.gettime () in
         Uctx.sleep (Time.ms 100);
         wake_lag := Time.diff (Uctx.gettime ()) (Time.add t0 (Time.ms 100))));
  Kernel.run k;
  Alcotest.(check bool) "woke within ~one slice of nominal" true
    (Time.to_ms !wake_lag < 30.)

(* ------------------------- exec inheritance ------------------------- *)

let test_exec_keeps_fds_resets_handlers () =
  let k = Kernel.boot () in
  let got = ref "" and handler_ran = ref false in
  let pid =
    Kernel.spawn k ~name:"old" ~main:(fun () ->
        ignore
          (Uctx.sigaction Signo.sigusr1
             (Sysdefs.Sig_handler (fun _ -> handler_ran := true)));
        let fd = Uctx.open_file "/keep" in
        ignore (Uctx.write fd "inherited");
        ignore
          (Uctx.exec ~name:"new" ~main:(fun () ->
               (* fds survive exec: same descriptor, same offset object *)
               Uctx.lseek fd 0;
               got := Uctx.read fd ~len:16;
               (* handlers were reset to default: SIGUSR1 now kills *)
               Uctx.kill ~pid:(Uctx.getpid ()) Signo.sigusr1;
               Uctx.charge_us 10)))
  in
  Kernel.run k;
  Alcotest.(check string) "fd inherited across exec" "inherited" !got;
  Alcotest.(check bool) "old handler did not run" false !handler_ran;
  Alcotest.(check (option int)) "default action killed"
    (Some (128 + Signo.sigusr1))
    (Kernel.exit_status k pid)

(* Exec leaves scheduler-activations mode: the new image has no library
   to take upcalls, so its blocking sleeps create no LWP (before, an
   upcall at its first sleep made one, which parked for good and kept
   the process alive after its main returned). *)
let test_exec_leaves_activations () =
  let k = Kernel.boot () in
  let pid =
    Kernel.spawn k ~name:"sa"
      ~main:
        (Sunos_threads.Libthread.boot ~activations:true (fun () ->
             ignore
               (Uctx.exec ~name:"plain" ~main:(fun () ->
                    Uctx.sleep (Time.ms 5);
                    Uctx.sleep (Time.ms 5)))))
  in
  Kernel.run ~until:(Time.ms 12) k;
  let lwps =
    match Sunos_kernel.Procfs.proc k pid with
    | Some pi -> List.length pi.Sunos_kernel.Procfs.pi_lwps
    | None -> 0
  in
  Alcotest.(check int) "one LWP in /proc" 1 lwps;
  Alcotest.(check int) "no LWP created since boot" 1
    (Kernel.lwp_create_count k);
  Kernel.run k;
  Alcotest.(check (option int)) "exits 0" (Some 0) (Kernel.exit_status k pid)

(* ------------------------- poll over many fds ------------------------- *)

let test_poll_multiple_sources () =
  let k = Kernel.boot ~cpus:1 () in
  let ready_sets = ref [] in
  ignore
    (Kernel.spawn k ~name:"poller" ~main:(fun () ->
         let r1, w1 = Uctx.pipe () in
         let r2, w2 = Uctx.pipe () in
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                Uctx.sleep (Time.ms 5);
                ignore (Uctx.write w2 "b");
                Uctx.sleep (Time.ms 5);
                ignore (Uctx.write w1 "a"))
              ());
         let fds =
           [
             { Sysdefs.pfd = r1; want_in = true; want_out = false };
             { Sysdefs.pfd = r2; want_in = true; want_out = false };
           ]
         in
         let first = Uctx.poll fds in
         ready_sets := first :: !ready_sets;
         List.iter (fun fd -> ignore (Uctx.read fd ~len:4)) first;
         let second = Uctx.poll fds in
         ready_sets := second :: !ready_sets));
  Kernel.run k;
  match List.rev !ready_sets with
  | [ first; second ] ->
      Alcotest.(check int) "first wake: one fd ready" 1 (List.length first);
      Alcotest.(check int) "second wake: one fd ready" 1 (List.length second);
      Alcotest.(check bool) "different fds" true (first <> second)
  | _ -> Alcotest.fail "expected two poll results"

let test_poll_writable_side () =
  let k = Kernel.boot () in
  let ready = ref [] in
  ignore
    (Kernel.spawn k ~name:"pw" ~main:(fun () ->
         let _r, w = Uctx.pipe () in
         ready := Uctx.poll [ { Sysdefs.pfd = w; want_in = false; want_out = true } ]));
  Kernel.run k;
  Alcotest.(check int) "empty pipe is writable" 1 (List.length !ready)

(* ------------------------- file/pipe/net edges ------------------------- *)

let test_file_read_past_eof_and_hole () =
  let k = Kernel.boot () in
  let eof = ref "x" and hole = ref "" in
  ignore
    (Kernel.spawn k ~name:"eof" ~main:(fun () ->
         let fd = Uctx.open_file "/f" in
         ignore (Uctx.write fd "abc");
         (* read at EOF: empty *)
         eof := Uctx.read fd ~len:10;
         (* sparse write leaves a zero-filled hole *)
         Uctx.lseek fd 10;
         ignore (Uctx.write fd "z");
         Uctx.lseek fd 3;
         hole := Uctx.read fd ~len:7));
  Kernel.run k;
  Alcotest.(check string) "EOF read is empty" "" !eof;
  Alcotest.(check string) "hole reads as zeros" "\000\000\000\000\000\000\000"
    !hole

let test_pipe_eof_after_writer_close () =
  let k = Kernel.boot ~cpus:1 () in
  let reads = ref [] in
  ignore
    (Kernel.spawn k ~name:"eofpipe" ~main:(fun () ->
         let r, w = Uctx.pipe () in
         ignore (Uctx.write w "tail");
         Uctx.close w;
         reads := Uctx.read r ~len:10 :: !reads;
         (* every read after drain is "" = EOF, it must not block *)
         reads := Uctx.read r ~len:10 :: !reads));
  Kernel.run k;
  Alcotest.(check (list string)) "data then EOF" [ "tail"; "" ] (List.rev !reads)

(* The reader blocks on an empty pipe; a second LWP closes the only
   write end 5 ms later, which must wake the reader with EOF. *)
let test_pipe_close_unblocks_reader () =
  let k = Kernel.boot () in
  let got = ref "x" in
  ignore
    (Kernel.spawn k ~name:"srv" ~main:(fun () ->
         let r, w = Uctx.pipe () in
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                Uctx.sleep (Time.ms 5);
                Uctx.close w;
                Uctx.lwp_exit ())
              ());
         got := Uctx.read r ~len:8));
  Kernel.run k;
  Alcotest.(check string) "EOF on close" "" !got

let test_double_close_ebadf () =
  let k = Kernel.boot () in
  ignore
    (Kernel.spawn k ~name:"dc" ~main:(fun () ->
         let fd = Uctx.open_file "/x" in
         Uctx.close fd;
         expect_err "double close" (Sysdefs.Sys_close fd) Errno.EBADF;
         expect_err "read closed" (Sysdefs.Sys_read (fd, 1)) Errno.EBADF;
         expect_err "lseek closed" (Sysdefs.Sys_lseek (fd, 0)) Errno.EINVAL;
         expect_err "mmap closed" (Sysdefs.Sys_mmap { fd }) Errno.EBADF));
  Kernel.run k

let test_unlinked_file_segment_survives () =
  (* the paper: sync variables in files can outlive the file's name *)
  let k = Kernel.boot () in
  let still_works = ref false in
  ignore
    (Kernel.spawn k ~name:"unlink" ~main:(fun () ->
         let fd = Uctx.open_file "/gone" in
         let seg = Uctx.mmap fd in
         Uctx.unlink "/gone";
         expect_err "reopen fails"
           (Sysdefs.Sys_open ("/gone", [ Sysdefs.O_RDONLY ]))
           Errno.ENOENT;
         (* the mapping still functions *)
         (match Uctx.kwait ~seg ~offset:0 ~timeout:(Time.ms 1) () with
         | `Timeout -> still_works := true
         | `Woken -> ())));
  Kernel.run k;
  Alcotest.(check bool) "mapped segment outlives the name" true !still_works

(* ------------------------- signals / misc edges ------------------------- *)

let test_sigaction_kill_stop_rejected () =
  let k = Kernel.boot () in
  ignore
    (Kernel.spawn k ~name:"sig" ~main:(fun () ->
         expect_err "catch SIGKILL"
           (Sysdefs.Sys_sigaction (Signo.sigkill, Sysdefs.Sig_ignore))
           Errno.EINVAL;
         expect_err "catch SIGSTOP"
           (Sysdefs.Sys_sigaction (Signo.sigstop, Sysdefs.Sig_ignore))
           Errno.EINVAL));
  Kernel.run k

let test_trap_ignored_when_disposition_ignore () =
  let k = Kernel.boot () in
  let survived = ref false in
  let pid =
    Kernel.spawn k ~name:"ign" ~main:(fun () ->
        ignore (Uctx.sigaction Signo.sigsegv Sysdefs.Sig_ignore);
        Uctx.trap Signo.sigsegv;
        survived := true)
  in
  Kernel.run k;
  Alcotest.(check bool) "trap ignored" true !survived;
  Alcotest.(check (option int)) "clean exit" (Some 0) (Kernel.exit_status k pid)

let test_lwp_kill_bad_target () =
  let k = Kernel.boot () in
  ignore
    (Kernel.spawn k ~name:"badlwp" ~main:(fun () ->
         expect_err "lwp_kill nonsense"
           (Sysdefs.Sys_lwp_kill (99, Signo.sigusr1))
           Errno.ESRCH;
         expect_err "unpark nonsense" (Sysdefs.Sys_lwp_unpark 99) Errno.ESRCH));
  Kernel.run k

let test_kill_bad_pid () =
  let k = Kernel.boot () in
  ignore
    (Kernel.spawn k ~name:"badpid" ~main:(fun () ->
         expect_err "kill nonsense" (Sysdefs.Sys_kill (424242, Signo.sigterm))
           Errno.ESRCH));
  Kernel.run k

let test_waitpid_specific_child () =
  let k = Kernel.boot () in
  let reaped = ref [] in
  ignore
    (Kernel.spawn k ~name:"parent" ~main:(fun () ->
         let c1 = Uctx.fork1 ~child_main:(fun () -> Uctx.exit 11) in
         let c2 = Uctx.fork1 ~child_main:(fun () -> Uctx.exit 22) in
         (* wait for the second child specifically, then the first *)
         let p2, s2 = Uctx.waitpid ~pid:c2 () in
         let p1, s1 = Uctx.waitpid ~pid:c1 () in
         reaped := [ (p2, s2); (p1, s1) ];
         ignore (c1, c2)));
  Kernel.run k;
  match !reaped with
  | [ (_, 22); (_, 11) ] -> ()
  | l ->
      Alcotest.failf "unexpected reap order: %s"
        (String.concat ";"
           (List.map (fun (p, s) -> Printf.sprintf "(%d,%d)" p s) l))

let test_orphaned_child_keeps_running () =
  let k = Kernel.boot ~cpus:2 () in
  let child_finished = ref false in
  ignore
    (Kernel.spawn k ~name:"parent" ~main:(fun () ->
         ignore
           (Uctx.fork1 ~child_main:(fun () ->
                Uctx.sleep (Time.ms 50);
                child_finished := true;
                Uctx.exit 0));
         (* parent exits immediately; child is orphaned *)
         Uctx.exit 0));
  Kernel.run k;
  Alcotest.(check bool) "orphan completed" true !child_finished

let test_prof_timer_counts_system_time_too () =
  let k = Kernel.boot () in
  let fired = ref false in
  ignore
    (Kernel.spawn k ~name:"ptimer" ~main:(fun () ->
         ignore
           (Uctx.sigaction Signo.sigprof
              (Sysdefs.Sig_handler (fun _ -> fired := true)));
         Uctx.setitimer Sysdefs.Timer_prof (Some (Time.ms 2));
         (* burn mostly system time through syscalls *)
         for _ = 1 to 40 do
           ignore (Uctx.getpid ())
         done;
         Uctx.charge (Time.ms 5)));
  Kernel.run k;
  Alcotest.(check bool) "SIGPROF delivered" true !fired

let test_rusage_counts_faults () =
  let k = Kernel.boot () in
  let ru = ref None in
  ignore
    (Kernel.spawn k ~name:"flt" ~main:(fun () ->
         let seg = Uctx.mmap_anon ~size:16384 ~shared:false in
         Uctx.touch seg ~offset:0;
         Uctx.touch seg ~offset:5000;
         ru := Some (Uctx.getrusage ())));
  Kernel.run k;
  match !ru with
  | Some r -> Alcotest.(check int) "two minor faults" 2 r.Sysdefs.ru_minflt
  | None -> Alcotest.fail "no rusage"

(* ------------------------- sleep again ------------------------- *)

(* Two sleepers on one object.  One unit of progress arrives and the
   older sleeper takes it, so the younger one's re-check finds nothing
   and must sleep again until the second unit, 5 ms later.  [finished]
   holds (result, finish time) per sleeper. *)
let check_second_slept_again name ~first ~second finished =
  match List.sort (fun (_, a) (_, b) -> Time.compare a b) finished with
  | [ (r1, t1); (r2, t2) ] ->
      Alcotest.(check string) (name ^ ": first unit") first r1;
      Alcotest.(check string) (name ^ ": second unit") second r2;
      Alcotest.(check bool) (name ^ ": second sleeper waited for it") true
        Time.(Time.diff t2 t1 >= Time.ms 4)
  | l -> Alcotest.failf "%s: %d sleepers finished, expected 2" name (List.length l)

let run_two_sleepers ~setup ~sleeper ~progress =
  let k = Kernel.boot ~cpus:2 () in
  let finished = ref [] in
  ignore
    (Kernel.spawn k ~name:"sleepers" ~main:(fun () ->
         let obj = setup () in
         for _ = 1 to 2 do
           ignore
             (Uctx.lwp_create
                ~entry:(fun () ->
                  let r = sleeper obj in
                  (* gettime is a syscall: bind it before the list update *)
                  let t = Uctx.gettime () in
                  finished := (r, t) :: !finished)
                ());
           Uctx.sleep (Time.ms 1)
         done;
         Uctx.sleep (Time.ms 5);
         progress obj 1;
         Uctx.sleep (Time.ms 5);
         progress obj 2));
  Kernel.run k;
  !finished

let test_pipe_read_sleeps_again () =
  run_two_sleepers ~setup:Uctx.pipe
    ~sleeper:(fun (r, _) -> Uctx.read r ~len:8)
    ~progress:(fun (_, w) i -> ignore (Uctx.write w (if i = 1 then "a" else "b")))
  |> check_second_slept_again "pipe read" ~first:"a" ~second:"b"

(* A full pipe and two one-byte writers: each 1-byte read makes room for
   exactly one of them. *)
let test_pipe_write_sleeps_again () =
  run_two_sleepers
    ~setup:(fun () ->
      let r, w = Uctx.pipe () in
      ignore (Uctx.write w (String.make Sunos_kernel.Pipe.default_capacity 'x'));
      (r, w))
    ~sleeper:(fun (_, w) -> string_of_int (Uctx.write w "y"))
    ~progress:(fun (r, _) _ -> ignore (Uctx.read r ~len:1))
  |> check_second_slept_again "pipe write" ~first:"1" ~second:"1"

(* poll never consumes, so two pollers would both wake on one byte; the
   older sleeper here is a reader that takes the byte, and the poller's
   re-check finds the pipe empty again. *)
let test_poll_sleeps_again () =
  let k = Kernel.boot ~cpus:2 () in
  let finished = ref [] in
  let note r =
    let t = Uctx.gettime () in
    finished := (r, t) :: !finished
  in
  ignore
    (Kernel.spawn k ~name:"poll" ~main:(fun () ->
         let r, w = Uctx.pipe () in
         ignore (Uctx.lwp_create ~entry:(fun () -> note (Uctx.read r ~len:1)) ());
         Uctx.sleep (Time.ms 1);
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                let ready =
                  Uctx.poll [ { Sysdefs.pfd = r; want_in = true; want_out = false } ]
                in
                note (if ready = [ r ] then "ready" else "wrong fds"))
              ());
         Uctx.sleep (Time.ms 5);
         ignore (Uctx.write w "a");
         Uctx.sleep (Time.ms 5);
         ignore (Uctx.write w "b")));
  Kernel.run k;
  check_second_slept_again "poll" ~first:"a" ~second:"ready" !finished

(* ------------------------- stale waiters ------------------------- *)

(* A wait structure may still hold an LWP whose sleep on it has ended
   (timeout, signal) while that LWP now sleeps somewhere else.  Such a
   stale entry must never end the new sleep.  The sleepers below use raw
   system calls so that an EINTR or an early return is seen, not retried;
   each records its results in refs checked after the run. *)

let show r = Format.asprintf "%a" Sysdefs.pp_sysret r

let check_ret name expected got =
  Alcotest.(check (option string)) name (Some (show expected))
    (Option.map show got)

(* A nanosleep of [span], entered after the stale sleep, returned R_ok
   after its full span: nothing aimed at the stale entry ended it. *)
let check_full_sleep name span slept =
  match slept with
  | Some (r, dt) ->
      Alcotest.(check string) (name ^ ": nanosleep result") (show Sysdefs.R_ok)
        (show r);
      Alcotest.(check bool) (name ^ ": nanosleep ran its full span") true
        Time.(dt >= span)
  | None -> Alcotest.failf "%s: the nanosleep never returned" name

let timed_nanosleep span =
  let t0 = Uctx.gettime () in
  let r = Uctx.syscall (Sysdefs.Sys_nanosleep span) in
  let t1 = Uctx.gettime () in
  (r, Time.diff t1 t0)

let kwait_req seg timeout =
  Sysdefs.Sys_kwait { seg; offset = 0; timeout; expect = None }

(* A times out of its kwait and sits in nanosleep; B waits behind A's
   dead entry.  kwake ~count:1 must skip A and wake B. *)
let test_stale_kwait_skipped () =
  let k = Kernel.boot ~cpus:2 () in
  let a_kwait = ref None and a_slept = ref None in
  let b_woke = ref None and woken = ref (-1) in
  ignore
    (Kernel.spawn k ~name:"kwait" ~main:(fun () ->
         let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                a_kwait := Some (Uctx.syscall (kwait_req seg (Some (Time.ms 1))));
                a_slept := Some (timed_nanosleep (Time.ms 20)))
              ());
         Uctx.sleep (Time.us 500);
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                let r = Uctx.syscall (kwait_req seg None) in
                let t = Uctx.gettime () in
                b_woke := Some (r, t))
              ());
         Uctx.sleep (Time.ms 5);
         woken := Uctx.kwake ~seg ~offset:0 ~count:1));
  Kernel.run ~max_events:100_000 k;
  check_ret "A's kwait timed out" (Sysdefs.R_err Errno.ETIMEDOUT) !a_kwait;
  Alcotest.(check int) "kwake woke one waiter" 1 !woken;
  (match !b_woke with
  | Some (r, t) ->
      Alcotest.(check string) "B woken by the kwake" (show Sysdefs.R_ok) (show r);
      Alcotest.(check bool) "B woken before A's nanosleep ended" true
        Time.(t < Time.ms 20)
  | None -> Alcotest.fail "B never woke");
  check_full_sleep "A" (Time.ms 20) !a_slept

(* W is interrupted out of waitpid and then sleeps in nanosleep; the
   child's exit must not interrupt that nanosleep. *)
let test_stale_waitpid_not_interrupted () =
  let k = Kernel.boot ~cpus:2 () in
  let waited = ref None and slept = ref None in
  ignore
    (Kernel.spawn k ~name:"parent" ~main:(fun () ->
         ignore (Uctx.sigaction Signo.sigusr1 (Sysdefs.Sig_handler (fun _ -> ())));
         (* fork alone costs the parent about 10 ms of CPU: the child
            exits well after W's waitpid was interrupted, in the middle
            of W's nanosleep *)
         ignore
           (Uctx.fork1 ~child_main:(fun () ->
                Uctx.sleep (Time.ms 40);
                Uctx.exit 0));
         let w =
           Uctx.lwp_create
             ~entry:(fun () ->
               waited := Some (Uctx.syscall (Sysdefs.Sys_waitpid None));
               Uctx.checkpoint ();
               slept := Some (timed_nanosleep (Time.ms 60)))
             ()
         in
         Uctx.sleep (Time.ms 5);
         Uctx.lwp_kill ~lwpid:w Signo.sigusr1;
         Uctx.sleep (Time.ms 100);
         ignore (Uctx.waitpid ())));
  Kernel.run ~max_events:100_000 k;
  check_ret "waitpid interrupted" (Sysdefs.R_err Errno.EINTR) !waited;
  check_full_sleep "W" (Time.ms 60) !slept

(* X's park times out; X then sleeps.  /proc must show X not parked, so
   an unpark leaves a token instead of ending the sleep, and X's next
   park returns at once. *)
let test_timed_out_park_leaves_token () =
  let k = Kernel.boot ~cpus:2 () in
  let parked = ref None and slept = ref None in
  let shown_parked = ref None and park2 = ref None in
  ignore
    (Kernel.spawn k ~name:"park" ~main:(fun () ->
         let pid = Uctx.getpid () in
         let x =
           Uctx.lwp_create
             ~entry:(fun () ->
               parked := Some (Uctx.syscall (Sysdefs.Sys_lwp_park (Some (Time.ms 1))));
               slept := Some (timed_nanosleep (Time.ms 10));
               let t0 = Uctx.gettime () in
               let r = Uctx.syscall (Sysdefs.Sys_lwp_park None) in
               let t1 = Uctx.gettime () in
               park2 := Some (r, Time.diff t1 t0))
             ()
         in
         Uctx.sleep (Time.ms 3);
         (shown_parked :=
            match Sunos_kernel.Procfs.proc k pid with
            | Some pi ->
                List.find_map
                  (fun li ->
                    if li.Sunos_kernel.Procfs.li_lwpid = x then
                      Some li.Sunos_kernel.Procfs.li_parked
                    else None)
                  pi.Sunos_kernel.Procfs.pi_lwps
            | None -> None);
         Uctx.lwp_unpark x));
  Kernel.run ~max_events:100_000 k;
  check_ret "park timed out" (Sysdefs.R_err Errno.ETIMEDOUT) !parked;
  Alcotest.(check (option bool)) "/proc: not parked" (Some false) !shown_parked;
  check_full_sleep "X" (Time.ms 10) !slept;
  match !park2 with
  | Some (r, dt) ->
      Alcotest.(check string) "second park consumed the token"
        (show Sysdefs.R_ok) (show r);
      Alcotest.(check bool) "second park returned at once" true
        Time.(dt < Time.ms 1)
  | None -> Alcotest.fail "the second park never returned"

(* /proc's view of a sleep.  P parks with no timeout and F faults a page
   of a file in from disk; /proc shows P parked in "lwp_park", in an
   indefinite, interruptible sleep, and F in "pagefault", in a bounded,
   uninterruptible one.  Once P is unparked and F's page arrives, both
   show no wait channel and neither is parked. *)
let test_procfs_shows_sleeps () =
  let k = Kernel.boot ~cpus:2 () in
  let p = ref 0 and f = ref 0 in
  let pid =
    Kernel.spawn k ~name:"sleeps" ~main:(fun () ->
        let seg = Uctx.mmap (Uctx.open_file "/paged") in
        p :=
          Uctx.lwp_create
            ~entry:(fun () ->
              ignore (Uctx.lwp_park ());
              Uctx.charge (Time.ms 200))
            ();
        f :=
          Uctx.lwp_create
            ~entry:(fun () ->
              Uctx.touch seg ~offset:0;
              Uctx.charge (Time.ms 200))
            ();
        Uctx.sleep (Time.ms 10);
        Uctx.lwp_unpark !p;
        Uctx.sleep (Time.s 1))
  in
  let lwp id =
    match Sunos_kernel.Procfs.proc k pid with
    | Some pi -> (
        match
          List.find_opt
            (fun li -> li.Sunos_kernel.Procfs.li_lwpid = id)
            pi.Sunos_kernel.Procfs.pi_lwps
        with
        | Some li -> li
        | None -> Alcotest.failf "lwp %d not in /proc" id)
    | None -> Alcotest.fail "process not in /proc"
  in
  let check_sleep name id ~wchan ~parked ~indefinite ~interruptible =
    let li = lwp id in
    Alcotest.(check string) (name ^ ": wchan") wchan
      li.Sunos_kernel.Procfs.li_wchan;
    Alcotest.(check bool) (name ^ ": parked") parked
      li.Sunos_kernel.Procfs.li_parked;
    Alcotest.(check bool) (name ^ ": indefinite") indefinite
      li.Sunos_kernel.Procfs.li_sleep_indefinite;
    Alcotest.(check bool) (name ^ ": interruptible") interruptible
      li.Sunos_kernel.Procfs.li_sleep_interruptible
  in
  Kernel.run ~until:(Time.ms 8) k;
  check_sleep "parked P" !p ~wchan:"lwp_park" ~parked:true ~indefinite:true
    ~interruptible:true;
  check_sleep "faulting F" !f ~wchan:"pagefault" ~parked:false
    ~indefinite:false ~interruptible:false;
  Kernel.run ~until:(Time.ms 60) k;
  check_sleep "unparked P" !p ~wchan:"" ~parked:false ~indefinite:false
    ~interruptible:false;
  check_sleep "F after the fault" !f ~wchan:"" ~parked:false
    ~indefinite:false ~interruptible:false;
  Kernel.run k

(* R's read of pipe 1 is interrupted; R then blocks reading pipe 2.  A
   write to pipe 1 must stay in pipe 1, not complete the read of pipe 2. *)
let test_stale_pipe_read_not_completed () =
  let k = Kernel.boot ~cpus:2 () in
  let first = ref None and second = ref None and leftover = ref None in
  ignore
    (Kernel.spawn k ~name:"pipes" ~main:(fun () ->
         ignore (Uctx.sigaction Signo.sigusr1 (Sysdefs.Sig_handler (fun _ -> ())));
         let r1, w1 = Uctx.pipe () in
         let r2, w2 = Uctx.pipe () in
         let rd =
           Uctx.lwp_create
             ~entry:(fun () ->
               first := Some (Uctx.syscall (Sysdefs.Sys_read (r1, 8)));
               Uctx.checkpoint ();
               second := Some (Uctx.syscall (Sysdefs.Sys_read (r2, 8))))
             ()
         in
         Uctx.sleep (Time.ms 1);
         Uctx.lwp_kill ~lwpid:rd Signo.sigusr1;
         Uctx.sleep (Time.ms 1);
         ignore (Uctx.write w1 "one");
         Uctx.sleep (Time.ms 1);
         ignore (Uctx.write w2 "two");
         Uctx.sleep (Time.ms 1);
         leftover := Some (Uctx.read r1 ~len:8)));
  Kernel.run ~max_events:100_000 k;
  check_ret "first read interrupted" (Sysdefs.R_err Errno.EINTR) !first;
  check_ret "second read got pipe 2's data" (Sysdefs.R_bytes "two") !second;
  Alcotest.(check (option string)) "pipe 1 kept its data" (Some "one") !leftover

(* ------------------------- zero-length transfers ------------------------- *)

(* A connected stream inside one process: (read end, write end).  For a
   socket the main LWP accepts while a second LWP connects. *)
let open_stream = function
  | `Pipe -> Uctx.pipe ()
  | `Sock ->
      let lfd = Uctx.listen ~name:"zero" ~backlog:1 in
      let cfd = ref (-1) in
      ignore (Uctx.lwp_create ~entry:(fun () -> cfd := Uctx.connect "zero") ());
      let sfd = Uctx.accept lfd in
      Uctx.sleep (Time.ms 5);
      (sfd, !cfd)

(* A zero count transfers nothing and returns at once; a negative read
   count is EINVAL.  Buffered data must come through untouched.  The
   event budget bounds a sleep that never ends, not a spin inside one
   event, so a regression here shows up as a hang. *)
let zero_length_case kind op ~buffered expected () =
  let k = Kernel.boot ~cpus:2 () in
  let got = ref None and rest = ref "" in
  ignore
    (Kernel.spawn k ~name:"zero" ~main:(fun () ->
         let rd, wr = open_stream kind in
         if buffered then begin
           ignore (Uctx.write wr "data");
           Uctx.sleep (Time.ms 10)
         end;
         got :=
           Some
             (Uctx.syscall
                (match op with
                | `Read len -> Sysdefs.Sys_read (rd, len)
                | `Write -> Sysdefs.Sys_write (wr, "")));
         if buffered then rest := Uctx.read rd ~len:16));
  Kernel.run ~max_events:100_000 k;
  Alcotest.(check (option string)) "returned at once" (Some (show expected))
    (Option.map show !got);
  if buffered then Alcotest.(check string) "buffered data intact" "data" !rest

let zero_length_cases =
  List.concat_map
    (fun (kname, kind) ->
      List.map
        (fun (oname, op, buffered, expected) ->
          Alcotest.test_case (kname ^ " " ^ oname) `Quick
            (zero_length_case kind op ~buffered expected))
        [
          ("read 0, data buffered", `Read 0, true, Sysdefs.R_bytes "");
          ("read 0, empty", `Read 0, false, Sysdefs.R_bytes "");
          ("read -1", `Read (-1), true, Sysdefs.R_err Errno.EINVAL);
          ("write 0", `Write, true, Sysdefs.R_int 0);
        ])
    [ ("pipe", `Pipe); ("socket", `Sock) ]

(* A call made with [req ()] by a process's only LWP completes with
   [expected], and the caller runs on and the run drains. *)
let args_case expected req () =
  let k = Kernel.boot ~cpus:1 () in
  let got = ref None and after = ref false in
  ignore
    (Kernel.spawn k ~name:"args" ~main:(fun () ->
         got := Some (Uctx.syscall (req ()));
         after := true));
  Kernel.run ~max_events:100_000 k;
  check_ret "returned" expected !got;
  Alcotest.(check bool) "the caller ran on" true !after

let args_file () = Uctx.open_file ~flags:[ Sysdefs.O_CREAT ] "/args"
let args_seg () = Uctx.mmap_anon ~size:4096 ~shared:false

(* An argument the call cannot act on completes it with EINVAL: a signal
   number outside 1..max_sig, a negative span or offset, a span or
   timeout past the end of simulated time, a mapping of no size. *)
let bad_args_cases =
  List.map
    (fun (name, req) ->
      Alcotest.test_case name `Quick
        (args_case (Sysdefs.R_err Errno.EINVAL) req))
    Sysdefs.
      [
        ("lseek -3", fun () -> Sys_lseek (args_file (), -3));
        ("touch -1", fun () -> Sys_touch (args_seg (), -1));
        ("touch -5000", fun () -> Sys_touch (args_seg (), -5000));
        ("mmap_anon 0", fun () -> Sys_mmap_anon { size = 0; shared = false });
        ( "mmap_anon -4096",
          fun () -> Sys_mmap_anon { size = -4096; shared = true } );
        ("nanosleep -1", fun () -> Sys_nanosleep (-1L));
        ("nanosleep past the end", fun () -> Sys_nanosleep Int64.max_int);
        ("lwp_park -1", fun () -> Sys_lwp_park (Some (-1L)));
        ("lwp_park past the end", fun () -> Sys_lwp_park (Some Int64.max_int));
        ("setitimer -1", fun () -> Sys_setitimer (Timer_real, Some (-1L)));
        ( "setitimer past the end",
          fun () -> Sys_setitimer (Timer_real, Some Int64.max_int) );
        ( "kwait -1",
          fun () ->
            Sys_kwait
              {
                seg = args_seg ();
                offset = 0;
                timeout = Some (-1L);
                expect = None;
              } );
        ( "kwait past the end",
          fun () ->
            Sys_kwait
              {
                seg = args_seg ();
                offset = 0;
                timeout = Some Int64.max_int;
                expect = None;
              } );
        ("kill 0", fun () -> Sys_kill (Uctx.getpid (), 0));
        ("kill 99", fun () -> Sys_kill (Uctx.getpid (), 99));
        ("lwp_kill -1", fun () -> Sys_lwp_kill (Uctx.getlwpid (), -1));
        ("sigaction 0", fun () -> Sys_sigaction (0, Sig_ignore));
        ( "sigaction max_sig+1",
          fun () -> Sys_sigaction (Signo.max_sig + 1, Sig_ignore) );
        ("trap 99", fun () -> Sys_trap 99);
        ("poll past the end", fun () -> Sys_poll ([], Some Int64.max_int));
        ( "epoll_wait past the end",
          fun () -> Sys_epoll_wait (Uctx.epoll_create (), 1, Some Int64.max_int)
        );
      ]

(* The same calls at the edge of what they accept act as before: the
   highest signal number, a zero span or offset, a poll that returns at
   once on a negative timeout.  A refused lseek leaves the offset where
   it was, so the read or write after it works there. *)
let edge_args_cases =
  List.map
    (fun (name, req, expected) ->
      Alcotest.test_case name `Quick (args_case expected req))
    Sysdefs.
      [
        ( "read after lseek -3",
          (fun () ->
            let fd = args_file () in
            Uctx.write_all fd "abcdef";
            Uctx.lseek fd 2;
            ignore (Uctx.syscall (Sys_lseek (fd, -3)));
            Sys_read (fd, 2)),
          R_bytes "cd" );
        ( "write after lseek -3",
          (fun () ->
            let fd = args_file () in
            Uctx.write_all fd "abcdef";
            Uctx.lseek fd 2;
            ignore (Uctx.syscall (Sys_lseek (fd, -3)));
            Uctx.write_all fd "XY";
            Uctx.lseek fd 0;
            Sys_read (fd, 6)),
          R_bytes "abXYef" );
        ("touch 0", (fun () -> Sys_touch (args_seg (), 0)), R_ok);
        ("nanosleep 0", (fun () -> Sys_nanosleep 0L), R_ok);
        ("poll -1", (fun () -> Sys_poll ([], Some (-1L))), R_poll []);
        ( "sigaction max_sig",
          (fun () -> Sys_sigaction (Signo.max_sig, Sig_ignore)),
          R_disp Sig_default );
      ]

(* ------------------------- busy intervals ------------------------- *)

(* A busy interval that outlives its LWP's hold on the CPU is dropped
   when it fires.  On 2 CPUs, A starts a 10 ms charge slice on CPU 0 at
   75 us (the dispatch) and B, on CPU 1, SIGKILLs A 1 ms into its own
   run; the kill's trap ends at 1,107 us.  C, queued behind them, takes
   CPU 0 and starts its own 20 ms slice at 1,182 us, while A's interval
   is still due at 10,075 us.  When that fires it must not act: C's
   time is its own charge, and it exits when that charge ends. *)
let test_stale_interval_dropped () =
  let k = Kernel.boot ~cpus:2 () in
  let a =
    Kernel.spawn k ~name:"a" ~main:(fun () -> Uctx.charge (Time.ms 10))
  in
  ignore
    (Kernel.spawn k ~name:"b" ~main:(fun () ->
         Uctx.charge (Time.ms 1);
         Uctx.kill ~pid:a Signo.sigkill;
         Uctx.charge (Time.ms 30)));
  let c =
    Kernel.spawn k ~name:"c" ~main:(fun () -> Uctx.charge (Time.ms 20))
  in
  Kernel.set_tracing k true;
  Kernel.run k;
  Alcotest.(check (option int)) "A killed" (Some 137) (Kernel.exit_status k a);
  let cp = Option.get (Kernel.find_proc k c) in
  Alcotest.(check (pair int int))
    "C's utime/stime: its own charge" (20_000_000, 0)
    (Sunos_kernel.Ktypes.cpu_times cp);
  let exit_time =
    List.find_map
      (fun r ->
        if r.Sunos_sim.Tracebuf.kind = Sunos_sim.Tracebuf.Exit
           && r.Sunos_sim.Tracebuf.pid = c
        then Some r.Sunos_sim.Tracebuf.time
        else None)
      (Kernel.trace_records k)
  in
  Alcotest.(check (option int64)) "C exits as its charge ends"
    (Some (Time.us 21_182)) exit_time

(* An interval whose accounting ends its process acts no further.  On 1
   CPU, A arms a 1 ms virtual timer and leaves SIGVTALRM at its default,
   so the end of its 5 ms slice kills it, and the exit places B on the
   CPU and arms B's dispatch in the CPU's busy record.  A's code after
   that charge must not run, nor arm an interval over B's: B runs its
   1 ms and exits at 6,198 us, and nothing runs after it. *)
let test_fatal_account_ends_interval () =
  let k = Kernel.boot ~cpus:1 () in
  let a_went_on = ref false in
  let a =
    Kernel.spawn k ~name:"a" ~main:(fun () ->
        Uctx.setitimer Sysdefs.Timer_virtual (Some (Time.ms 1));
        Uctx.charge (Time.ms 5);
        a_went_on := true;
        Uctx.charge (Time.ms 3))
  in
  let b = Kernel.spawn k ~name:"b" ~main:(fun () -> Uctx.charge (Time.ms 1)) in
  Kernel.set_tracing k true;
  Kernel.run k;
  Alcotest.(check (option int)) "A ended by SIGVTALRM"
    (Some (128 + Signo.sigvtalrm)) (Kernel.exit_status k a);
  Alcotest.(check bool) "A's code after the slice never runs" false !a_went_on;
  Alcotest.(check (option int)) "B exits" (Some 0) (Kernel.exit_status k b);
  let exit_time =
    List.find_map
      (fun r ->
        if r.Sunos_sim.Tracebuf.kind = Sunos_sim.Tracebuf.Exit
           && r.Sunos_sim.Tracebuf.pid = b
        then Some r.Sunos_sim.Tracebuf.time
        else None)
      (Kernel.trace_records k)
  in
  Alcotest.(check (option int64)) "B exits after its 1 ms"
    (Some (Time.us 6_198)) exit_time;
  Alcotest.(check int64) "the run ends with B" (Time.us 6_198) (Kernel.now k)

let () =
  Alcotest.run "sunos_kernel_edges"
    [
      ( "sched_classes",
        [
          Alcotest.test_case "gang coscheduled" `Quick
            test_gang_members_coscheduled;
          Alcotest.test_case "gang underprovisioned" `Quick
            test_gang_with_insufficient_cpus_progresses;
          Alcotest.test_case "RT runs to block" `Quick test_rt_class_runs_to_block;
          Alcotest.test_case "TS wake boost" `Quick
            test_ts_decay_lets_interactive_in;
        ] );
      ( "exec",
        [
          Alcotest.test_case "fds kept, handlers reset" `Quick
            test_exec_keeps_fds_resets_handlers;
          Alcotest.test_case "leaves activations mode" `Quick
            test_exec_leaves_activations;
        ] );
      ( "poll",
        [
          Alcotest.test_case "multiple sources" `Quick test_poll_multiple_sources;
          Alcotest.test_case "writable side" `Quick test_poll_writable_side;
        ] );
      ( "io_edges",
        [
          Alcotest.test_case "EOF and holes" `Quick
            test_file_read_past_eof_and_hole;
          Alcotest.test_case "pipe EOF" `Quick test_pipe_eof_after_writer_close;
          Alcotest.test_case "pipe close unblocks reader" `Quick
            test_pipe_close_unblocks_reader;
          Alcotest.test_case "double close" `Quick test_double_close_ebadf;
          Alcotest.test_case "unlinked segment survives" `Quick
            test_unlinked_file_segment_survives;
        ] );
      ( "sleep_again",
        [
          Alcotest.test_case "pipe read" `Quick test_pipe_read_sleeps_again;
          Alcotest.test_case "pipe write" `Quick test_pipe_write_sleeps_again;
          Alcotest.test_case "poll" `Quick test_poll_sleeps_again;
        ] );
      ( "stale_waiters",
        [
          Alcotest.test_case "kwait timed out, kwake skips it" `Quick
            test_stale_kwait_skipped;
          Alcotest.test_case "waitpid interrupted, child exit ignores it"
            `Quick test_stale_waitpid_not_interrupted;
          Alcotest.test_case "park timed out, unpark leaves a token" `Quick
            test_timed_out_park_leaves_token;
          Alcotest.test_case "pipe read interrupted, write leaves it" `Quick
            test_stale_pipe_read_not_completed;
          Alcotest.test_case "/proc shows park and page-fault sleeps" `Quick
            test_procfs_shows_sleeps;
        ] );
      ("zero_length", zero_length_cases);
      ("bad_args", bad_args_cases);
      ("edge_args", edge_args_cases);
      ( "signals_misc",
        [
          Alcotest.test_case "KILL/STOP uncatchable" `Quick
            test_sigaction_kill_stop_rejected;
          Alcotest.test_case "ignored trap" `Quick
            test_trap_ignored_when_disposition_ignore;
          Alcotest.test_case "lwp_kill ESRCH" `Quick test_lwp_kill_bad_target;
          Alcotest.test_case "kill ESRCH" `Quick test_kill_bad_pid;
        ] );
      ( "process",
        [
          Alcotest.test_case "waitpid specific" `Quick
            test_waitpid_specific_child;
          Alcotest.test_case "orphan keeps running" `Quick
            test_orphaned_child_keeps_running;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "prof timer" `Quick
            test_prof_timer_counts_system_time_too;
          Alcotest.test_case "rusage faults" `Quick test_rusage_counts_faults;
        ] );
      ( "busy_intervals",
        [
          Alcotest.test_case "an interval outlived by its LWP is dropped"
            `Quick test_stale_interval_dropped;
          Alcotest.test_case "an interval whose accounting kills ends there"
            `Quick test_fatal_account_ends_interval;
        ] );
    ]
