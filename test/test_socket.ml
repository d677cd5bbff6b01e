(* The kernel socket layer: connection admission, stream semantics
   (EOF, reset, backpressure), poll integration, trace and /proc
   visibility.  All tests drive sockets through the syscall layer from
   plain LWPs — no threads library — so failures localize to the
   kernel. *)

module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Errno = Sunos_kernel.Errno
module Sysdefs = Sunos_kernel.Sysdefs
module Procfs = Sunos_kernel.Procfs

let pf fd = { Sysdefs.pfd = fd; want_in = true; want_out = false }

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

(* One listener with backlog 2 that never accepts; five clients connect
   simultaneously.  Admission happens at SYN arrival, so exactly the
   backlog is admitted and the rest are refused — and the split is the
   same on every run. *)
let overflow_run () =
  let k = Kernel.boot () in
  let admitted = ref 0 and refused = ref 0 in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:2 in
         Uctx.sleep (Time.ms 50);
         Uctx.close lfd));
  for i = 1 to 5 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "c%d" i) ~main:(fun () ->
           Uctx.sleep (Time.ms 1);
           match Uctx.connect "svc" with
           | fd ->
               incr admitted;
               Uctx.sleep (Time.ms 10);
               Uctx.close fd
           | exception Errno.Unix_error (Errno.ECONNREFUSED, _) ->
               incr refused))
  done;
  Kernel.run k;
  (!admitted, !refused, Kernel.now k)

let test_backlog_overflow () =
  let a1, r1, t1 = overflow_run () in
  Alcotest.(check int) "backlog admitted" 2 a1;
  Alcotest.(check int) "overflow refused" 3 r1;
  let a2, r2, t2 = overflow_run () in
  Alcotest.(check int) "same admitted" a1 a2;
  Alcotest.(check int) "same refused" r1 r2;
  Alcotest.(check bool) "same makespan" true (Time.compare t1 t2 = 0)

let test_addr_in_use () =
  let k = Kernel.boot () in
  let second = ref `Unset in
  ignore
    (Kernel.spawn k ~name:"dup" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:4 in
         (match Uctx.listen ~name:"svc" ~backlog:4 with
         | _ -> second := `Listened
         | exception Errno.Unix_error (Errno.EADDRINUSE, _) ->
             second := `Addr_in_use);
         Uctx.close lfd;
         (* the name is free again after close *)
         Uctx.close (Uctx.listen ~name:"svc" ~backlog:4)));
  Kernel.run k;
  Alcotest.(check bool) "second listen refused" true (!second = `Addr_in_use)

(* ------------------------------------------------------------------ *)
(* Stream semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_eof_after_peer_close () =
  let k = Kernel.boot () in
  let got = ref "" and eof = ref "unset" in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:1 in
         let fd = Uctx.accept lfd in
         got := Uctx.read_exact fd ~len:5;
         (* peer has closed: ordered EOF after all data, then again *)
         eof :=
           if Uctx.read fd ~len:10 = "" && Uctx.read fd ~len:10 = "" then
             "eof"
           else "data";
         Uctx.close fd;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 1);
         let fd = Uctx.connect "svc" in
         Uctx.write_all fd "hello";
         Uctx.close fd));
  Kernel.run k;
  Alcotest.(check string) "data before EOF" "hello" !got;
  Alcotest.(check string) "EOF is sticky" "eof" !eof

let test_close_wakes_blocked_acceptor () =
  let k = Kernel.boot () in
  let outcome = ref "unset" in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:1 in
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                match Uctx.accept lfd with
                | _ -> outcome := "accepted"
                | exception Errno.Unix_error (Errno.ECONNABORTED, _) ->
                    outcome := "aborted")
              ());
         Uctx.sleep (Time.ms 5);
         Uctx.close lfd));
  Kernel.run k;
  Alcotest.(check string) "acceptor woken with abort" "aborted" !outcome

let test_backpressure_blocks_writer () =
  let k = Kernel.boot () in
  let chunk = 8192 (* = Socket.default_capacity: one chunk fills it *) in
  let write_done = ref Time.zero and drained = ref 0 in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:1 in
         let fd = Uctx.accept lfd in
         (* don't drain for 50ms: the writer's window stays shut *)
         Uctx.sleep (Time.ms 50);
         for _ = 1 to 3 do
           drained := !drained + String.length (Uctx.read_exact fd ~len:chunk)
         done;
         Uctx.close fd;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 1);
         let fd = Uctx.connect "svc" in
         Uctx.write_all fd (String.make (3 * chunk) 'x');
         write_done := Uctx.gettime ();
         Uctx.close fd));
  Kernel.run k;
  Alcotest.(check int) "all bytes arrived" (3 * 8192) !drained;
  Alcotest.(check bool) "writer blocked until the reader drained" true
    Time.(!write_done >= Time.ms 50)

(* ------------------------------------------------------------------ *)
(* A waiter that finds nothing sleeps again                            *)
(* ------------------------------------------------------------------ *)

(* Two sleepers on one object.  One unit of progress arrives and the
   older sleeper takes it, so the younger one's re-check finds nothing
   and must sleep again until the second unit, 5 ms later.  [finished]
   holds (result, finish time) per sleeper. *)
let check_second_slept_again name finished =
  match List.sort (fun (_, a) (_, b) -> Time.compare a b) finished with
  | [ (_, t1); (_, t2) ] ->
      Alcotest.(check bool) (name ^ ": second sleeper waited for it") true
        Time.(Time.diff t2 t1 >= Time.ms 4)
  | l -> Alcotest.failf "%s: %d sleepers finished, expected 2" name (List.length l)

let note finished r =
  (* gettime is a syscall: bind it before the list update *)
  let t = Uctx.gettime () in
  finished := (r, t) :: !finished

(* The client fills the send window, then two client LWPs each write one
   byte; every 1-byte read on the server side reopens the window by
   exactly one. *)
let test_write_sleeps_again () =
  let k = Kernel.boot ~cpus:2 () in
  let finished = ref [] and drained = ref "" in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:1 in
         let fd = Uctx.accept lfd in
         Uctx.sleep (Time.ms 50);
         let a = Uctx.read fd ~len:1 in
         Uctx.sleep (Time.ms 5);
         let b = Uctx.read fd ~len:1 in
         drained := a ^ b ^ Uctx.read_exact fd ~len:8192;
         Uctx.close fd;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 1);
         let fd = Uctx.connect "svc" in
         Uctx.write_all fd (String.make 8192 'x');
         for _ = 1 to 2 do
           ignore
             (Uctx.lwp_create
                ~entry:(fun () -> note finished (Uctx.write fd "y"))
                ());
           Uctx.sleep (Time.ms 1)
         done));
  Kernel.run k;
  Alcotest.(check (list int)) "both writers took one byte" [ 1; 1 ]
    (List.map fst !finished);
  check_second_slept_again "socket write" !finished;
  Alcotest.(check string) "window carried every byte"
    (String.make 8192 'x' ^ "yy") !drained

let test_accept_sleeps_again () =
  let k = Kernel.boot ~cpus:2 () in
  let finished = ref [] in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:4 in
         for _ = 1 to 2 do
           ignore
             (Uctx.lwp_create ~entry:(fun () -> note finished (Uctx.accept lfd)) ());
           Uctx.sleep (Time.ms 1)
         done;
         Uctx.sleep (Time.ms 30);
         Uctx.close lfd));
  List.iter
    (fun delay ->
      ignore
        (Kernel.spawn k ~name:"client" ~main:(fun () ->
             Uctx.sleep (Time.ms delay);
             let fd = Uctx.connect "svc" in
             Uctx.sleep (Time.ms 20);
             Uctx.close fd)))
    [ 5; 10 ];
  Kernel.run k;
  (match List.map fst !finished with
  | [ a; b ] -> Alcotest.(check bool) "two distinct connections" true (a <> b)
  | _ -> ());
  check_second_slept_again "accept" !finished

(* ------------------------------------------------------------------ *)
(* poll over a mixed fd set                                            *)
(* ------------------------------------------------------------------ *)

let test_poll_mixed_fds () =
  let k = Kernel.boot () in
  let log = ref [] in
  let note s = log := s :: !log in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:4 in
         let pr, pw = Uctx.pipe () in
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                Uctx.sleep (Time.ms 2);
                ignore (Uctx.write pw "ping"))
              ());
         (* pipe side fires first *)
         let r1 = Uctx.poll [ pf lfd; pf pr ] in
         if r1 = [ pr ] then note "pipe";
         ignore (Uctx.read pr ~len:16);
         (* then the listener becomes acceptable *)
         let r2 = Uctx.poll [ pf lfd; pf pr ] in
         if r2 = [ lfd ] then note "listen";
         let fd = Uctx.accept lfd in
         (* and finally the connected stream carries data *)
         let r3 = Uctx.poll [ pf fd; pf lfd; pf pr ] in
         if r3 = [ fd ] then note "stream";
         note (Uctx.read_exact fd ~len:2);
         Uctx.close fd;
         Uctx.close pr;
         Uctx.close pw;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 5);
         let fd = Uctx.connect "svc" in
         Uctx.sleep (Time.ms 3);
         Uctx.write_all fd "hi";
         Uctx.sleep (Time.ms 2);
         Uctx.close fd));
  Kernel.run k;
  Alcotest.(check (list string))
    "readiness arrived in order"
    [ "pipe"; "listen"; "stream"; "hi" ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Observability: trace records and /proc counts                       *)
(* ------------------------------------------------------------------ *)

let test_trace_and_procfs () =
  let k = Kernel.boot () in
  Kernel.set_tracing k true;
  let counts = ref (0, 0) in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:1 in
         let fd = Uctx.accept lfd in
         ignore (Uctx.read_exact fd ~len:2);
         (* one connected socket + one listener open right now *)
         (counts :=
            match Procfs.snapshot k with
            | pi :: _ -> (pi.Procfs.pi_nsocks, pi.Procfs.pi_nlisten)
            | [] -> (-1, -1));
         Uctx.close fd;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 1);
         let fd = Uctx.connect "svc" in
         Uctx.write_all fd "hi";
         Uctx.sleep (Time.ms 2);
         Uctx.close fd));
  Kernel.run k;
  Alcotest.(check (pair int int)) "procfs socket counts" (1, 1) !counts;
  let tags =
    List.sort_uniq compare
      (List.map Sunos_sim.Tracebuf.tag (Kernel.trace_records k))
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " traced") true (List.mem t tags))
    [ "listen"; "connect"; "accept" ]

let () =
  Alcotest.run "sunos_socket"
    [
      ( "admission",
        [
          Alcotest.test_case "backlog overflow deterministic" `Quick
            test_backlog_overflow;
          Alcotest.test_case "name in use" `Quick test_addr_in_use;
        ] );
      ( "streams",
        [
          Alcotest.test_case "EOF after peer close" `Quick
            test_eof_after_peer_close;
          Alcotest.test_case "close wakes acceptor" `Quick
            test_close_wakes_blocked_acceptor;
          Alcotest.test_case "backpressure" `Quick
            test_backpressure_blocks_writer;
        ] );
      ( "sleep_again",
        [
          Alcotest.test_case "write, closed window" `Quick
            test_write_sleeps_again;
          Alcotest.test_case "accept, one connection" `Quick
            test_accept_sleeps_again;
        ] );
      ( "poll",
        [ Alcotest.test_case "mixed fd set" `Quick test_poll_mixed_fds ] );
      ( "observability",
        [
          Alcotest.test_case "trace + procfs" `Quick test_trace_and_procfs;
        ] );
    ]
