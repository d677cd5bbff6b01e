(* The epoll readiness layer: edge-triggered delivery, coalescing,
   ONESHOT disarm/re-arm (including the lost-wakeup re-check), interest
   removal and stale-fd collection, EOF/RST arriving while an entry is
   already queued, and blocking-wait wakeup.  Driven through the syscall
   layer from plain LWPs so failures localize to the kernel. *)

module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Errno = Sunos_kernel.Errno
module Sysdefs = Sunos_kernel.Sysdefs
module Procfs = Sunos_kernel.Procfs

(* --- edge delivery on a pipe, single fiber ---------------------------- *)

let test_edge_and_coalesce () =
  let k = Kernel.boot () in
  let first = ref [] and second = ref [] and after_drain = ref [] in
  let coalesced = ref (-1) in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ();
         (* two writes before anyone waits: one queued entry, the second
            edge is absorbed (coalesced), not delivered twice *)
         ignore (Uctx.write w "a");
         ignore (Uctx.write w "b");
         first := Uctx.epoll_wait ep ~max_events:8;
         second := Uctx.epoll_wait ep ~max_events:8 ~timeout:(Time.ms 1);
         (match Procfs.epolls k with
         | [ ei ] -> coalesced := ei.Procfs.ei_coalesced
         | _ -> ());
         (* non-ONESHOT entry stays armed: drain, then a new write is a
            fresh edge *)
         ignore (Uctx.read r ~len:16);
         ignore (Uctx.write w "c");
         after_drain := Uctx.epoll_wait ep ~max_events:8;
         Uctx.close ep));
  Kernel.run k;
  (match !first with
  | [ _ ] -> ()
  | l -> Alcotest.failf "expected one ready fd, got %d" (List.length l));
  Alcotest.(check (list int)) "second wait empty (edge, not level)" [] !second;
  Alcotest.(check int) "second write coalesced" 1 !coalesced;
  Alcotest.(check int) "fresh edge after drain" 1 (List.length !after_drain)

(* --- ONESHOT: disarm on delivery, re-arm re-checks readiness ---------- *)

let test_oneshot_rearm () =
  let k = Kernel.boot () in
  let while_disarmed = ref [ -1 ] and after_rearm = ref [] in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ~oneshot:true ();
         ignore (Uctx.write w "x");
         (match Uctx.epoll_wait ep ~max_events:8 with
         | [ fd ] when fd = r -> ()
         | _ -> Alcotest.fail "oneshot first delivery");
         (* delivered -> disarmed: more data is NOT delivered again *)
         ignore (Uctx.write w "y");
         while_disarmed :=
           Uctx.epoll_wait ep ~max_events:8 ~timeout:(Time.ms 1);
         (* re-arm re-checks readiness: the bytes that arrived while the
            entry was disarmed must surface now, with no further edge —
            this is the lost-wakeup case *)
         Uctx.epoll_mod ep r ~want_in:true ~oneshot:true ();
         after_rearm := Uctx.epoll_wait ep ~max_events:8;
         Uctx.close ep));
  Kernel.run k;
  Alcotest.(check (list int)) "nothing while disarmed" [] !while_disarmed;
  Alcotest.(check int) "re-arm recovered buffered data" 1
    (List.length !after_rearm)

(* --- interest removal with readiness already pending ------------------ *)

let test_del_with_pending () =
  let k = Kernel.boot () in
  let got = ref [ -1 ] in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ();
         ignore (Uctx.write w "x");
         (* the entry is sitting in the ready queue; deleting the
            interest must also kill the queued readiness *)
         Uctx.epoll_del ep r;
         got := Uctx.epoll_wait ep ~max_events:8 ~timeout:(Time.ms 1);
         Uctx.close ep));
  Kernel.run k;
  Alcotest.(check (list int)) "deleted interest never delivered" [] !got

(* --- fd closed without epoll_del: stale entry collected --------------- *)

let test_stale_fd_collected () =
  let k = Kernel.boot () in
  let got = ref [ -1 ] and interest_after = ref (-1) in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ();
         ignore (Uctx.write w "x");
         Uctx.close r;
         got := Uctx.epoll_wait ep ~max_events:8 ~timeout:(Time.ms 1);
         (match Procfs.epolls k with
         | [ ei ] -> interest_after := ei.Procfs.ei_interest
         | _ -> ());
         Uctx.close ep));
  Kernel.run k;
  Alcotest.(check (list int)) "stale readiness dropped" [] !got;
  Alcotest.(check int) "stale entry collected from interest set" 0
    !interest_after

(* --- blocking wait is woken by a later edge --------------------------- *)

let test_blocking_wakeup () =
  let k = Kernel.boot () in
  let woke_at = ref Time.zero in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ();
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                Uctx.sleep (Time.ms 5);
                ignore (Uctx.write w "late"))
              ());
         (match Uctx.epoll_wait ep ~max_events:8 with
         | [ fd ] when fd = r -> woke_at := Uctx.gettime ()
         | _ -> Alcotest.fail "expected wake with ready fd");
         Uctx.close ep));
  Kernel.run k;
  Alcotest.(check bool) "woke after the 5ms write, not before" true
    Time.(!woke_at >= Time.add Time.zero (Time.ms 5))

(* --- timeout: empty wait returns [] after the budget ------------------ *)

let test_wait_timeout () =
  let k = Kernel.boot () in
  let got = ref [ -1 ] and elapsed = ref Time.zero in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, _w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ();
         let t0 = Uctx.gettime () in
         got := Uctx.epoll_wait ep ~max_events:8 ~timeout:(Time.ms 2);
         elapsed := Time.diff (Uctx.gettime ()) t0;
         Uctx.close ep));
  Kernel.run k;
  Alcotest.(check (list int)) "timeout yields []" [] !got;
  Alcotest.(check bool) "waited the full budget" true
    Time.(Time.add Time.zero !elapsed >= Time.add Time.zero (Time.ms 2))

(* --- EOF while an entry is already queued ----------------------------- *)

let test_eof_while_ready () =
  let k = Kernel.boot () in
  let data = ref "" and tail = ref `Unset in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:4 in
         let ep = Uctx.epoll_create () in
         Uctx.epoll_add ep lfd ~want_in:true ();
         (match Uctx.epoll_wait ep ~max_events:8 with
         | [ fd ] when fd = lfd -> ()
         | _ -> Alcotest.fail "listener readiness");
         let cfd =
           match Uctx.accept_nb lfd with
           | `Conn fd -> fd
           | _ -> Alcotest.fail "accept after readiness"
         in
         Uctx.epoll_add ep cfd ~want_in:true ();
         (* sleep past both the client's write and its clean close: the
            data edge and the EOF edge coalesce into one queued entry *)
         Uctx.sleep (Time.ms 20);
         (match Uctx.epoll_wait ep ~max_events:8 with
         | [ fd ] when fd = cfd -> ()
         | _ -> Alcotest.fail "conn readiness");
         (match Uctx.try_read cfd ~len:64 with
         | `Data s -> data := s
         | _ -> Alcotest.fail "expected buffered data before EOF");
         (match Uctx.try_read cfd ~len:64 with
         | `Eof -> tail := `Eof
         | `Data _ -> tail := `Data
         | `Again -> tail := `Again
         | `Reset -> tail := `Reset);
         Uctx.close cfd;
         Uctx.close ep;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 1);
         let fd = Uctx.connect "svc" in
         Uctx.write_all fd "hello";
         (* clean close: nothing unread inbound on this side *)
         Uctx.close fd));
  Kernel.run k;
  Alcotest.(check string) "data survives the queued EOF" "hello" !data;
  Alcotest.(check bool) "then clean EOF" true (!tail = `Eof)

(* --- RST while an entry is already queued ----------------------------- *)

let test_rst_while_ready () =
  let k = Kernel.boot () in
  let outcome = ref `Unset in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:4 in
         let ep = Uctx.epoll_create () in
         Uctx.epoll_add ep lfd ~want_in:true ();
         ignore (Uctx.epoll_wait ep ~max_events:8);
         let cfd =
           match Uctx.accept_nb lfd with
           | `Conn fd -> fd
           | _ -> Alcotest.fail "accept after readiness"
         in
         Uctx.epoll_add ep cfd ~want_in:true ();
         (* answer, then wait: the client never reads the reply and
            closes — an abortive close (RST) that fires the same edge
            path as data *)
         (match Uctx.try_read cfd ~len:64 with
         | `Data _ -> ()
         | _ -> ignore (Uctx.epoll_wait ep ~max_events:8));
         Uctx.write_all cfd "reply";
         (match Uctx.epoll_wait ep ~max_events:8 with
         | [ fd ] when fd = cfd -> (
             match Uctx.try_read cfd ~len:64 with
             | `Reset -> outcome := `Reset
             | `Eof -> outcome := `Eof
             | `Data _ -> outcome := `Data
             | `Again -> outcome := `Again)
         | _ -> Alcotest.fail "reset readiness");
         Uctx.close cfd;
         Uctx.close ep;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 1);
         let fd = Uctx.connect "svc" in
         Uctx.write_all fd "ping";
         (* leave the reply unread long enough for it to be delivered,
            then close: closing with unread inbound data is abortive *)
         Uctx.sleep (Time.ms 10);
         Uctx.close fd));
  Kernel.run k;
  Alcotest.(check bool)
    (Printf.sprintf "reset surfaced through readiness (got %s)"
       (match !outcome with
       | `Reset -> "reset"
       | `Eof -> "eof"
       | `Data -> "data"
       | `Again -> "again"
       | `Unset -> "unset"))
    true (!outcome = `Reset)

(* --- error paths ------------------------------------------------------ *)

let test_errors () =
  let k = Kernel.boot () in
  let eexist = ref false
  and enoent = ref false
  and einval = ref false
  and ebadf = ref false in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, _w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ();
         (try Uctx.epoll_add ep r ~want_in:true ()
          with Errno.Unix_error (Errno.EEXIST, _) -> eexist := true);
         (try Uctx.epoll_del ep 999
          with Errno.Unix_error (Errno.ENOENT, _) -> enoent := true);
         (* plain files have no edge sources: registering one is an error *)
         let dfd = Uctx.open_file "/tmp/f" in
         (try Uctx.epoll_add ep dfd ~want_in:true ()
          with Errno.Unix_error (Errno.EINVAL, _) -> einval := true);
         (* an epoll fd is not a stream: read/write are EBADF *)
         (try ignore (Uctx.read ep ~len:1)
          with Errno.Unix_error (Errno.EBADF, _) -> ebadf := true);
         Uctx.close ep));
  (match
     Sunos_kernel.Fs.create_file (Kernel.fs k) ~path:"/tmp/f" ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "fs setup");
  Kernel.run k;
  Alcotest.(check bool) "double add is EEXIST" true !eexist;
  Alcotest.(check bool) "del of unknown is ENOENT" true !enoent;
  Alcotest.(check bool) "plain file is EINVAL" true !einval;
  Alcotest.(check bool) "read on epoll fd is EBADF" true !ebadf

(* --- the readiness primitive under every wait ------------------------- *)

module Readiness = Sunos_kernel.Readiness

(* The order the goldens rely on: one-shot waiters oldest first, then the
   persistent watches in list order (newest first); an unwatched watch
   is skipped and pruned; a waiter registered while a firing runs waits
   for the next firing; a watch keeps firing. *)
let test_readiness_order () =
  let r = Readiness.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  let fired () =
    let l = List.rev !log in
    log := [];
    l
  in
  let w1 = Readiness.watch r (note "watch1") in
  ignore (Readiness.watch r (note "watch2") : Readiness.watch);
  let w3 = Readiness.watch r (note "watch3") in
  Readiness.wait r (note "wait1");
  Readiness.wait r (fun () ->
      note "wait2" ();
      Readiness.wait r (note "late"));
  Readiness.wait r (note "wait3");
  Readiness.unwatch w3;
  Alcotest.(check int) "three waiters pending" 3 (Readiness.waiters r);
  Readiness.fire r;
  Alcotest.(check (list string)) "waiters oldest first, then live watches"
    [ "wait1"; "wait2"; "wait3"; "watch2"; "watch1" ]
    (fired ());
  Alcotest.(check int) "registered during the firing" 1 (Readiness.waiters r);
  Alcotest.(check int) "unwatched watch pruned" 2 (Readiness.watches r);
  Readiness.unwatch w1;
  Readiness.unwatch w1;
  Alcotest.(check int) "pruned lazily" 2 (Readiness.watches r);
  Readiness.fire r;
  Alcotest.(check (list string)) "late waiter fires next time; watches persist"
    [ "late"; "watch2" ] (fired ());
  Alcotest.(check int) "pruned at the firing" 1 (Readiness.watches r);
  Readiness.fire r;
  Alcotest.(check (list string)) "waiters are one-shot" [ "watch2" ] (fired ())

let () =
  Alcotest.run "epoll"
    [
      ( "edges",
        [
          Alcotest.test_case "edge delivery + coalescing" `Quick
            test_edge_and_coalesce;
          Alcotest.test_case "oneshot disarm and re-arm re-check" `Quick
            test_oneshot_rearm;
          Alcotest.test_case "del with pending readiness" `Quick
            test_del_with_pending;
          Alcotest.test_case "stale fd collected" `Quick
            test_stale_fd_collected;
        ] );
      ( "waiting",
        [
          Alcotest.test_case "blocking wait wakes on edge" `Quick
            test_blocking_wakeup;
          Alcotest.test_case "timeout returns empty" `Quick test_wait_timeout;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "EOF while ready" `Quick test_eof_while_ready;
          Alcotest.test_case "RST while ready" `Quick test_rst_while_ready;
          Alcotest.test_case "error paths" `Quick test_errors;
        ] );
      ( "readiness",
        [ Alcotest.test_case "firing order" `Quick test_readiness_order ] );
    ]
